"""Plot-level crop-residue burn detection from two-sensor reflectance stacks."""

from .features import build_feature_table
from .forest import ForestParams, train_forest
from .synth import ScenarioConfig, generate
from .thresholds import max_accuracy_threshold

__version__ = "0.1.0"
