"""Plot-level crop-residue burn detection from two-sensor reflectance stacks."""

from .features import FeatureTable, VdiffSpec, build_feature_table, temporal_stats, vdiff
from .forest import ForestModel, ForestParams, predict_scores, train_forest
from .indices import EndmemberSet, compute_index, unmix_char_fraction
from .pipeline import RunConfig, compare_ablations, run_pipeline
from .scene import (BandObservation, GapReport, GridGeometry, Plot, SceneCube,
                    gap_statistics, make_plot, rasterize_plot)
from .separability import SampleStats, m_statistic, separability_curve, signature_profile
from .synth import ScenarioConfig, Scenario, generate, inject_gaps
from .thresholds import (ConfusionCounts, PlotPrediction, aggregate_plot,
                         balanced_accuracy_threshold, cohens_kappa,
                         max_accuracy_threshold, prediction_summary)

__version__ = "0.1.0"
