"""Workload definitions: scenario and run parameters per workload.

Plain data, importable without numpy or plotburn, so the orchestrating
process stays small.

Each workload has one fixed scene: the first draw of its scene seeds in
which every CV fold can train on both classes. The benchmark seed instead
picks the runs' RunConfig.seed values (see run_seed), which drive bootstrap
samples, per-split feature subsets and the grouping of plots into folds.
Scene-to-scene differences in pass counts and separability move forest size
and accuracy by more than the bounds this benchmark can hold on a shared
2-core machine, so they are kept out of the run-to-run spread. Plot areas
use mean == median, so every plot has the same size.
"""

from __future__ import annotations

import hashlib
import math

# Char fades with these half-lives (days) in every workload. With the
# generator's defaults (1.5 / 3.0) scenes this small put several plots near
# the decision threshold, and accuracy then swings by 10-70% with the forest
# seed alone; with these the calls sit at or near the ceiling for every seed.
STEADY_CHAR = {"char_half_life_vis": 3.0, "char_half_life_ir": 6.0}

WORKLOADS = {
    "pixels": {
        "why": "many pixel rows per plot, 10 trees and 4 grouped folds: feature "
               "extraction and index evaluation dominate",
        "scenario": {"n_plots": 16, "plot_area_mean_ha": 0.02,
                     "plot_area_median_ha": 0.02, **STEADY_CHAR},
        "run": {"n_trees": 10, "cv_mode": "grouped:4"},
        "source": "synthetic",
    },
    "trees": {
        "why": "the fewest pixels a plot can have, sparse sensor-A passes and "
               "60 trees per forest: forest training and the CV loop dominate",
        "scenario": {"n_plots": 14, "plot_area_mean_ha": 0.004,
                     "plot_area_median_ha": 0.004, "revisit_a": 4.0, **STEADY_CHAR},
        "run": {"n_trees": 60, "cv_mode": "auto"},
        "source": "synthetic",
    },
    "files": {
        "why": "the real-data path: ASCII grids on a tile 100x the plot area, "
               "sensor B at 3x coarser cells, so parsing and resampling dominate",
        "scenario": {"n_plots": 8, "plot_area_mean_ha": 0.02,
                     "plot_area_median_ha": 0.02, **STEADY_CHAR},
        "run": {"n_trees": 10, "cv_mode": "auto"},
        "source": "files",
        # Tile area over summed plot area, and the sensor-B cell factor.
        "tile_area_factor": 100.0,
        "coarse_factor_b": 3,
    },
}


def scenario_seed(workload: str, attempt: int) -> int:
    """Scene seed of one draw; distinct per workload."""
    text = f"{workload}:{attempt}".encode()
    return int(hashlib.sha256(text).hexdigest()[:8], 16)


def run_seed(seed: int, group: int) -> int:
    """RunConfig.seed of the group-th distinct run of a benchmark seed."""
    return 1000 * seed + group


def min_class_plots(workload: str) -> int:
    """Plots each class needs so that every CV fold trains on both classes.

    The pipeline refuses a single-class training set by design, so a scene
    draw with fewer plots of either class is not a valid input.
    """
    spec = WORKLOADS[workload]
    mode = spec["run"]["cv_mode"]
    if mode.startswith("grouped:"):
        return math.ceil(spec["scenario"]["n_plots"] / int(mode.split(":")[1])) + 1
    return 2
