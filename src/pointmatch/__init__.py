"""Pointmap matching toolkit for dynamic scenes.

Dense per-pixel 3D maps ("pointmaps") expressed in a chosen camera frame are
the single currency: matching maps carry cross-view correspondence for moving
content, rigid maps carry the static-world hypothesis, and their disagreement
yields dynamic masks, temporal-consistency losses, tracking / depth /
reconstruction pipelines, and mask-aware global alignment. Everything runs on
an analytic synthetic-scene oracle, so behavior is deterministic and testable
down to the bit.
"""

from .alignment import AlignmentOptions, build_pair_graph, global_align
from .attention import TokenGrid, fit_denoiser, forward, init_params
from .geometry import (
    DepthMap,
    Intrinsics,
    Pointmap,
    Pose,
    project_points,
    transform_pointmap,
    unproject,
)
from .losses import confidence_optimum, regression_loss, temporal_window_loss
from .matching import DynamicMask, dynamic_mask, pointmap_residuals
from .metrics import apd, depth_metrics, trajectory_metrics, umeyama
from .pipelines import (
    OraclePredictor,
    feedforward_recon,
    plan_pairs,
    track_3d,
    video_depth,
    window_starts,
)
from .scenes import SceneConfig, build_tracks, generate_scene

__version__ = "0.1.0"

__all__ = [
    "AlignmentOptions",
    "DepthMap",
    "DynamicMask",
    "Intrinsics",
    "OraclePredictor",
    "Pointmap",
    "Pose",
    "SceneConfig",
    "TokenGrid",
    "apd",
    "build_pair_graph",
    "build_tracks",
    "confidence_optimum",
    "depth_metrics",
    "dynamic_mask",
    "feedforward_recon",
    "fit_denoiser",
    "forward",
    "generate_scene",
    "global_align",
    "init_params",
    "plan_pairs",
    "pointmap_residuals",
    "project_points",
    "regression_loss",
    "temporal_window_loss",
    "track_3d",
    "trajectory_metrics",
    "transform_pointmap",
    "umeyama",
    "unproject",
    "video_depth",
    "window_starts",
]
