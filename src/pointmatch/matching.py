"""Explicit cross-time matching utilities built on pointmap pairs.

The central op: given a matching pointmap (where scene content actually is at
the target time) and a rigid pointmap (where it would be if the world were
static), per-pixel disagreement separates moving content from static, and a
robust threshold at 3x the median residual turns it into a mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyDomainError
from .geometry import Pointmap, pixel_indices

DYNAMIC_MEDIAN_FACTOR = 3.0


@dataclass
class DynamicMask:
    """Boolean motion mask plus the threshold that produced it.

    mask is False wherever the residual domain was invalid, so downstream
    consumers can use it directly as "confidently dynamic".
    """

    mask: np.ndarray
    threshold: float
    residuals: np.ndarray
    valid: np.ndarray


def pointmap_residuals(matched: Pointmap, rigid: Pointmap) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel L2 disagreement between two pointmaps and the joint validity.
    A disagreement beyond the float range is inf, without a numpy warning."""
    if matched.resolution != rigid.resolution:
        raise ValueError("pointmaps must share resolution")
    valid = matched.valid & rigid.valid
    with np.errstate(over="ignore"):
        res = np.linalg.norm(matched.points - rigid.points, axis=-1)
    res[~valid] = 0.0
    return res, valid


def dynamic_mask(matched: Pointmap, rigid: Pointmap) -> DynamicMask:
    """Label pixels whose matched position disagrees with the rigid hypothesis.

    Threshold = 3 x median residual over jointly-valid pixels (numpy median:
    even counts average the two central order statistics). The comparison is
    strict, so an all-static pair (all residuals 0) yields an empty mask.
    Raises EmptyDomainError when no pixel is jointly valid.
    """
    res, valid = pointmap_residuals(matched, rigid)
    if not valid.any():
        raise EmptyDomainError("no jointly-valid pixels to threshold")
    threshold = DYNAMIC_MEDIAN_FACTOR * float(np.median(res[valid]))
    mask = valid & (res > threshold)
    return DynamicMask(mask=mask, threshold=threshold, residuals=res, valid=valid)


def sparsify_tracks(
    matched_maps: list[Pointmap], queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Read per-query 3D tracks out of a window of matching pointmaps.

    matched_maps[t] must be indexed by the query frame's pixels (all maps share
    that indexing); queries is (Q, 2) integer (x, y). Returns
    (tracks (Q, T, 3), valid (Q, T)). Queries that are not whole pixels of
    the maps' image raise ValueError (geometry.pixel_indices).
    """
    if not matched_maps:
        raise ValueError("need at least one matching pointmap")
    h, w = matched_maps[0].resolution
    for m in matched_maps:
        if m.resolution != (h, w):
            raise ValueError("matching pointmaps must share resolution")
    x, y = pixel_indices(queries, h, w).T
    tracks = np.stack([m.points[y, x] for m in matched_maps], axis=1)
    valid = np.stack([m.valid[y, x] for m in matched_maps], axis=1)
    tracks[~valid] = 0.0
    return tracks, valid
