"""Scale-normalized regression and temporal-consistency losses.

Every loss here normalizes each stream by its own mean distance-to-origin, so
predictions are compared up to global scale. Window losses pool that factor
over all frames of a window per stream, which is what links the frames: a
per-pair scale wobble can no longer cancel out frame by frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyDomainError
from .geometry import Pointmap

ALPHA_CONF = 0.2

_DEGENERATE_NORM = 1e-12


def norm_factor(maps: Sequence[Pointmap]) -> float:
    """Mean distance-to-origin pooled over every valid pixel of the maps.

    All-zero maps (degenerate) normalize by 1 instead; empty validity raises
    EmptyDomainError.
    """
    if not maps:
        raise ValueError("need at least one map")
    total, count = 0.0, 0
    for m in maps:
        if m.valid.any():
            total += float(np.linalg.norm(m.points[m.valid], axis=-1).sum())
            count += int(m.valid.sum())
    if count == 0:
        raise EmptyDomainError("norm factor needs at least one valid pixel")
    z = total / count
    return z if z > _DEGENERATE_NORM else 1.0


@dataclass
class PixelLoss:
    """Per-pixel loss grid (zero outside valid) with its mean."""

    values: np.ndarray
    valid: np.ndarray
    mean: float


def regression_loss(pred: Pointmap, gt: Pointmap) -> PixelLoss:
    """Scale-normalized pointmap regression: || pred/z - gt/z_bar || per pixel.

    Each side is normalized by its own norm_factor over its own validity; the
    per-pixel grid and mean run over the joint validity.
    """
    if pred.resolution != gt.resolution:
        raise ValueError("pred and gt must share resolution")
    z = norm_factor([pred])
    z_bar = norm_factor([gt])
    valid = pred.valid & gt.valid
    diff = pred.points / z - gt.points / z_bar
    values = np.linalg.norm(diff, axis=-1)
    values[~valid] = 0.0
    if not valid.any():
        raise EmptyDomainError("no jointly-valid pixels")
    return PixelLoss(values=values, valid=valid, mean=float(values[valid].mean()))


def confidence_optimum(residual: float, alpha_conf: float = ALPHA_CONF) -> tuple[float, float]:
    """Per-pixel minimizer of C*r - alpha*log C over C >= 1 and its loss value.

    Unconstrained optimum alpha/r clamps to the C > 1 floor when r >= alpha.
    """
    if residual <= 0:
        raise ValueError("residual must be positive")
    c_star = max(alpha_conf / residual, 1.0)
    return c_star, c_star * residual - alpha_conf * float(np.log(c_star))


@dataclass
class WindowPredictions:
    """A window of predicted maps with their targets (one stream).

    preds[i] aligns with gts[i]; all maps share one resolution.
    """

    preds: list[Pointmap]
    gts: list[Pointmap]

    def __post_init__(self):
        if len(self.preds) != len(self.gts):
            raise ValueError("pred/gt window lengths differ")
        if not self.preds:
            raise ValueError("empty window")
        res = self.preds[0].resolution
        for m in list(self.preds) + list(self.gts):
            if m.resolution != res:
                raise ValueError("window maps must share resolution")

    @property
    def frames(self) -> int:
        return len(self.preds)


def _stream_terms(stream: WindowPredictions) -> list[float]:
    """Per-frame mean normalized error with window-pooled norm factors.

    Frames with empty joint validity contribute zero (nothing to compare);
    a stream with no valid pixels at all raises via norm_factor.
    """
    z = norm_factor(stream.preds)
    z_bar = norm_factor(stream.gts)
    terms = []
    for p, g in zip(stream.preds, stream.gts):
        valid = p.valid & g.valid
        if not valid.any():
            terms.append(0.0)
            continue
        diff = p.points[valid] / z - g.points[valid] / z_bar
        terms.append(float(np.linalg.norm(diff, axis=-1).mean()))
    return terms


def temporal_window_loss(a: WindowPredictions, b: WindowPredictions) -> float:
    """Window loss of two streams: mean over frames of both streams' terms.

    Each task pairs its streams as follows. Tracking: a holds the matched
    maps (keyframe content in each frame's camera), b each frame's own-view
    ego maps. Depth: a and b are the two heads of identical-view pairs, which
    see the same geometry. Reconstruction: a is the keyframe-anchored stream
    (the keyframe seen from every frame), b the per-frame reference stream.
    Norm factors pool over the window per stream.
    """
    if a.frames != b.frames:
        raise ValueError("streams must cover the same window")
    ta, tb = _stream_terms(a), _stream_terms(b)
    return float(np.mean([x + y for x, y in zip(ta, tb)]))
