import numpy as np
import numpy.testing as npt
import pytest

from pointmatch.errors import EmptyDomainError
from pointmatch.geometry import Pointmap
from pointmatch.losses import (
    WindowPredictions,
    confidence_optimum,
    norm_factor,
    regression_loss,
    temporal_window_loss,
)


def _pm(points, valid=None):
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 2:
        pts = pts[None]
    if valid is None:
        valid = np.ones(pts.shape[:2], bool)
    return Pointmap(pts, valid)


def test_norm_factor_hand_value():
    assert norm_factor([_pm([[3.0, 4.0, 0.0]])]) == 5.0


def test_norm_factor_degenerate_is_one():
    assert norm_factor([_pm([[0.0, 0.0, 0.0]])]) == 1.0


def test_norm_factor_empty_raises():
    with pytest.raises(EmptyDomainError):
        norm_factor([_pm([[1.0, 0, 0]], valid=np.zeros((1, 1), bool))])


def test_window_norm_factor_pools():
    a = _pm([[1.0, 0, 0]])
    b = _pm([[3.0, 0, 0]])
    assert norm_factor([a, b]) == 2.0
    # pooling is per-pixel, not per-frame means
    c = _pm([[1.0, 0, 0], [1.0, 0, 0], [1.0, 0, 0]])
    assert norm_factor([c, b]) == 1.5


def test_regression_loss_perfect_after_scale():
    gt = _pm([[0.0, 0.0, 1.0]])
    pred = _pm([[0.0, 0.0, 2.0]])
    out = regression_loss(pred, gt)
    assert out.mean == 0.0  # z = 2, z_bar = 1 cancel the scale exactly


def test_regression_loss_hand_value():
    gt = _pm([[0.0, 0.0, 1.0]])
    pred = _pm([[0.0, 1.0, 1.0]])
    out = regression_loss(pred, gt)
    s = 1.0 / np.sqrt(2.0)
    want = np.sqrt(s * s + (s - 1.0) ** 2)
    npt.assert_allclose(out.mean, want, atol=1e-12)


def test_regression_scale_invariance():
    rng = np.random.default_rng(1)
    gt = _pm(rng.uniform(0.5, 2.0, size=(5, 7, 3)))
    pred = _pm(gt.points + rng.normal(scale=0.05, size=(5, 7, 3)))
    base = regression_loss(pred, gt).mean
    for s in (0.1, 3.0, 250.0):
        npt.assert_allclose(regression_loss(pred.scaled(s), gt).mean, base, rtol=1e-12)
        npt.assert_allclose(regression_loss(pred, gt.scaled(s)).mean, base, rtol=1e-12)


def test_regression_loss_joint_validity():
    gt = _pm([[0, 0, 1.0], [0, 0, 1.0]])
    pv = np.array([[True, False]])
    pred = Pointmap(np.array([[[0, 0, 1.0], [9, 9, 9.0]]]), pv)
    out = regression_loss(pred, gt)
    npt.assert_array_equal(out.valid, pv)
    assert out.values[0, 1] == 0.0


def test_confidence_optimum_clamped():
    c, v = confidence_optimum(0.5, 0.2)
    assert c == 1.0 and v == 0.5
    c2, v2 = confidence_optimum(0.1, 0.2)
    npt.assert_allclose(c2, 2.0)
    npt.assert_allclose(v2, 0.2 - 0.2 * np.log(2.0), atol=1e-12)


def test_confidence_optimum_matches_numeric_min():
    for r in (0.5, 0.1, 0.03):
        _, want = confidence_optimum(r, 0.2)
        us = np.linspace(-40.0, 10.0, 200001)
        cs = 1.0 + np.exp(us)
        vals = cs * r - 0.2 * np.log(cs)
        assert vals.min() >= want - 1e-12
        npt.assert_allclose(vals.min(), want, atol=1e-6)


def _window(rng, t, h=4, w=5, noise=0.0):
    preds, gts = [], []
    for _ in range(t):
        base = rng.uniform(0.5, 2.0, size=(h, w, 3))
        preds.append(_pm(base + rng.normal(scale=noise, size=base.shape)))
        gts.append(_pm(base))
    return WindowPredictions(preds=preds, gts=gts)


def test_temporal_losses_zero_on_perfect():
    rng = np.random.default_rng(2)
    a = _window(rng, 3)
    b = _window(rng, 3)
    assert temporal_window_loss(a, b) == 0.0


def test_temporal_loss_global_scale_invariance():
    rng = np.random.default_rng(3)
    a = _window(rng, 4, noise=0.03)
    b = _window(rng, 4, noise=0.03)
    base = temporal_window_loss(a, b)
    for s in (0.25, 8.0):
        a_s = WindowPredictions(preds=[p.scaled(s) for p in a.preds], gts=a.gts)
        npt.assert_allclose(temporal_window_loss(a_s, b), base, rtol=1e-12)


def test_temporal_loss_penalizes_inconsistent_scale():
    # scaling ONE frame of the window moves the loss: pooled normalization
    # cannot absorb per-frame wobble
    rng = np.random.default_rng(4)
    a = _window(rng, 4)
    b = _window(rng, 4)
    assert temporal_window_loss(a, b) == 0.0
    preds = list(a.preds)
    preds[1] = preds[1].scaled(1.5)
    a_bad = WindowPredictions(preds=preds, gts=a.gts)
    assert temporal_window_loss(a_bad, b) > 1e-3


def test_temporal_loss_isolates_empty_frames():
    rng = np.random.default_rng(5)
    a = _window(rng, 3)
    dead = Pointmap(np.zeros((4, 5, 3)), np.zeros((4, 5), bool))
    preds, gts = list(a.preds), list(a.gts)
    preds[1], gts[1] = dead, dead
    a_holes = WindowPredictions(preds=preds, gts=gts)
    b = _window(rng, 3)
    # frame 1 has empty joint validity: contributes zero, pools unchanged
    # (both streams lost identical pixels), loss stays exactly zero
    assert temporal_window_loss(a_holes, b) == 0.0
    # one-sided holes shift the gt pool but never break finiteness
    one_sided = WindowPredictions(preds=a.preds, gts=gts)
    assert np.isfinite(temporal_window_loss(one_sided, b))


def test_window_validation():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        WindowPredictions(preds=[], gts=[])
    a = _window(rng, 2)
    b = _window(rng, 3)
    with pytest.raises(ValueError):
        temporal_window_loss(a, b)
