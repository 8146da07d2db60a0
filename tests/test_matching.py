import numpy as np
import numpy.testing as npt
import pytest

from pointmatch.errors import EmptyDomainError
from pointmatch.geometry import Intrinsics, Pointmap, pixel_grid, project_points, unproject, DepthMap
from pointmatch.matching import (
    dynamic_mask,
    pointmap_residuals,
    sparsify_tracks,
)
from pointmatch.scenes import SceneConfig, generate_scene, gt_pointmap_matching, gt_rigid_pointmap


def _maps_with_offsets(offsets):
    """Build a rigid map plus a matched map displaced per-pixel by offsets."""
    n = len(offsets)
    base = np.zeros((1, n, 3))
    base[0, :, 2] = np.linspace(1.0, 2.0, n)
    moved = base + np.asarray(offsets, dtype=np.float64).reshape(1, n, 3)
    ones = np.ones((1, n), bool)
    return Pointmap(moved, ones), Pointmap(base, ones)


def test_median_threshold_hand_case():
    # residuals [0]*8 + [3, 3]: median 0 -> threshold 0 -> exactly the two move
    offsets = [(0, 0, 0)] * 8 + [(3, 0, 0), (0, 3, 0)]
    matched, rigid = _maps_with_offsets(offsets)
    dm = dynamic_mask(matched, rigid)
    assert dm.threshold == 0.0
    npt.assert_array_equal(dm.mask[0], [False] * 8 + [True, True])


def test_equal_residuals_yield_empty_mask():
    # all residuals c: threshold 3c, strict comparison -> nothing flagged
    offsets = [(0.5, 0, 0)] * 6
    matched, rigid = _maps_with_offsets(offsets)
    dm = dynamic_mask(matched, rigid)
    npt.assert_allclose(dm.threshold, 1.5)
    assert not dm.mask.any()


def test_all_static_empty_mask():
    matched, rigid = _maps_with_offsets([(0, 0, 0)] * 5)
    dm = dynamic_mask(matched, rigid)
    assert dm.threshold == 0.0
    assert not dm.mask.any()


def test_even_count_median_averages():
    offsets = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (4, 0, 0)]
    matched, rigid = _maps_with_offsets(offsets)
    dm = dynamic_mask(matched, rigid)
    npt.assert_allclose(dm.threshold, 4.5)  # 3 * mean(1, 2)
    npt.assert_array_equal(dm.mask[0], [False, False, False, False])


def test_scale_equivariance():
    rng = np.random.default_rng(0)
    base = rng.uniform(0.5, 3.0, size=(6, 8, 3))
    disp = np.zeros_like(base)
    disp[2:4, 3:6] = 0.8
    ones = np.ones((6, 8), bool)
    for s in (0.5, 2.0, 3.7):
        dm = dynamic_mask(Pointmap((base + disp) * s, ones), Pointmap(base * s, ones))
        dm1 = dynamic_mask(Pointmap(base + disp, ones), Pointmap(base, ones))
        npt.assert_array_equal(dm.mask, dm1.mask)


def test_invalid_pixels_excluded():
    offsets = [(0, 0, 0)] * 4 + [(9, 0, 0)]
    matched, rigid = _maps_with_offsets(offsets)
    valid = matched.valid.copy()
    valid[0, 4] = False  # knock out the single mover
    matched = Pointmap(matched.points, valid)
    dm = dynamic_mask(matched, rigid)
    assert not dm.mask.any()
    assert not dm.valid[0, 4]


def test_empty_domain_raises():
    matched, rigid = _maps_with_offsets([(0, 0, 0)] * 3)
    none = Pointmap(matched.points, np.zeros((1, 3), bool))
    with pytest.raises(EmptyDomainError):
        dynamic_mask(none, rigid)


def test_resolution_mismatch_raises():
    a, _ = _maps_with_offsets([(0, 0, 0)] * 3)
    b, _ = _maps_with_offsets([(0, 0, 0)] * 4)
    with pytest.raises(ValueError):
        pointmap_residuals(a, b)


def test_scene_mask_matches_labels():
    cfg = SceneConfig(seed=21, frame_count=4, height=16, width=20, object_count=2,
                      motion_magnitude=0.08, camera_path="orbit", camera_magnitude=0.015,
                      track_count=0)
    s = generate_scene(cfg)
    i, j = 3, 0
    dm = dynamic_mask(gt_pointmap_matching(s, i, j), gt_rigid_pointmap(s, i, j))
    want = s.dynamic_labels[j] & dm.valid
    npt.assert_array_equal(dm.mask, want)


def test_matching_to_pixels_self_pair_is_grid():
    k = Intrinsics(30.0, 30.0, 9.5, 7.5)
    depth = DepthMap(np.full((16, 20), 2.0))
    pm = unproject(depth, k)
    pix, valid = project_points(pm.points, k)
    assert valid.all()
    npt.assert_allclose(pix, pixel_grid(16, 20), atol=1e-9)


def test_matching_to_pixels_scene_correspondences():
    cfg = SceneConfig(seed=13, frame_count=3, height=14, width=18, object_count=1,
                      motion_magnitude=0.0, camera_path="linear", camera_magnitude=0.05,
                      track_count=0)
    s = generate_scene(cfg)
    xm = gt_pointmap_matching(s, 2, 0)
    pix, pv = project_points(xm.points, s.intrinsics[2])
    sel = xm.valid & pv
    assert sel.any()
    # correspondences stay inside the target image footprint
    assert (pix[sel][:, 0] > -0.5).all() and (pix[sel][:, 0] < s.config.width - 0.5).all()


def test_sparsify_tracks_reads_maps():
    maps = []
    for t in range(3):
        pts = np.zeros((4, 5, 3))
        pts[..., 0] = t
        pts[..., 2] = 1.0
        valid = np.ones((4, 5), bool)
        if t == 1:
            valid[2, 3] = False
        maps.append(Pointmap(pts, valid))
    queries = np.array([[3, 2], [0, 0]])
    tracks, valid = sparsify_tracks(maps, queries)
    assert tracks.shape == (2, 3, 3)
    npt.assert_array_equal(valid, [[True, False, True], [True, True, True]])
    npt.assert_array_equal(tracks[0, 1], 0.0)  # invalid -> zeroed
    npt.assert_allclose(tracks[1, :, 0], [0, 1, 2])


def test_sparsify_rejects_bad_queries():
    maps = [Pointmap(np.ones((2, 2, 3)), np.ones((2, 2), bool))]
    with pytest.raises(ValueError):
        sparsify_tracks(maps, np.array([[2, 0]]))
    with pytest.raises(ValueError):
        sparsify_tracks([], np.array([[0, 0]]))
