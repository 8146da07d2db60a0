"""Solver-layer checks of global alignment: the flat residual table against
an energy written out edge by edge, 2D rows only where a 3D row reaches the
pixel too, invariance to the row-chunk size, reuse of one chi elimination
across damping tries, the memory of one step, and property tests of
monotone, finite solves and of exact recovery on noiseless static scenes."""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointmatch import alignment
from pointmatch.alignment import (
    AlignmentEdge,
    AlignmentOptions,
    AlignmentProblem,
    AlignmentVariables,
    alignment_energy,
    build_pair_graph,
    global_align,
    rodrigues,
    _energy_and_grad,
    _lm_step,
    _prepare,
)
from pointmatch.config import RunConfig
from pointmatch.geometry import EPS_Z, ConfidenceMap, Intrinsics, Pointmap, project_points
from pointmatch.matching import DynamicMask
from pointmatch.metrics import trajectory_metrics
from pointmatch.pipelines import OraclePredictor, PairPrediction
from pointmatch.scenes import _CAMERA_PATHS, SceneConfig, generate_scene

DELTA = 1e-6  # pseudo-Huber scale of both energy terms


def rho(r):
    return np.sqrt((r * r).sum(axis=-1) + DELTA**2) - DELTA


def reference_energy(problem, v, opts):
    """E3d + E2d of the alignment module docstring, one edge at a time."""
    total, scales = 0.0, np.exp(v.log_scales)
    for ei, e in enumerate(problem.edges):
        r_i, t_i, p = rodrigues(v.rotvecs[e.i]), v.translations[e.i], e.pred
        k = problem.intrinsics[e.i]
        for f, pm, conf in ((e.i, p.x_ii, p.conf_ii), (e.j, p.x_ji, p.conf_ji)):
            mapped = (scales[ei] * pm.points[pm.valid]) @ r_i.T + t_i
            total += float((conf.values[pm.valid] * rho(v.pointmaps[f][pm.valid] - mapped)).sum())
        m = p.x_ji_matched
        static = m.valid & p.x_ji.valid & (m.points[..., 2] > EPS_Z)
        if opts.use_dynamic_mask and e.mask is not None:
            static &= ~e.mask.mask
        target = project_points(m.points[static], k)[0]
        y = (v.pointmaps[e.j][static] - t_i) @ r_i  # R_i^T (chi_j - t_i), row form
        front = y[:, 2] > EPS_Z
        total += opts.lambda_2d * float(rho(project_points(y[front], k)[0] - target[front]).sum())
    return total


def handmade():
    """Four 4x5 frames. At the returned variables the 2D rows of edge (1, 2)
    all lie behind camera 1, those of edge (2, 3) half behind camera 2;
    edge (0, 3) has no valid pixel, and pixel (0, 0) of frame 2 is reached
    by no term."""
    rng = np.random.default_rng(5)
    h, w = 4, 5
    k = Intrinsics(fx=6.0, fy=5.0, cx=2.0, cy=1.5)
    full, none = np.ones((h, w), bool), np.zeros((h, w), bool)
    hole = full.copy()
    hole[0, 0] = False

    def pm(valid):
        pts = rng.normal(scale=0.3, size=(h, w, 3)) + [0.0, 0.0, 2.0]
        return Pointmap(pts, valid)

    def edge(i, j, valid):
        conf = [ConfidenceMap(rng.normal(size=(h, w))) for _ in range(2)]
        pred = PairPrediction((i, j), pm(valid), pm(valid), pm(valid), *conf)
        mask = DynamicMask(rng.random((h, w)) < 0.3, 0.1, np.zeros((h, w)), valid)
        return AlignmentEdge(i, j, pred, mask if valid.any() else None)

    edges = [edge(0, 1, full), edge(1, 2, hole), edge(2, 3, hole), edge(0, 3, none)]
    ego = [pm(full), pm(full), pm(hole), pm(full)]
    problem = AlignmentProblem([0, 1, 2, 3], [k] * 4, edges, ego)
    v = AlignmentVariables(
        0.05 * rng.normal(size=(4, 3)), 0.05 * rng.normal(size=(4, 3)),
        0.1 * rng.normal(size=4), rng.normal(scale=0.3, size=(4, h, w, 3)) + [0.0, 0.0, 2.0],
    )
    v.pointmaps[2, ..., 2] -= 4.0
    v.pointmaps[3, : h // 2, :, 2] -= 4.0
    return problem, v


def noisy_scene_problem():
    seq = generate_scene(SceneConfig(seed=2, frame_count=4, height=8, width=10, object_count=2,
                                     motion_magnitude=0.1, track_count=0))
    predictor = OraclePredictor(seq, sigma_point=0.01, sigma_scale=0.1, seed=3)
    problem = build_pair_graph(seq, predictor, stride=2)
    rng = np.random.default_rng(1)
    v = alignment._init_pairwise(problem, _prepare(problem, AlignmentOptions()))
    v.rotvecs += 0.02 * rng.normal(size=v.rotvecs.shape)
    v.pointmaps += 0.02 * rng.normal(size=v.pointmaps.shape)
    return problem, v


def test_handmade_problem_covers_the_corner_cases():
    problem, v = handmade()

    def depths(e):  # of the edge's 2D rows in its camera i
        d = v.pointmaps[e.j][e.pred.x_ji_matched.valid] - v.translations[e.i]
        return (d @ rodrigues(v.rotvecs[e.i]))[:, 2]

    assert np.all(depths(problem.edges[0]) > EPS_Z)
    assert depths(problem.edges[1]).size and np.all(depths(problem.edges[1]) <= EPS_Z)
    assert np.any(depths(problem.edges[2]) <= EPS_Z) and np.any(depths(problem.edges[2]) > EPS_Z)
    assert not problem.edges[3].pred.x_ii.valid.any()
    # pixel (0, 0) of frame 2 (index frame * pixels + pixel) is in no row
    pres = _prepare(problem, AlignmentOptions(lambda_2d=0.5, use_dynamic_mask=False))
    assert all(2 * (4 * 5) + 0 not in rows.pix for rows in pres)


def test_a_matched_pixel_without_a_3d_row_gets_no_2d_row():
    problem, v = handmade()
    # edge (0, 1)'s matched head stays valid where its x_ji is not; frame 1's
    # pixel (0, 0) lies in edge (1, 2)'s hole too, so no 3D row reaches it
    e = problem.edges[0]
    x_ji = e.pred.x_ji.valid.copy()
    x_ji[0, 0] = x_ji[2, 3] = False
    e.pred = dataclasses.replace(e.pred, x_ji=Pointmap(e.pred.x_ji.points, x_ji))
    assert e.pred.x_ji_matched.valid.all()
    opts = AlignmentOptions(lambda_2d=0.5, use_dynamic_mask=False)
    rows3, rows2 = _prepare(problem, opts)
    seg = int(np.flatnonzero(rows2.edge == 0)[0])
    pulled = rows2.pix[rows2.start[seg] : rows2.start[seg + 1]] - 1 * 20  # frame 1's pixels
    np.testing.assert_array_equal(pulled, np.flatnonzero(x_ji))
    assert all(1 * 20 + 0 not in rows.pix for rows in (rows3, rows2))
    _, _, system = _energy_and_grad(problem, (rows3, rows2), v, opts)
    assert np.all(np.isfinite(system.k_chi))
    result = global_align(problem, dataclasses.replace(opts, max_iters=8))
    assert result.iterations >= 1 and np.all(np.isfinite(result.energy_trace))
    assert np.all(np.isfinite(result.variables.pointmaps))


def test_row_pixel_indices_are_int32_within_their_range():
    problem, _ = handmade()
    assert all(rows.pix.dtype == np.int32 for rows in _prepare(problem, AlignmentOptions()))
    # the range check reads only the frame count and the resolution
    big = SimpleNamespace(frames=range(2), ego_maps=[SimpleNamespace(resolution=(1 << 15, 1 << 15))])
    with pytest.raises(ValueError, match="int32"):
        _prepare(big, AlignmentOptions())


@pytest.mark.parametrize("lambda_2d", [0.0, 0.5])
@pytest.mark.parametrize("use_dynamic_mask", [True, False], ids=["masked", "unmasked"])
@pytest.mark.parametrize("make", [handmade, noisy_scene_problem], ids=["handmade", "scene"])
def test_energy_matches_the_edge_by_edge_reference(make, use_dynamic_mask, lambda_2d):
    problem, v = make()
    opts = AlignmentOptions(lambda_2d=lambda_2d, use_dynamic_mask=use_dynamic_mask)
    want = reference_energy(problem, v, opts)
    assert want > 0
    assert abs(alignment_energy(problem, v, opts) - want) <= 1e-12 * want


def test_row_chunk_size_leaves_the_solve_unchanged(monkeypatch):
    problem, _ = noisy_scene_problem()
    opts = AlignmentOptions(lambda_2d=0.5, max_iters=12)

    def solve():
        pres = _prepare(problem, opts)
        v = alignment._init_pairwise(problem, pres)
        energy, grad, system = _energy_and_grad(problem, pres, v, opts)
        step = _lm_step(v, system, 1e-3)
        return pres, energy, grad, step, global_align(problem, opts)

    pres, energy, grad, step, result = solve()
    assert result.iterations > 1
    monkeypatch.setattr(alignment, "_CHUNK_ROWS", 7)
    # 7-row chunks split segments of each term, and so edges and frames
    assert all(np.diff(rows.start).max() > 7 for rows in pres)
    _, energy7, grad7, step7, result7 = solve()

    def same(a, b):
        return np.abs(a - b).max() <= 1e-12 * np.abs(a).max()

    assert abs(energy7 - energy) <= 1e-12 * energy
    for field in ("rotvecs", "translations", "log_scales", "pointmaps"):
        assert same(getattr(grad, field), getattr(grad7, field)), field
        assert same(getattr(step, field), getattr(step7, field)), field
    assert (result7.iterations, result7.converged) == (result.iterations, result.converged)
    assert same(np.array(result.energy_trace), np.array(result7.energy_trace))


def test_every_damping_try_reads_the_rows_once_from_one_elimination(monkeypatch):
    problem, _ = noisy_scene_problem()
    opts = AlignmentOptions(lambda_2d=0.5)
    pres = _prepare(problem, opts)
    v = alignment._init_pairwise(problem, pres)
    dampings = (1e-3, 1e-2, 1e-1, 1.0)
    want = {d: _lm_step(v, _energy_and_grad(problem, pres, v, opts)[2], d) for d in dampings}
    _, _, system = _energy_and_grad(problem, pres, v, opts)
    reads = []
    linearized = alignment._linearized
    monkeypatch.setattr(alignment, "_linearized",
                        lambda *args, **kw: reads.append(args[2]) or linearized(*args, **kw))
    n = len(problem.frames)
    for damping in dampings:
        reads.clear()
        step = _lm_step(v, system, damping)
        assert reads == [(0, n)], damping  # the back-substitution alone
        for field in ("rotvecs", "translations", "log_scales", "pointmaps"):
            np.testing.assert_array_equal(getattr(step, field), getattr(want[damping], field))


def test_one_step_memory_is_bounded_by_the_rows_not_the_couplings():
    # the jittered 48x64x12 CLI scene at stride 2: one linearization and one
    # LM step; every frame's coupling blocks held at once peaked at 41 MiB
    cfg = dataclasses.replace(RunConfig().scene_config(), height=48, width=64, frame_count=12)
    seq = generate_scene(cfg)
    problem = build_pair_graph(seq, OraclePredictor(seq, sigma_scale=0.05), stride=2)
    tracemalloc.start()
    try:
        result = global_align(problem, AlignmentOptions(max_iters=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.iterations == 1
    assert peak < 30 * 2**20, peak / 2**20


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    camera_path=st.sampled_from(["orbit", "linear", "random-smooth"]),
    objects=st.integers(0, 5),
    height=st.integers(4, 16),
    width=st.integers(4, 20),
    frames=st.integers(1, 5),
    jitter=st.floats(0.0, 0.2),
    noise=st.floats(0.0, 0.2),
)
def test_solve_descends_monotonically_to_finite_outputs(seed, camera_path, objects, height, width,
                                                        frames, jitter, noise):
    seq = generate_scene(SceneConfig(seed=seed, frame_count=frames, height=height, width=width,
                                     object_count=objects, camera_path=camera_path, track_count=0))
    predictor = OraclePredictor(seq, sigma_point=noise, sigma_scale=jitter, seed=seed)
    result = global_align(build_pair_graph(seq, predictor, stride=2), AlignmentOptions(max_iters=8))
    trace = np.array(result.energy_trace)
    assert np.all(np.isfinite(trace)) and np.all(np.diff(trace) <= 0)
    assert np.all(np.isfinite(result.scales))
    for pose, pm in zip(result.poses, result.pointmaps):
        assert np.all(np.isfinite(pose.rotation)) and np.all(np.isfinite(pose.translation))
        assert np.all(np.isfinite(pm.points))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 3),
    camera_path=st.sampled_from(_CAMERA_PATHS),
    size=st.sampled_from([(4, 4), (8, 10), (16, 20)]),
    frames=st.sampled_from([2, 3, 5]),
)
def test_noiseless_static_scenes_are_recovered_exactly(seed, camera_path, size, frames):
    seq = generate_scene(SceneConfig(seed=seed, frame_count=frames, height=size[0], width=size[1],
                                     object_count=0, camera_path=camera_path, track_count=0))
    result = global_align(build_pair_graph(seq, OraclePredictor(seq), stride=2))
    assert result.converged
    assert trajectory_metrics(result.poses, list(seq.poses)).ate <= 1e-6
