import dataclasses

import numpy as np
import pytest

from pointmatch import alignment
from pointmatch.alignment import (
    AlignmentOptions,
    AlignmentProblem,
    AlignmentVariables,
    alignment_energy,
    build_pair_graph,
    global_align,
    rodrigues,
    _energy,
    _normal_system,
    _prepare,
)
from pointmatch.config import RunConfig
from pointmatch.errors import DivergenceError
from pointmatch.geometry import ConfidenceMap, Intrinsics, Pointmap
from pointmatch.matching import dynamic_mask
from pointmatch.metrics import trajectory_metrics
from pointmatch.pipelines import OraclePredictor, PairPrediction
from pointmatch.scenes import SceneConfig, generate_scene, world_points


def small_scene(seed=0, frames=3, h=8, w=12, objects=1, cam="orbit", cam_mag=0.02):
    cfg = SceneConfig(
        seed=seed,
        frame_count=frames,
        height=h,
        width=w,
        object_count=objects,
        camera_path=cam,
        camera_magnitude=cam_mag,
        track_count=4,
    )
    return generate_scene(cfg)


def gt_variables(seq, problem):
    n = seq.frame_count
    rot = np.array([seq.poses[f].rotation.T for f in range(n)])
    tr = np.array([seq.poses[f].center for f in range(n)])
    chi = np.array([world_points(seq, f) for f in range(n)])
    chi[~np.array([d.valid for d in seq.depths])] = 0.0
    return AlignmentVariables(rot, tr, np.zeros(len(problem.edges)), chi)


# ---------------------------------------------------------------- rotations


def test_rodrigues_identity():
    assert np.array_equal(rodrigues(np.zeros(3)), np.eye(3))


def test_rodrigues_quarter_turn_z():
    r = rodrigues(np.array([0.0, 0.0, np.pi / 2]))
    assert np.allclose(r @ np.array([1.0, 0, 0]), [0, 1, 0], atol=1e-12)


# ---------------------------------------------------------------- pair graph


def test_pair_graph_gap_rule():
    seq = small_scene(frames=6)
    problem = build_pair_graph(seq, OraclePredictor(seq), stride=2)
    got = {(e.i, e.j) for e in problem.edges}
    want = {(i, j) for i in range(6) for j in range(i + 1, min(i + 3, 5) + 1)}
    assert got == want


def test_pair_graph_large_stride_degrades_to_adjacent():
    seq = small_scene(frames=4)
    problem = build_pair_graph(seq, OraclePredictor(seq), stride=9)
    assert {(e.i, e.j) for e in problem.edges} == {(0, 1), (1, 2), (2, 3)}


def test_pair_graph_rejects_bad_stride():
    seq = small_scene(frames=3)
    with pytest.raises(ValueError):
        build_pair_graph(seq, OraclePredictor(seq), stride=0)


def test_pair_graph_has_masks_and_ego_maps(monkeypatch):
    seq = small_scene(frames=4)
    masks = []  # one per edge whose mask dynamic_mask could threshold

    def recorded(*maps):
        masks.append(dynamic_mask(*maps))
        return masks[-1]

    monkeypatch.setattr(alignment, "dynamic_mask", recorded)
    problem = build_pair_graph(seq, OraclePredictor(seq), stride=2)
    assert len(problem.ego_maps) == 4
    assert len(masks) == len(problem.edges)


def test_unmasked_pair_graph_thresholds_no_mask(monkeypatch):
    seq = small_scene(frames=4)
    calls = []
    monkeypatch.setattr(alignment, "dynamic_mask", lambda *maps: calls.append(maps))
    problem = build_pair_graph(seq, OraclePredictor(seq), stride=2, use_dynamic_mask=False)
    assert len(problem.edges) == 6 and calls == []


def test_disconnected_graph_rejected():
    seq = small_scene(frames=4)
    problem = build_pair_graph(seq, OraclePredictor(seq), stride=1)
    kept = [e for e in problem.edges if (e.i, e.j) not in ((1, 2), (0, 2), (1, 3))]
    oracle = OraclePredictor(seq)
    with pytest.raises(ValueError, match="disconnected"):
        AlignmentProblem(problem.intrinsics, problem.ego_maps,
                         [(oracle.predict(*e), None) for e in kept])


def test_problem_rejects_zero_frames():
    with pytest.raises(ValueError, match="n >= 1"):
        AlignmentProblem([], [], [])


def _grid_problem(ego_shapes, edge_shape, pair=(0, 1), **edge_shapes):
    """A 2-frame problem of one edge, the prediction of pair; edge_shapes
    overrides one grid of the edge by field."""

    def pm(shape):
        return Pointmap(np.ones(shape + (3,)), np.ones(shape, dtype=bool))

    def grid(name):
        return edge_shapes.get(name, edge_shape)

    k = Intrinsics(fx=10.0, fy=10.0, cx=2.0, cy=1.5)
    pred = PairPrediction(
        frames=pair,
        x_ii=pm(grid("x_ii")),
        x_ji=pm(grid("x_ji")),
        x_ji_matched=pm(grid("x_ji_matched")),
        conf_ii=ConfidenceMap.uniform(grid("conf_ii")),
        conf_ji=ConfidenceMap.uniform(grid("conf_ji")),
    )
    return AlignmentProblem([k, k], [pm(s) for s in ego_shapes],
                            [(pred, np.zeros(grid("mask"), dtype=bool))])


@pytest.mark.parametrize(
    "ego_shapes, edge_shape, overrides, match",
    [
        (((4, 5), (4, 5)), (3, 5), {}, "resolution"),
        (((4, 5), (4, 5)), (4, 4), {}, "resolution"),
        (((4, 5), (4, 5)), (4, 6), {}, "resolution"),
        (((4, 5), (4, 5)), (4, 5), {"x_ji_matched": (3, 5)}, "resolution"),
        (((4, 5), (4, 5)), (4, 5), {"conf_ji": (4, 6)}, "resolution"),
        (((4, 5), (4, 5)), (4, 5), {"mask": (4, 4)}, "resolution"),
        (((4, 5), (4, 6)), (4, 5), {}, "resolution"),
        # an edge's frames are its prediction's, named by the message
        (((4, 5), (4, 5)), (4, 5), {"pair": (0, 0)}, r"edge \(0, 0\) must join two distinct"),
        (((4, 5), (4, 5)), (4, 5), {"pair": (0, 5)}, r"edge \(0, 5\) must join two distinct"),
    ],
    ids=["edge-3x5", "edge-4x4", "edge-4x6", "matched-3x5", "conf-4x6", "mask-4x4",
         "ego-4x5-4x6", "pair-0-0", "pair-0-5"],
)
def test_problem_rejects_mismatched_resolutions(ego_shapes, edge_shape, overrides, match):
    _grid_problem(((4, 5), (4, 5)), (4, 5))  # one resolution throughout is a problem
    with pytest.raises(ValueError, match=match):
        _grid_problem(ego_shapes, edge_shape, **overrides)


# ---------------------------------------------------------------- energy


def test_energy_at_ground_truth_is_tiny():
    seq = small_scene(frames=4, h=12, w=16, objects=2)
    problem = build_pair_graph(seq, OraclePredictor(seq), stride=2)
    v = gt_variables(seq, problem)
    assert alignment_energy(problem, v) <= 1e-9


def test_energy_increases_under_pose_perturbation():
    seq = small_scene(frames=4, h=12, w=16)
    problem = build_pair_graph(seq, OraclePredictor(seq), stride=2)
    v = gt_variables(seq, problem)
    base = alignment_energy(problem, v)
    v.translations[1] += np.array([1e-3, 0.0, 0.0])
    assert alignment_energy(problem, v) > base + 1e-4


def test_2d_term_is_nonnegative_addition():
    seq = small_scene(frames=3, h=12, w=16)
    problem = build_pair_graph(seq, OraclePredictor(seq, sigma_point=0.02, seed=5), stride=2)
    v = gt_variables(seq, problem)
    with_2d = alignment_energy(problem, v, AlignmentOptions(lambda_2d=0.05))
    without = alignment_energy(problem, v, AlignmentOptions(lambda_2d=0.0))
    assert without < with_2d


@pytest.mark.parametrize("field, bad", [
    ("rotations", lambda a: a[:, :, 0]),  # the shape of rotation vectors
    ("translations", lambda a: a[:2]),
    ("log_scales", lambda a: a[:1]),
    ("pointmaps", lambda a: a[:, :3]),
], ids=["rotations", "translations", "log_scales", "pointmaps"])
def test_energy_rejects_variables_of_another_shape_or_not_finite(field, bad):
    seq = small_scene(frames=3, h=6, w=8)
    problem = build_pair_graph(seq, OraclePredictor(seq), stride=2)
    v = gt_variables(seq, problem)
    assert np.isfinite(alignment_energy(problem, v))
    with pytest.raises(ValueError, match=f"{field} must have shape"):
        alignment_energy(problem, dataclasses.replace(v, **{field: bad(getattr(v, field))}))
    inf = getattr(v, field).copy()
    inf.flat[-1] = np.inf
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        alignment_energy(problem, dataclasses.replace(v, **{field: inf}))


def test_energy_gradient_matches_finite_differences():
    seq = small_scene(frames=3, h=6, w=8, objects=1)
    problem = build_pair_graph(seq, OraclePredictor(seq), stride=2)
    opts = AlignmentOptions(lambda_2d=0.05)
    pres = _prepare(problem, opts)
    v = gt_variables(seq, problem)
    rng = np.random.default_rng(11)
    v.rotations = np.array([rodrigues(w) for w in 0.05 * rng.normal(size=(3, 3))]) @ v.rotations
    v.translations += 0.05 * rng.normal(size=v.translations.shape)
    v.log_scales += 0.1 * rng.normal(size=v.log_scales.shape)
    v.pointmaps += 0.05 * rng.normal(size=v.pointmaps.shape)

    system = _normal_system(problem, pres, v, opts)
    n = len(problem.ego_maps)
    # the analytic gradient of each probed entry: rotation k of frame f at
    # 6f + k, its translation at 6f + 3 + k, edge e's log-scale at 6n + e
    analytic = {
        "rotations": lambda f, k: system.g[6 * f + k],
        "translations": lambda f, k: system.g[6 * f + 3 + k],
        "log_scales": lambda e: system.g[6 * n + e],
        "pointmaps": lambda *px: system.g_chi.reshape(v.pointmaps.shape)[px],
    }

    def moved(field, index, h):
        out = v.copy()
        if field == "rotations":  # a left perturbation, R <- exp([h e_k]x) R
            f, k = index
            out.rotations[f] = rodrigues(h * np.eye(3)[k]) @ v.rotations[f]
        else:
            getattr(out, field)[index] += h
        return out

    def probe(field, index):
        h = 1e-6
        ep = _energy(problem, pres, moved(field, index, h), opts)
        em = _energy(problem, pres, moved(field, index, -h), opts)
        return (ep - em) / (2 * h)

    checks = []
    for f in range(3):
        for k in range(3):
            checks.append(("rotations", (f, k)))
            checks.append(("translations", (f, k)))
    for e in range(len(problem.edges)):
        checks.append(("log_scales", (e,)))
    for _ in range(12):
        f = int(rng.integers(0, 3))
        y = int(rng.integers(0, 6))
        x = int(rng.integers(0, 8))
        c = int(rng.integers(0, 3))
        checks.append(("pointmaps", (f, y, x, c)))

    for field, index in checks:
        fd = probe(field, index)
        an = float(analytic[field](*index))
        err = abs(an - fd) / max(abs(fd), 1e-8)
        assert err < 1e-4, (field, index, an, fd)


# ---------------------------------------------------------------- solving


def test_noiseless_alignment_recovers_trajectory():
    seq = small_scene(seed=2, frames=5, h=16, w=20, objects=2)
    problem = build_pair_graph(seq, OraclePredictor(seq), stride=2)
    result = global_align(problem)
    assert result.converged
    report = trajectory_metrics(result.poses, list(seq.poses))
    assert report.ate <= 1e-6
    assert np.allclose(result.scales, 1.0, atol=1e-6)
    assert result.energy_trace[-1] <= 1e-9


def test_trajectory_extraction_matches_result():
    seq = small_scene(frames=3)
    problem = build_pair_graph(seq, OraclePredictor(seq), stride=1)
    result = global_align(problem)
    traj = result.poses
    assert len(traj) == 3
    assert all(
        np.array_equal(a.rotation, b.rotation) for a, b in zip(traj, result.poses)
    )


def test_pairwise_init_descends_monotonically():
    seq = small_scene(seed=4, frames=3, h=8, w=12, objects=1)
    problem = build_pair_graph(seq, OraclePredictor(seq, sigma_scale=0.1, seed=1), stride=2)
    opts = AlignmentOptions(max_iters=150)
    result = global_align(problem, opts)
    trace = np.array(result.energy_trace)
    assert np.all(np.diff(trace) <= 0)
    assert trace[-1] < 0.2 * trace[0]
    assert result.iterations > 0


def test_jittered_scales_recovered():
    seq = small_scene(seed=6, frames=5, h=12, w=16, objects=1)
    predictor = OraclePredictor(seq, sigma_scale=0.1, seed=3)
    problem = build_pair_graph(seq, predictor, stride=3)
    result = global_align(problem, AlignmentOptions(max_iters=100))
    report = trajectory_metrics(result.poses, list(seq.poses))
    assert report.ate < 0.05
    spread = result.scales.max() / result.scales.min()
    assert spread > 1.05  # the per-edge scales really differ


def test_jittered_cli_default_scene_converges():
    # the CLI's default scene (24x32x6, seed 0) under --jitter 0.05, stride 5
    cfg = RunConfig()
    seq = generate_scene(cfg.scene_config())
    problem = build_pair_graph(seq, OraclePredictor(seq, sigma_scale=0.05), stride=cfg.stride)
    result = global_align(problem, cfg.alignment_options())
    assert result.converged
    assert trajectory_metrics(result.poses, list(seq.poses)).ate <= 1e-6
    rot = result.variables.rotations
    assert np.abs(rot @ rot.transpose(0, 2, 1) - np.eye(3)).max() <= 1e-12


def test_single_frame_problem_trivially_converged():
    seq = small_scene(frames=1)
    problem = build_pair_graph(seq, OraclePredictor(seq), stride=1)
    assert problem.edges == []
    result = global_align(problem)
    assert result.converged
    assert result.iterations == 0
    assert np.array_equal(result.poses[0].rotation, np.eye(3))


def test_masked_alignment_beats_unmasked_on_dynamic_scene():
    # Dynamic pixels feed the 2D reprojection term corrupted correspondences
    # (matched points carry object motion), so the unmasked arm drags poses.
    # lambda_2d must be large enough that the 2D term actually competes with
    # the 3D consistency weights; point noise small so the effect dominates.
    cfg = SceneConfig(
        seed=1,
        frame_count=5,
        height=16,
        width=20,
        object_count=3,
        motion_magnitude=0.2,
        camera_magnitude=0.02,
        track_count=4,
    )
    seq = generate_scene(cfg)
    predictor = OraclePredictor(seq, sigma_point=0.003, seed=1)
    opts = AlignmentOptions(max_iters=60, lambda_2d=0.5)
    masked = global_align(build_pair_graph(seq, predictor, stride=2), opts)
    unmasked = global_align(build_pair_graph(seq, predictor, stride=2, use_dynamic_mask=False),
                            opts)
    ate_masked = trajectory_metrics(masked.poses, list(seq.poses)).ate
    ate_unmasked = trajectory_metrics(unmasked.poses, list(seq.poses)).ate
    assert ate_masked <= ate_unmasked


def test_divergent_energy_raises():
    # two edges pull frame 0's map to +1e200 and -1e200: the pairwise init
    # starts it at their mean, 0, where each residual's square overflows
    h, w = 4, 6
    k = Intrinsics(fx=10.0, fy=10.0, cx=2.5, cy=1.5)
    ones = Pointmap(np.ones((h, w, 3)), np.ones((h, w), dtype=bool))
    conf = ConfidenceMap.uniform((h, w))

    def edge(x):
        far = Pointmap(np.full((h, w, 3), x), np.ones((h, w), dtype=bool))
        pred = PairPrediction(frames=(0, 1), x_ii=far, x_ji=ones, x_ji_matched=ones,
                              conf_ii=conf, conf_ji=conf)
        return pred, None

    problem = AlignmentProblem([k, k], [ones, ones], [edge(1e200), edge(-1e200)])
    with pytest.raises(DivergenceError):
        global_align(problem)


@pytest.mark.parametrize(
    "kwargs",
    [{"max_iters": 0}, {"tol": 0.0}, {"lambda_2d": -1.0}],
    ids=["max-iters-0", "tol-0", "negative-lambda-2d"],
)
def test_alignment_options_reject_invalid_values(kwargs):
    with pytest.raises(ValueError):
        AlignmentOptions(**kwargs)
