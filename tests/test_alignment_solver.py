"""Solver-layer checks of global alignment: the flat residual table against
an energy written out edge by edge, the reduced normal system against one
built from every row's explicit Jacobian, 2D rows only where a 3D row
reaches the pixel too, invariance to the row-chunk size, reuse of one chi
elimination across damping tries, the memory of one step, and property tests
of monotone, finite solves and of exact recovery on noiseless static scenes."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _iterate,
    _lm_step,
    _normal_system,
)
from pointmatch.config import RunConfig
from pointmatch.geometry import EPS_Z, Intrinsics, Pointmap, project_points
from pointmatch.errors import EmptyDomainError
from pointmatch.matching import dynamic_mask
from pointmatch.metrics import trajectory_metrics
from pointmatch.pipelines import OraclePredictor, PairPrediction
from pointmatch.scenes import _CAMERA_PATHS, SceneConfig, generate_scene

DELTA = 1e-6  # pseudo-Huber scale of both energy terms
W3D = 1.0 + np.exp(1.0)  # the weight of every 3D row


def rho(r):
    return np.sqrt((r * r).sum(axis=-1) + DELTA**2) - DELTA


def reference_energy(edges, intrinsics, v, opts):
    """E3d + E2d of the alignment module docstring, one (pred, mask) edge at
    a time; an edge's mask, where it has one, takes its pixels out of E2d."""
    total, scales = 0.0, np.exp(v.log_scales)
    for ei, (p, mask) in enumerate(edges):
        i, j = p.frames
        r_i, t_i, k = v.rotations[i], v.translations[i], intrinsics[i]
        for f, pm in ((i, p.x_ii), (j, p.x_ji)):
            mapped = (scales[ei] * pm.points[pm.valid]) @ r_i.T + t_i
            total += W3D * float(rho(v.pointmaps[f][pm.valid] - mapped).sum())
        m = p.x_ji_matched
        static = m.valid & p.x_ji.valid & (m.points[..., 2] > EPS_Z)
        if mask is not None:
            static &= ~mask
        target = project_points(m.points[static], k)[0]
        y = (v.pointmaps[j][static] - t_i) @ r_i  # R_i^T (chi_j - t_i), row form
        front = y[:, 2] > EPS_Z
        total += opts.lambda_2d * float(rho(project_points(y[front], k)[0] - target[front]).sum())
    return total


def segment_pixels(rows, s):
    """Segment s's rows' pixels in the frames' stacked maps, frame * pixels
    + pixel, read off its mask."""
    return rows.frame[s] * rows.mask[s].size + np.flatnonzero(rows.mask[s])


def table_pixels(rows):
    """Every row's pixel in the frames' stacked maps, in table order."""
    return np.concatenate([segment_pixels(rows, s) for s in range(len(rows.mask))])


def handmade(use_dynamic_mask=True):
    """A problem of four 4x5 frames, its edges and variables; each edge with
    a valid pixel has a mask under use_dynamic_mask, and the draws are the
    same either way. At the variables the 2D rows of edge (1, 2) all lie
    behind camera 1, those of edge (2, 3) half behind camera 2; edge (0, 3)
    has no valid pixel, and pixel (0, 0) of frame 2 is reached by no term."""
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
        rng.normal(size=(2, h, w))  # two grids drawn, so later draws keep their values
        pred = PairPrediction((i, j), pm(valid), pm(valid), pm(valid))
        mask = rng.random((h, w)) < 0.3
        return pred, mask if use_dynamic_mask and valid.any() else None

    edges = [edge(0, 1, full), edge(1, 2, hole), edge(2, 3, hole), edge(0, 3, none)]
    ego = [pm(full), pm(full), pm(hole), pm(full)]
    problem = AlignmentProblem([k] * 4, ego, edges)
    v = AlignmentVariables(
        np.array([rodrigues(w) for w in 0.05 * rng.normal(size=(4, 3))]),
        0.05 * rng.normal(size=(4, 3)),
        0.1 * rng.normal(size=4), rng.normal(scale=0.3, size=(4, h, w, 3)) + [0.0, 0.0, 2.0],
    )
    v.pointmaps[2, ..., 2] -= 4.0
    v.pointmaps[3, : h // 2, :, 2] -= 4.0
    return problem, edges, v


def pair_graph_edges(seq, predictor, stride, use_dynamic_mask=True):
    """The edges build_pair_graph renders, as a list of (pred, mask) pairs,
    and the ego maps."""
    n = seq.frame_count
    gap = 1 if stride >= n else stride + 1
    edges = []
    for i in range(n):
        for j in range(i + 1, min(i + gap, n - 1) + 1):
            pred, mask = predictor.predict(i, j), None
            if use_dynamic_mask:
                try:
                    mask = dynamic_mask(pred.x_ji_matched, pred.x_ji).mask
                except EmptyDomainError:
                    pass
            edges.append((pred, mask))
    return edges, [predictor.predict(f, f).x_ii for f in range(n)]


def noisy_scene_problem(use_dynamic_mask=True):
    seq = generate_scene(SceneConfig(seed=2, frame_count=4, height=8, width=10, object_count=2,
                                     motion_magnitude=0.1, track_count=0))
    predictor = OraclePredictor(seq, sigma_point=0.01, sigma_scale=0.1, seed=3)
    problem = build_pair_graph(seq, predictor, stride=2, use_dynamic_mask=use_dynamic_mask)
    edges, _ = pair_graph_edges(seq, predictor, stride=2, use_dynamic_mask=use_dynamic_mask)
    rng = np.random.default_rng(1)
    v = alignment._init_pairwise(problem)
    turns = 0.02 * rng.normal(size=(len(v.rotations), 3))
    v.rotations = np.array([rodrigues(w) for w in turns]) @ v.rotations
    v.pointmaps += 0.02 * rng.normal(size=v.pointmaps.shape)
    return problem, edges, v


def test_handmade_problem_covers_the_corner_cases():
    problem, edges, v = handmade(use_dynamic_mask=False)

    def depths(edge):  # of the edge's 2D rows in its camera i
        p, _ = edge
        i, j = p.frames
        d = v.pointmaps[j][p.x_ji_matched.valid] - v.translations[i]
        return (d @ v.rotations[i])[:, 2]

    assert np.all(depths(edges[0]) > EPS_Z)
    assert depths(edges[1]).size and np.all(depths(edges[1]) <= EPS_Z)
    assert np.any(depths(edges[2]) <= EPS_Z) and np.any(depths(edges[2]) > EPS_Z)
    assert not edges[3][0].x_ii.valid.any()
    # pixel (0, 0) of frame 2 (index frame * pixels + pixel) is in no row
    pres = _iterate(problem, v, AlignmentOptions(lambda_2d=0.5)).rows
    assert all(2 * (4 * 5) + 0 not in table_pixels(rows) for rows in pres)


def test_a_matched_pixel_without_a_3d_row_gets_no_2d_row():
    problem, edges, v = handmade(use_dynamic_mask=False)
    # edge (0, 1)'s matched head stays valid where its x_ji is not; frame 1's
    # pixel (0, 0) lies in edge (1, 2)'s hole too, so no 3D row reaches it
    pred, mask = edges[0]
    x_ji = pred.x_ji.valid.copy()
    x_ji[0, 0] = x_ji[2, 3] = False
    edges[0] = dataclasses.replace(pred, x_ji=Pointmap(pred.x_ji.points, x_ji)), mask
    assert pred.x_ji_matched.valid.all()
    problem = AlignmentProblem(problem.intrinsics, problem.ego_maps, edges)
    opts = AlignmentOptions(lambda_2d=0.5)
    rows3, rows2 = _iterate(problem, v, opts).rows
    seg = int(np.flatnonzero(rows2.edge == 0)[0])
    pulled = segment_pixels(rows2, seg) - 1 * 20  # frame 1's pixels
    np.testing.assert_array_equal(pulled, np.flatnonzero(x_ji))
    assert all(1 * 20 + 0 not in table_pixels(rows) for rows in (rows3, rows2))
    system = _normal_system(problem, v, opts)
    assert np.all(np.isfinite(system.k_chi))
    result = global_align(problem, dataclasses.replace(opts, max_iters=8))
    assert result.iterations >= 1 and np.all(np.isfinite(result.energy_trace))
    assert np.all(np.isfinite(result.variables.pointmaps))


def test_a_frame_without_rows_keeps_its_initial_map():
    # pair (1, 2) of a 3-frame scene has no valid x_ji or matched pixel, so
    # no row pulls frame 2: its pixels get inert unit chi blocks and the
    # solve leaves its map where the initialization put it
    seq = generate_scene(SceneConfig(seed=0, frame_count=3, height=8, width=10, track_count=0))
    edges, ego = pair_graph_edges(seq, OraclePredictor(seq, sigma_point=0.01, sigma_scale=0.05),
                                  stride=5, use_dynamic_mask=False)
    assert [p.frames for p, _ in edges] == [(0, 1), (1, 2)]
    none = Pointmap(np.zeros((8, 10, 3)), np.zeros((8, 10), bool))
    p, mask = edges[1]
    edges[1] = PairPrediction(p.frames, p.x_ii, none, none), mask
    problem = AlignmentProblem(list(seq.intrinsics), ego, edges)
    assert all(2 not in rows.frame for rows in problem.rows)
    start = alignment._init_pairwise(problem)
    result = global_align(problem, AlignmentOptions(max_iters=8))
    trace = np.array(result.energy_trace)
    assert result.iterations >= 1 and np.all(np.isfinite(trace)) and np.all(np.diff(trace) <= 0)
    np.testing.assert_array_equal(result.variables.pointmaps[2], start.pointmaps[2])


def test_segment_pixels_are_a_bool_mask_of_the_frame_grid():
    # a segment holds its pixels as one byte per pixel of its frame's grid,
    # one row per True pixel, and the chunks read them back in table order
    problem, _, _ = noisy_scene_problem()
    for rows in problem.rows:
        assert len(rows.mask) == len(rows.frame) > 0
        for s, mask in enumerate(rows.mask):
            assert mask.dtype == bool and mask.shape == (8, 10)
            assert mask.sum() == rows.start[s + 1] - rows.start[s] == len(rows.data[s])
        end = rows.start[-1]
        pix, _ = alignment._chunk(rows, 0, end, range(len(rows.mask)))
        np.testing.assert_array_equal(pix, table_pixels(rows))
        assert pix.dtype == np.intp


def test_row_pixels_are_frame_masks():
    problem, _, v = handmade()
    pres = _iterate(problem, v, AlignmentOptions()).rows
    assert all(m.dtype == bool and m.shape == (4, 5) for rows in pres for m in rows.mask)


def test_streamed_and_listed_edges_build_one_problem():
    # the pair graph streams its edges into the problem; the same edges
    # handed over as a list give the same rows and a bit-equal solve, with
    # and without the dynamic mask
    seq = generate_scene(SceneConfig(seed=1, frame_count=5, height=16, width=20, object_count=2,
                                     motion_magnitude=0.1, track_count=0))

    def oracle():
        return OraclePredictor(seq, sigma_point=0.01, sigma_scale=0.05, seed=4)

    def raw(arrays):
        return [(a.dtype, a.shape, a.tobytes()) for a in arrays]

    def table(rows):
        return sum(a.nbytes for col in (rows.mask, rows.data) for a in col)

    for use_dynamic_mask in (True, False):
        edges, ego = pair_graph_edges(seq, oracle(), stride=2, use_dynamic_mask=use_dynamic_mask)
        listed = AlignmentProblem(list(seq.intrinsics), ego, edges)
        tracemalloc.start()  # after the listed build, so first-use costs stay out
        try:
            before = tracemalloc.get_traced_memory()[0]
            streamed = build_pair_graph(seq, oracle(), stride=2, use_dynamic_mask=use_dynamic_mask)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

        assert streamed.edges == listed.edges
        for a, b in zip(streamed.rows, listed.rows):
            assert all(raw(x) == raw(y) for x, y in zip(a[:2], b[:2]))  # masks, data
            assert raw(a[2:]) == raw(b[2:])  # start, frame, pose, edge, cols
        opts = AlignmentOptions(max_iters=5)
        a, b = global_align(streamed, opts), global_align(listed, opts)
        assert a.iterations > 1 and (a.iterations, a.converged) == (b.iterations, b.converged)
        assert a.energy_trace == b.energy_trace
        for field in ("rotations", "translations", "log_scales", "pointmaps"):
            np.testing.assert_array_equal(getattr(a.variables, field), getattr(b.variables, field))

        # the problem keeps its rows and ego maps, and no edge's maps: beyond
        # those arrays it retains only containers, far less than the edges'
        # heads
        heads = sum(m.points.nbytes + m.valid.nbytes
                    for p, _ in edges for m in (p.x_ii, p.x_ji, p.x_ji_matched))
        own = sum(map(table, streamed.rows))
        own += sum(m.points.nbytes + m.valid.nbytes for m in streamed.ego_maps)
        assert own <= retained < own + heads / 4, (own, retained, heads)
        # a 3D row holds its point, 24 bytes, and its segment a mask of one
        # byte a pixel
        rows3 = streamed.rows[0]
        pixels = sum(m.size for m in rows3.mask)
        assert table(rows3) == 24 * rows3.start[-1] + pixels, (table(rows3), rows3.start[-1])


def test_masked_rows_are_selected_without_a_copy():
    # the dynamic mask takes its pixels out when the pair graph is built: the
    # masked 2D table is the unmasked one less each edge's masked pixels, in
    # table order, its 3D table is the unmasked one, and the iterate hands
    # the problem's tables to a solve without copying a row
    seq = generate_scene(SceneConfig(seed=0, frame_count=5, height=16, width=20, object_count=2,
                                     motion_magnitude=0.1, track_count=0))
    predictor = OraclePredictor(seq, sigma_point=0.01, seed=1)
    problem = build_pair_graph(seq, predictor, stride=2)
    unmasked = build_pair_graph(seq, predictor, stride=2, use_dynamic_mask=False)
    v = alignment._init_pairwise(problem)
    assert _iterate(problem, v, AlignmentOptions(lambda_2d=0.5)).rows is problem.rows
    (rows3, rows2), (all3, all2) = problem.rows, unmasked.rows
    for a, b in zip(rows3[:2], all3[:2]):  # each segment's mask and data
        assert len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
    for a, b in zip(rows3[2:], all3[2:]):  # start, frame, pose, edge, cols
        np.testing.assert_array_equal(a, b)

    static = []  # per unmasked 2D segment: its rows outside its edge's mask
    for s, e in enumerate(all2.edge):
        pred = predictor.predict(*problem.edges[e])
        mask = dynamic_mask(pred.x_ji_matched, pred.x_ji).mask
        static.append(~mask[all2.mask[s]])
    assert sum(k.all() for k in static) < len(static) and any(k.any() for k in static)
    kept = [s for s, k in enumerate(static) if k.any()]
    for col in ("frame", "pose", "edge", "cols"):
        np.testing.assert_array_equal(getattr(rows2, col), getattr(all2, col)[kept])
    all_pix = [segment_pixels(all2, s) for s in range(len(all2.mask))]
    want = [np.concatenate([col[s][k] for s, k in enumerate(static) if k.any()])
            for col in (all_pix, all2.data)]
    np.testing.assert_array_equal(table_pixels(rows2), want[0])
    assert rows2.start[-1] == len(want[0])
    for lo in range(0, rows2.start[-1], 37):  # cuts across segments
        hi = min(lo + 37, rows2.start[-1])
        segs = np.searchsorted(rows2.start, [lo, hi - 1], side="right") - 1
        pix, data = alignment._chunk(rows2, lo, hi, range(segs[0], segs[1] + 1))
        np.testing.assert_array_equal(pix, want[0][lo:hi])
        np.testing.assert_array_equal(data, want[1][lo:hi])


@pytest.mark.parametrize("lambda_2d", [0.0, 0.5])
@pytest.mark.parametrize("use_dynamic_mask", [True, False], ids=["masked", "unmasked"])
@pytest.mark.parametrize("make", [handmade, noisy_scene_problem], ids=["handmade", "scene"])
def test_energy_matches_the_edge_by_edge_reference(make, use_dynamic_mask, lambda_2d):
    problem, edges, v = make(use_dynamic_mask)
    assert any(mask is not None for _, mask in edges) == use_dynamic_mask
    opts = AlignmentOptions(lambda_2d=lambda_2d)
    want = reference_energy(edges, problem.intrinsics, v, opts)
    assert want > 0
    assert abs(alignment_energy(problem, v, opts) - want) <= 1e-12 * want


def skew(a):
    return np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])


def reference_system(edges, intrinsics, v, opts):
    """The reduced system of the alignment module docstring's energy, built
    row by row: every residual's Jacobian over all unknowns (cameras as
    [rotation, translation] per frame, then one log-scale per edge; then chi)
    as an explicit matrix, J^T U J and J^T U r summed over rows, and chi
    eliminated densely. Pixels no term reaches get a unit chi block, and an
    edge's mask, where it has one, takes its pixels out of the 2D rows."""
    n, (h, w) = len(v.rotations), v.pointmaps.shape[1:3]
    dim, scales = 6 * n + len(edges), np.exp(v.log_scales)
    hess, grad = np.zeros((dim + 3 * n * h * w,) * 2), np.zeros(dim + 3 * n * h * w)

    def add(jac, r, weight, frame, pixels, pose, edge):
        # jac: per row, d r / d [rotation, translation, log-scale, chi]
        for jr, rr, wt, px in zip(jac, r, weight, pixels):
            u = wt / np.sqrt(rr @ rr + DELTA**2)
            cols = [*range(6 * pose, 6 * pose + 6), 6 * n + edge,
                    *range(dim + 3 * (frame * h * w + px), dim + 3 * (frame * h * w + px) + 3)]
            hess[np.ix_(cols, cols)] += u * jr.T @ jr
            grad[cols] += u * jr.T @ rr

    for ei, (p, mask) in enumerate(edges):
        i, j = p.frames
        r_i, t_i, k = v.rotations[i], v.translations[i], intrinsics[i]
        for f, pm in ((i, p.x_ii), (j, p.x_ji)):
            a = (scales[ei] * pm.points[pm.valid]) @ r_i.T
            r = v.pointmaps[f][pm.valid] - a - t_i
            jac = [np.hstack([skew(x), -np.eye(3), -x[:, None], np.eye(3)]) for x in a]
            add(jac, r, np.full(len(r), W3D), f, np.flatnonzero(pm.valid), i, ei)
        if opts.lambda_2d == 0:
            continue
        m = p.x_ji_matched
        static = m.valid & p.x_ji.valid & (m.points[..., 2] > EPS_Z)
        if mask is not None:
            static &= ~mask
        target = project_points(m.points[static], k)[0]
        d = v.pointmaps[j][static] - t_i
        y = d @ r_i
        front = y[:, 2] > EPS_Z
        jac = []
        for dd, (y0, y1, z) in zip(d[front], y[front]):
            proj = np.array([[k.fx / z, 0.0, -k.fx * y0 / z**2],
                             [0.0, k.fy / z, -k.fy * y1 / z**2]])
            j_chi = proj @ r_i.T
            jac.append(np.hstack([j_chi @ skew(dd), -j_chi, np.zeros((2, 1)), j_chi]))
        r = project_points(y[front], k)[0] - target[front]
        add(jac, r, np.full(len(r), opts.lambda_2d), j, np.flatnonzero(static)[front], i, ei)

    chi = hess[dim:, dim:]
    for q in range(0, len(chi), 3):  # unit blocks where no term reaches
        if not chi[q:q + 3, q:q + 3].any():
            chi[q:q + 3, q:q + 3] = np.eye(3)
    k_chi = np.linalg.inv(chi)
    h, g, coupling, g_chi = hess[:dim, :dim], grad[:dim], hess[dim:, :dim], grad[dim:]
    return dict(h=h, g=g, reduced_h=h - coupling.T @ k_chi @ coupling,
                reduced_g=g - coupling.T @ k_chi @ g_chi,
                k_chi=np.array([k_chi[q:q + 3, q:q + 3] for q in range(0, len(chi), 3)]),
                g_chi=g_chi)


@pytest.mark.parametrize("lambda_2d", [0.0, 0.5])
@pytest.mark.parametrize("use_dynamic_mask", [True, False], ids=["masked", "unmasked"])
@pytest.mark.parametrize("make", [handmade, noisy_scene_problem], ids=["handmade", "scene"])
def test_reduced_system_matches_a_dense_jacobian_reference(make, use_dynamic_mask, lambda_2d):
    problem, edges, v = make(use_dynamic_mask)
    assert any(mask is not None for _, mask in edges) == use_dynamic_mask
    opts = AlignmentOptions(lambda_2d=lambda_2d)
    want = reference_system(edges, problem.intrinsics, v, opts)
    system = _normal_system(problem, v, opts)
    got = dict(h=system.h, g=system.g, reduced_h=system.h - system.schur,
               reduced_g=system.g - system.g_schur, k_chi=system.k_chi.reshape(-1, 3, 3),
               g_chi=system.g_chi.ravel())
    for name, ref in want.items():
        err = np.abs(got[name] - ref).max()
        assert err <= 1e-12 * np.abs(ref).max(), (name, err, np.abs(ref).max())


def test_row_chunk_size_leaves_the_solve_unchanged(monkeypatch):
    problem, _, _ = noisy_scene_problem()
    opts = AlignmentOptions(lambda_2d=0.5, max_iters=12)

    def solve():
        v = alignment._init_pairwise(problem)
        pres = _iterate(problem, v, opts).rows
        energy, system = _energy(problem, v, opts), _normal_system(problem, v, opts)
        step = _lm_step(v, system, 1e-3)
        return pres, energy, system, step, global_align(problem, opts)

    pres, energy, system, step, result = solve()
    assert result.iterations > 1
    monkeypatch.setattr(alignment, "_CHUNK_ROWS", 7)
    # 7-row chunks split segments of each term, and so edges and frames
    assert all(np.diff(rows.start).max() > 7 for rows in pres)
    _, energy7, system7, step7, result7 = solve()

    def same(a, b):
        return np.abs(a - b).max() <= 1e-12 * np.abs(a).max()

    assert abs(energy7 - energy) <= 1e-12 * energy
    for field in ("h", "g", "schur", "g_schur", "k_chi", "g_chi"):
        assert same(getattr(system, field), getattr(system7, field)), field
    for field in ("rotations", "translations", "log_scales", "pointmaps"):
        assert same(getattr(step, field), getattr(step7, field)), field
    assert (result7.iterations, result7.converged) == (result.iterations, result.converged)
    assert same(np.array(result.energy_trace), np.array(result7.energy_trace))


def test_every_damping_try_reads_the_rows_once_from_one_elimination(monkeypatch):
    problem, _, _ = noisy_scene_problem()
    opts = AlignmentOptions(lambda_2d=0.5)
    v = alignment._init_pairwise(problem)
    dampings = (1e-3, 1e-2, 1e-1, 1.0)
    want = {d: _lm_step(v, _normal_system(problem, v, opts), d) for d in dampings}
    system = _normal_system(problem, v, opts)
    reads = []
    jacobian_rows = alignment._jacobian_rows
    monkeypatch.setattr(alignment, "_jacobian_rows",
                        lambda *args, **kw: reads.append(args[1]) or jacobian_rows(*args, **kw))
    n = len(problem.ego_maps)
    for damping in dampings:
        reads.clear()
        step = _lm_step(v, system, damping)
        assert reads == [(0, n)], damping  # the back-substitution alone
        for field in ("rotations", "translations", "log_scales", "pointmaps"):
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
    for pose in result.poses:
        assert np.all(np.isfinite(pose.rotation)) and np.all(np.isfinite(pose.translation))
    assert np.all(np.isfinite(result.variables.pointmaps))
    rot = result.variables.rotations
    assert np.abs(rot @ rot.transpose(0, 2, 1) - np.eye(3)).max() <= 1e-12


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
