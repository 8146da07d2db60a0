"""Dynamic-mask-aware global alignment of pairwise pointmap predictions.

Variables: per-frame camera-to-world pose (rotation matrix + translation),
one log-scale per edge, and a free global pointmap per frame. The energy pulls
each frame's global pointmap toward every edge's evidence,

    E3d = w3d * sum_e sum_{v in {ii, ji}} sum_px rho(chi_v - (R_i (s_e x) + t_i))

with rho a pseudo-Huber penalty and w3d = 1 + e (`_WEIGHT_3D`) the weight of
every 3D row, plus a 2D term tying static pixels to the matched maps'
projected correspondences,

    E2d = lambda_2d * sum_e sum_{static px} rho2(project_points(R_i^T (chi_j - t_i)) - F_e)

The per-edge scale acts on camera-frame points before the rigid map, so frame
translations stay world-metric and the trajectory reads off the variables
directly. A static pixel's matched point is valid and in front of camera i,
at a pixel where the edge's x_ji is valid too; dynamic pixels (the per-edge
3x-median mask, when the pair graph is built with it) are excluded, as their
matched correspondences encode object motion, not camera motion. Both
penalties use one fixed scale, rho(r) = sqrt(|r|^2 + delta^2) - delta with
delta = 1e-6 (`_HUBER_DELTA`); it is not an option.

The solver is Levenberg-Marquardt on the IRLS-weighted residuals (Triggs et
al., "Bundle Adjustment - A Modern Synthesis", 2000). The residuals live in
two tables, one row per (edge, term, pixel), grouped by the frame whose map a
row pulls. AlignmentProblem builds them as it reads each edge, a pair
prediction and its mask, whose maps it then drops, so a problem holds its rows
and ego maps, one per frame, but no prediction. A 3D row holds its point, a 2D
row its matched pixel position, and each term has one weight for all its rows.
A segment's pixels are one bool mask over its frame's grid, one byte a pixel,
which each chunk turns into the row indices it reads.
An edge's masked pixels get no 2D row, so a solve reads every row of both
tables. Every pass over the rows takes a fixed number of numpy calls per chunk
of `_CHUNK_ROWS` rows, whatever the number of edges, and the system pass one
matrix product more per 2D segment. Each pixel's global point couples only to
its own residuals, so once per iteration its 3x3 block is eliminated,
undamped, by a Schur complement, one frame at a time in the pass that builds
the system. That pass writes every Jacobian out in closed form over whole
columns of rows: a 3D segment's camera terms come from its moments, a 2D
segment's camera block is one product of its Jacobian rows, each coupling is
scattered by its nonzeros, and each chi block is inverted by its adjugate; no
per-row matrix product or LAPACK inverse is taken. The damping acts on the
reduced system over poses and scales alone, so every try reuses that
elimination. Rotations step as R <- exp([dw]x) R (Sola et al., arXiv
1812.01537). A step is kept only if the energy drops, so the energy trace is
monotone. Frame 0's pose and the first edge's scale are pinned (gauge
freedom).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DivergenceError, EmptyDomainError, check_finite
from .geometry import EPS_Z, Intrinsics, Pointmap, Pose, project_points
from .matching import dynamic_mask
from .metrics import umeyama
from .pipelines import OraclePredictor, PairPrediction

_SMALL_ANGLE = 1e-7
# Levenberg-Marquardt damping: start, floor, and the ceiling past which a
# step that still raises the energy ends the run
_DAMPING_START, _DAMPING_MIN, _DAMPING_MAX = 1e-3, 1e-9, 1e8
_HUBER_DELTA = 1e-6  # pseudo-Huber scale of both energy terms
# every 3D row's weight: a DUSt3R confidence 1 + exp(u) at the uniform raw
# logit u = 1, which no predictor here varies per pixel
_WEIGHT_3D = 1.0 + np.exp(1.0)
_ABS_TOL = 1e-14  # energy below this is a solved problem


def _skew(w):
    """Cross-product matrices [w]x of (..., 3) vectors, shape (..., 3, 3)."""
    out = np.zeros(w.shape[:-1] + (3, 3))
    out[..., 0, 1], out[..., 0, 2], out[..., 1, 2] = -w[..., 2], w[..., 1], -w[..., 0]
    out[..., 1, 0], out[..., 2, 0], out[..., 2, 1] = w[..., 2], -w[..., 1], w[..., 0]
    return out


def rodrigues(w: np.ndarray) -> np.ndarray:
    """Rotation vector -> matrix, with a Taylor branch near zero."""
    w = np.asarray(w, dtype=np.float64)
    th2 = float(w @ w)
    k = _skew(w)
    if th2 < _SMALL_ANGLE**2:
        a = 1.0 - th2 / 6.0
        b = 0.5 - th2 / 24.0
    else:
        th = np.sqrt(th2)
        a = np.sin(th) / th
        b = (1.0 - np.cos(th)) / th2
    return np.eye(3) + a * k + b * (k @ k)


# a built problem's edge: its frames, its maps having become rows
EdgeIds = namedtuple("EdgeIds", "i j")


class AlignmentProblem:
    """Frames 0..n-1, one per ego map, with their intrinsics, and the
    residual rows of edges. An edge is a pair (pred, mask): the prediction
    of its frames (i, j) = pred.frames, and the (H, W) bool grid of the
    pixels that get no 2D row (None for no mask). An edge becomes its rows as
    it arrives and is dropped, so a generator of edges has one edge's maps
    alive at a time. Kept: `edges`, each edge's (i, j); `rows`, the 3D and 2D
    tables (see _Rows), the 2D rows every static candidate outside its edge's
    mask. Raises ValueError on zero frames, inputs that do not match, or a
    disconnected graph."""

    def __init__(self, intrinsics: list[Intrinsics], ego_maps: list[Pointmap],
                 edges: Iterable[tuple[PairPrediction, np.ndarray | None]]):
        n = len(ego_maps)
        if n == 0:
            raise ValueError("a problem needs n >= 1 frames, one per ego map")
        if len(intrinsics) != n:
            raise ValueError("intrinsics must match the frame count")
        res = {m.valid.shape for m in ego_maps}
        if len(res) > 1:
            raise ValueError("ego maps must share one resolution")
        self.intrinsics, self.ego_maps = list(intrinsics), list(ego_maps)
        self.edges, segs3, segs2 = [], [], []
        for seg_ii, seg_ji, seg2 in map(self._segments, edges):  # map drops each edge
            segs3 += seg_ii, seg_ji
            segs2.append(seg2)
        if len(_spanning_tree(self.edges)) < n - 1:
            raise ValueError("pair graph is disconnected")
        self.rows = _table(segs3, n), _table(segs2, n)

    def _segments(self, edge: tuple[PairPrediction, np.ndarray | None]) -> list:
        """Checked edge's x_ii, x_ji and 2D segments; notes its (i, j)."""
        p, dyn = edge
        (i, j), n, res = p.frames, len(self.ego_maps), self.ego_maps[0].valid.shape
        if not (0 <= i < n and 0 <= j < n and i != j):
            raise ValueError(f"edge {p.frames} must join two distinct frames of 0..{n - 1}")
        x_ii, x_ji, m = p.x_ii, p.x_ji, p.x_ji_matched
        dyn = np.zeros(res, bool) if dyn is None else dyn
        if not (isinstance(dyn, np.ndarray) and dyn.dtype == bool and dyn.shape == res):
            raise ValueError(f"edge {p.frames}'s mask must be a bool grid of the ego maps' "
                             f"resolution {res}")
        if {g.shape for g in (x_ii.valid, x_ji.valid, m.valid)} != {res}:
            raise ValueError("an edge's maps must share the ego maps' resolution")
        ei = len(self.edges)
        self.edges.append(EdgeIds(i, j))

        def segment(f, sel, data):  # rows at the pixels sel of frame f
            return (f, i, ei), sel.copy(), data  # a grid of its own, not a head's

        # 2D rows only where x_ji gives a 3D row too: chi blocks invert undamped
        sel = m.valid & x_ji.valid & (m.points[..., 2] > EPS_Z) & ~dyn
        segs = [segment(f, pm.valid, pm.points[pm.valid]) for f, pm in ((i, x_ii), (j, x_ji))]
        return segs + [segment(j, sel, project_points(m.points[sel], self.intrinsics[i])[0])]


def _spanning_tree(pairs: list[tuple[int, int]]) -> list[tuple[int, int, tuple[int, int]]]:
    """A breadth-first walk of the graph of pairs (i, j) from frame 0, each
    frame's pairs taken in their list order: (frame, child, pair) for every
    other frame it reaches, in the order reached."""
    order, seen, tree = [0], {0}, []
    for f in order:  # order grows as the walk reaches frames
        for i, j in pairs:
            child = j if i == f else i if j == f else None
            if child is not None and child not in seen:
                seen.add(child)
                order.append(child)
                tree.append((f, child, (i, j)))
    return tree


def build_pair_graph(seq, predictor: OraclePredictor, stride: int = 5,
                     use_dynamic_mask: bool = True) -> AlignmentProblem:
    """Edges for all frame gaps 1..stride+1 (a symmetric sliding window).

    A stride at or beyond the sequence length degrades to adjacent-only.
    Each edge is the pair prediction (view1 = earlier frame) and, with
    use_dynamic_mask, the grid of the dynamic mask thresholded from its
    matched-vs-rigid residuals, whose pixels get no 2D row; pairs with no
    co-visible pixels, and every pair without use_dynamic_mask, get no mask. The edges are
    rendered one at a time, as the problem turns each into its residual rows,
    and then dropped.
    """
    length = seq.frame_count
    if stride < 1:
        raise ValueError("stride must be >= 1")
    max_gap = 1 if stride >= length else stride + 1

    def edge(i, j):
        lazy = predictor.predict(i, j)
        # each head read once, whatever a predictor keeps: the mask and the
        # problem read some of them twice
        pred = PairPrediction(lazy.frames, lazy.x_ii, lazy.x_ji, lazy.x_ji_matched)
        mask = None
        if use_dynamic_mask:
            try:
                mask = dynamic_mask(pred.x_ji_matched, pred.x_ji).mask
            except EmptyDomainError:
                pass
        return pred, mask

    return AlignmentProblem(
        list(seq.intrinsics), [predictor.predict(f, f).x_ii for f in range(length)],
        (edge(i, j) for i in range(length)
         for j in range(i + 1, min(i + max_gap, length - 1) + 1)),
    )


@dataclass
class AlignmentVariables:
    """Optimization state: c2w poses, per-edge log scales, global pointmaps."""

    rotations: np.ndarray  # (F, 3, 3) camera-to-world
    translations: np.ndarray  # (F, 3)
    log_scales: np.ndarray  # (E,)
    pointmaps: np.ndarray  # (F, H, W, 3)


# the largest 2D weight a solve accepts: 1e3 runs clean on noisy jittered
# 16x20x5 and 96x128x6 scenes, where 1e12 makes a chi block singular and
# 1e100 overflows in the chi blocks' determinants
_MAX_LAMBDA_2D = 1e3


@dataclass
class AlignmentOptions:
    max_iters: int = 200
    tol: float = 1e-6  # relative improvement; three flat steps stop the run
    lambda_2d: float = 0.01

    def __post_init__(self):
        check_finite(tol=self.tol, lambda_2d=self.lambda_2d)
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not 0 <= self.lambda_2d <= _MAX_LAMBDA_2D:
            raise ValueError(f"lambda_2d must lie in [0, {_MAX_LAMBDA_2D:g}], "
                             f"got {self.lambda_2d:g}")


@dataclass
class AlignmentResult:
    poses: list[Pose]  # world-to-camera
    scales: np.ndarray  # per edge
    energy_trace: list[float]
    converged: bool
    iterations: int
    variables: AlignmentVariables


# rows per step of a pass that builds Jacobians, which bounds its temporaries;
# a pass without them needs a quarter of the memory a row and takes twice as many
_CHUNK_ROWS = 1 << 11


# One term's residual rows, in segments of one (edge, term) each, ordered by
# the frame whose global map they pull. Segment s holds rows start[s]:start[s
# + 1] (at least one) as its own arrays: mask[s], the (H, W) bool grid of the
# pixels they pull in frame[s]'s map, one row per True pixel in raster order,
# and data[s], a 3D row's point (x, y, z) or a 2D row's matched pixel
# position. Segment s pulls frame[s], is posed by frame pose[s] and scaled by
# edge[s]; cols[s] are its camera columns (pose, then scale).
_Rows = namedtuple("_Rows", "mask data start frame pose edge cols")


def _table(segs: list, n: int) -> _Rows:
    """The rows of segments [(ids, mask, data)] of n frames' maps, stably
    sorted by frame; segments without rows are dropped."""
    segs = sorted((s for s in segs if len(s[2])), key=lambda s: s[0][0])
    start = np.cumsum([0] + [len(s[2]) for s in segs])
    ids = np.array([s[0] for s in segs], dtype=np.intp).reshape(-1, 3)
    cols = np.column_stack([6 * ids[:, 1:2] + np.arange(6), 6 * n + ids[:, 2]])
    return _Rows([s[1] for s in segs], [s[2] for s in segs], start, *ids.T, cols)


def _chunk(rows: _Rows, lo: int, hi: int, segs: range):
    """pix and data of rows lo..hi - 1, which lie in the segments segs; pix
    (intp) indexes the pixels they pull in the frames' stacked maps, frame *
    pixels + pixel."""
    cuts = [slice(max(lo - rows.start[s], 0), hi - rows.start[s]) for s in segs]
    pix = np.concatenate([rows.frame[s] * rows.mask[s].size + np.flatnonzero(rows.mask[s])[c]
                          for s, c in zip(segs, cuts)])
    return pix, np.concatenate([rows.data[s][c] for s, c in zip(segs, cuts)])


# an iterate as the row passes read it: the 3D and 2D tables it solves over,
# (F, 3, 3) rotations, (F, 3) translations, (E,) scales, (F * pixels, 3) chi,
# (F, 4) fx, fy, cx, cy and each table's row weight, _WEIGHT_3D and lambda_2d
_At = namedtuple("_At", "rows rot trans scales chi k weights")


def _iterate(problem: AlignmentProblem, v: AlignmentVariables, opts: AlignmentOptions) -> _At:
    """v as the row passes read it, over every 3D row and, unless lambda_2d
    is 0, every 2D row; the tables are the problem's own, not copies."""
    n, ks = len(v.rotations), problem.intrinsics
    rows = problem.rows if opts.lambda_2d else (problem.rows[0], _table([], n))
    with np.errstate(over="ignore"):  # a trial step's inf scale gives a non-finite energy
        scales = np.exp(v.log_scales)
    return _At(rows, v.rotations, v.translations, scales,
               v.pointmaps.reshape(-1, 3),
               np.array([[k.fx, k.fy, k.cx, k.cy] for k in ks]).reshape(n, 4),
               (_WEIGHT_3D, opts.lambda_2d))


def _linearized(at: _At, frames: tuple[int, int], jac=True):
    """Rows of frames lo..hi - 1, chunk by chunk: (table, segment, pixel,
    the table's one row weight, residual, kernel root, d r / d chi, lever).
    d r / d chi is None for the 3D rows' identity and for every row without
    jac, else a 2D row's two rows as a (2, 3, m) array, the rows' axis last;
    the lever is a 3D row's mapped point s_e R_i x or a 2D row's chi - t_i.
    2D rows behind their camera drop out."""
    step = _CHUNK_ROWS if jac else 2 * _CHUNK_ROWS
    for t, rows in enumerate(at.rows):
        lo, hi = rows.start[np.searchsorted(rows.frame, frames)]
        for row0 in range(lo, hi, step):
            row1 = min(row0 + step, hi)
            seg = np.searchsorted(rows.start, np.arange(row0, row1), side="right") - 1
            pix, data = _chunk(rows, row0, row1, range(seg[0], seg[-1] + 1))
            t_i, j_chi = at.trans[rows.pose].take(seg, axis=0), None
            if t == 0:  # chi - (s_e R_i x + t_i)
                with np.errstate(invalid="ignore"):  # an inf scale times a 0 entry
                    m = (at.scales[rows.edge, None, None] * at.rot[rows.pose]).take(seg, axis=0)
                a = np.einsum("nij,nj->ni", m, data)
                r = at.chi.take(pix, axis=0) - a - t_i
            else:  # project_points(R_i^T (chi - t_i)) - F
                rot = at.rot[rows.pose].take(seg, axis=0)
                d = at.chi.take(pix, axis=0) - t_i
                y = np.einsum("nji,nj->ni", rot, d)
                ok = np.flatnonzero(y[:, 2] > EPS_Z)
                seg, pix, d, y = seg[ok], pix[ok], d[ok], y[ok]
                k, z = at.k[rows.pose].take(seg, axis=0), y[:, 2:]
                r = k[:, :2] * y[:, :2] / z + k[:, 2:] - data[ok]
            # overflow to inf is fine here: an infinite energy raises
            # DivergenceError at the start and rejects a step later
            with np.errstate(over="ignore"):
                root = np.sqrt(np.einsum("ni,ni->n", r, r) + _HUBER_DELTA**2)
            if jac and t == 1:  # row q: (k_q / z) (R_i[:, q] - (y_q / z) R_i[:, 2])
                col = at.rot[rows.pose].transpose(2, 1, 0).take(seg, axis=2)  # col[q]: R_i[:, q]
                kz, yz = ((x[:, :2] / z).T.copy()[:, None] for x in (k, y))
                j_chi = kz * (col[:2] - yz * col[2])
            yield t, seg, pix, at.weights[t], r, root, j_chi, a if t == 0 else d


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over axis -2 of arrays whose last axis runs over rows, written
    out (np.cross is slower for them)."""
    (a0, a1, a2), (b0, b1, b2) = ([x[..., q, :] for q in range(3)] for x in (a, b))
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-2)


def _jacobian_rows(at: _At, frames: tuple[int, int]):
    """The rows of frames lo..hi - 1 with their Jacobians in closed form,
    chunk by chunk: (table, segment, pixel, u, residual, lever, d r / d chi,
    d r / d camera). The per-row arrays have the rows' axis last, so each
    product is one pass over whole columns. u = w / root is a row's IRLS
    weight. A 3D row's Jacobian, I over chi and [[a]x, -I, -a] over its
    segment's camera columns, is read off its lever a (3, m); both
    Jacobians are None. A 2D row's d r / d chi is (2, 3, m) and its d r / d
    camera (2, 6, m): row q is [j_q x d, -j_q] over its pose columns, for
    J_chi's row j_q and the lever d (its scale column is 0)."""
    for t, seg, pix, w, r, root, j_chi, lever in _linearized(at, frames):
        lever, j_cam = lever.T.copy(), None
        if t == 1:
            j_cam = np.concatenate([_cross(j_chi, lever), -j_chi], axis=1)
        yield t, seg, pix, w / root, r.T.copy(), lever, j_chi, j_cam


def _scatter(out: np.ndarray, idx: np.ndarray, vals: np.ndarray):
    """out[idx] += vals (m, k), rows of equal idx summing."""
    if idx.size:
        lo, hi = idx.min(), idx.max() + 1
        idx = idx - lo
        for q in range(vals.shape[1]):  # vals may be a (k, m) array's transpose
            out[lo:hi, q] += np.bincount(idx, vals[:, q], hi - lo)


# A symmetric 3x3 block is held as its 6 unique entries xx, yy, zz, xy, xz,
# yz: entry _SYM[a, b] is its (a, b), and entry q is (_SYM_A[q], _SYM_B[q]).
_SYM = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])
_SYM_A, _SYM_B = np.array([0, 1, 2, 0, 0, 1]), np.array([0, 1, 2, 1, 2, 2])

# A 3D row's coupling u [[a]x, -I, -a] (3 x 7) has 12 nonzeros: nonzero q
# sits at (_C3_ROW[q], _C3_COL[q]) and is _C3_SIGN[q] times entry _C3_SRC[q]
# of (u, u a).
_C3_ROW = np.repeat(np.arange(3), 4)
_C3_COL = np.array([1, 2, 3, 6, 0, 2, 4, 6, 0, 1, 5, 6])
_C3_SRC = np.array([3, 2, 0, 1, 3, 1, 0, 2, 2, 1, 0, 3])
_C3_SIGN = np.array([-1.0, 1, -1, -1, 1, -1, -1, -1, -1, 1, -1, -1])


def _sym_inverse(c: np.ndarray) -> np.ndarray:
    """Inverses (m, 3, 3) of symmetric 3x3 blocks c (6, m) by their
    adjugates. Raises LinAlgError where a determinant is 0 or not finite."""
    xx, yy, zz, xy, xz, yz = c
    adj = np.array([yy * zz - yz * yz, xx * zz - xz * xz, xx * yy - xy * xy,
                    xz * yz - xy * zz, xy * yz - xz * yy, xy * xz - xx * yz])
    det = xx * adj[0] + xy * adj[3] + xz * adj[4]
    if not (np.isfinite(det).all() and det.all()):
        raise np.linalg.LinAlgError("a chi block is singular")
    return (adj / det)[_SYM].transpose(2, 0, 1)


# IRLS Gauss-Newton system, chi eliminated: camera block h and gradient g,
# the couplings' B^T K B and B^T K g_chi (schur, g_schur), the chi blocks'
# inverses K (k_chi) and gradient g_chi. Camera unknowns are [rotation,
# translation] per frame, then one log-scale per edge; a rotation unknown is
# a left perturbation dw, R <- exp([dw]x) R. The back-substitution reads the
# rows of the iterate `at` again.
_NormalSystem = namedtuple("_NormalSystem", "h g schur g_schur k_chi g_chi at")


def _camera_terms(sums: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment gradient (S, 7) and block (S, 7, 7) over the segments'
    camera columns from their row sums. A 3D segment sums u, u a, u a a^T
    (see _SYM), u r, u r x a and u a . r: J = [[a]x, -I, -a] gives J^T u r =
    [u r x a, -u r, -u a . r] and J^T u J = u [[|a|^2 I - a a^T, [a]x, 0],
    [-[a]x, I, a], [0, a^T, |a|^2]]. A 2D segment sums J^T u r and J^T u J
    over its pose columns."""
    g, h = np.zeros((len(sums), 7)), np.zeros((len(sums), 7, 7))
    if t == 1:
        g[:, :6], h[:, :6, :6] = sums[:, :6], sums[:, 6:].reshape(-1, 6, 6)
        return g, h
    sa, saa = sums[:, 1:4], sums[:, 4:10][:, _SYM]
    tr = np.trace(saa, axis1=1, axis2=2)
    g[:, :3], g[:, 3:6], g[:, 6] = sums[:, 13:16], -sums[:, 10:13], -sums[:, 16]
    h[:, :3, :3] = tr[:, None, None] * np.eye(3) - saa
    h[:, :3, 3:6] = _skew(sa)
    h[:, 3:6, :3] = -_skew(sa)
    h[:, 3:6, 3:6] = sums[:, 0, None, None] * np.eye(3)
    h[:, 3:6, 6] = h[:, 6, 3:6] = sa
    h[:, 6, 6] = tr
    return g, h


def _energy(problem: AlignmentProblem, v: AlignmentVariables, opts: AlignmentOptions) -> float:
    """The energy at v of the rows opts solve over (see _iterate)."""
    at, energy = _iterate(problem, v, opts), 0.0
    for _, _, _, w, _, root, _, _ in _linearized(at, (0, len(v.rotations)), jac=False):
        energy += float((w * (root - _HUBER_DELTA)).sum())
    return energy


def _normal_system(problem: AlignmentProblem, v: AlignmentVariables,
                   opts: AlignmentOptions) -> _NormalSystem:
    """The IRLS normal system at v of the rows opts solve over (see
    _iterate), with chi eliminated, undamped, whose g and g_chi are the
    energy's gradient (rotations by left perturbations).

    Every row adds u J^T r to the gradient and u J^T J to the system, so the
    gradient is exact and the system is the Gauss-Newton curvature of the
    current IRLS majorant. Each term is written out over the rows' columns
    (_jacobian_rows), with no per-row matrix product: the 3D rows' camera
    terms come from per-segment moments (_camera_terms), a 2D segment's
    camera block is one product of its (2m, 6) Jacobian rows, and each
    coupling u J_chi^T J_cam is scattered by its nonzeros. Chi terms are
    scattered per pixel. Only a frame's own rows reach its pixels, so after
    them its couplings are eliminated through its chi blocks, inverted by
    their adjugates, and dropped. Pixels no term reaches get an inert unit
    block. Raises LinAlgError when a chi block cannot be inverted.
    """
    n, at = len(v.rotations), _iterate(problem, v, opts)
    dim = 6 * n + len(at.scales)
    pix = len(at.chi) // n
    # per segment: a 3D segment's 17 moments, a 2D segment's J^T u r and J^T u J
    acc = [np.zeros((len(rows.pose), width)) for rows, width in zip(at.rows, (17, 42))]
    k_chi, g_chi = np.zeros((n, pix, 3, 3)), np.zeros((n, pix, 3))
    schur, g_schur = np.zeros((dim, dim)), np.zeros(dim)
    cols = [rows.cols for rows in at.rows]
    for f in range(n):
        own = np.unique(np.concatenate([cl[r.frame == f] for cl, r in zip(cols, at.rows)]))
        # a segment's nonzeros' offsets into b at pixel 0: (12 or 6, segments)
        slots = [np.searchsorted(own, cl) for cl in cols]
        offs = [(own.size * _C3_ROW + slots[0][:, _C3_COL]).T, slots[1][:, :6].T]
        b = np.zeros(pix * 3 * own.size)  # the couplings, (pixel, 3, own)
        c = np.zeros((6, pix))  # the chi blocks, see _SYM
        for t, seg, p, u, r, lever, j_chi, j_cam in _jacobian_rows(at, (f, f + 1)):
            if not seg.size:
                continue
            p = p - f * pix
            first = np.flatnonzero(np.concatenate(([True], seg[1:] != seg[:-1])))
            idx = (3 * own.size) * p + offs[t].take(seg, axis=1)
            if t == 0:
                mom = np.empty((17, len(u)))
                mom[0], mom[1:4], mom[10:13] = u, u * lever, u * r
                mom[4:10] = mom[1:4][_SYM_A] * lever[_SYM_B]
                mom[13:16] = _cross(mom[10:13], lever)
                mom[16] = (mom[10:13] * lever).sum(axis=0)
                acc[t][seg[first]] += np.add.reduceat(mom, first, axis=1).T
                _scatter(g_chi[f], p, mom[10:13].T)
                c[:3] += np.bincount(p, u, pix)
                vals = mom[_C3_SRC] * _C3_SIGN[:, None]
                del mom
            else:
                uj = u * j_cam
                for s, lo, hi in zip(seg[first], first, np.append(first[1:], len(seg))):
                    jr, ujr = (np.concatenate(x[:, :, lo:hi], axis=1) for x in (j_cam, uj))
                    acc[t][s, 6:] += (jr @ ujr.T).ravel()
                    del jr, ujr
                acc[t][seg[first], :6] += np.add.reduceat(  # J^T u r
                    uj[0] * r[0] + uj[1] * r[1], first, axis=1).T
                _scatter(g_chi[f], p, (u * r[0] * j_chi[0] + u * r[1] * j_chi[1]).T)
                uc = u * j_chi
                _scatter(c.T, p, (uc[:, _SYM_A] * j_chi[:, _SYM_B]).sum(axis=0).T)
                # u J_chi^T J_cam = u (j_0 j_cam_0^T + j_1 j_cam_1^T), 3 x 6
                vals = uc[0][:, None] * j_cam[0] + uc[1][:, None] * j_cam[1]
                idx = idx + own.size * np.arange(3)[:, None, None]
                del uj, uc
            np.add.at(b, idx.ravel(), vals.ravel())
            # each chunk's temporaries are freed before the next chunk's
            # linearization, which would otherwise overlap them
            del idx, vals
        c[:3, c[:3].sum(axis=0) == 0] = 1.0
        k_chi[f] = _sym_inverse(c)
        # explicit sizes: a frame no row reaches has no columns of its own
        b = b.reshape(pix, 3, own.size)
        kb = (k_chi[f] @ b).reshape(3 * pix, own.size)
        schur[own[:, None], own] += b.reshape(3 * pix, own.size).T @ kb
        g_schur[own] += kb.T @ g_chi[f].ravel()
        del b, kb
    g, h = np.zeros(dim), np.zeros((dim, dim))
    for t, (rows, sums) in enumerate(zip(at.rows, acc)):
        g_seg, h_seg = _camera_terms(sums, t)
        np.add.at(g, rows.cols, g_seg)
        np.add.at(h, (rows.cols[:, :, None], rows.cols[:, None]), h_seg)
    return _NormalSystem(h, g, schur, g_schur, k_chi, g_chi, at)


def _lm_step(v: AlignmentVariables, system: _NormalSystem, damping: float) -> AlignmentVariables:
    """One Levenberg-Marquardt step: solve the reduced camera system, whose
    diagonal is scaled by (1 + damping) before chi's Schur complement is taken
    off, then back-substitute each row's coupling times the step to its pixel
    through the undamped chi blocks. So every try at an iterate reuses its one
    elimination and reads the rows once. Rotations compose, R <- exp([dw]x) R.
    Raises LinAlgError when the reduced system cannot be solved.
    """
    n = len(system.g_chi)
    h = system.h * (1.0 + damping * np.eye(len(system.g))) - system.schur
    rhs = system.g - system.g_schur
    # frame 0's pose and edge 0's scale carry the gauge; unknowns no term
    # touches (the last frame's pose) stay put
    keep = np.flatnonzero(np.diag(system.h) > 0)
    keep = keep[(keep >= 6) & (keep != 6 * n)]
    step = np.zeros_like(rhs)
    step[keep] = np.linalg.solve(h[keep][:, keep], -rhs[keep])
    moved = [step[rows.cols].T for rows in system.at.rows]
    d_chi = system.g_chi.reshape(-1, 3).copy()
    for t, seg, p, u, _, lever, j_chi, j_cam in _jacobian_rows(system.at, (0, n)):
        mv = moved[t].take(seg, axis=1)  # d r / d camera times mv, without building it
        if t == 0:
            jd = u * (_cross(lever, mv[:3]) - mv[3:6] - mv[6] * lever)
        else:
            q = u * (j_cam * mv[:6]).sum(axis=1)
            jd = q[0] * j_chi[0] + q[1] * j_chi[1]
        _scatter(d_chi, p, jd.T)
    d_chi = -np.einsum("pab,pb->pa", system.k_chi.reshape(-1, 3, 3), d_chi)
    cam = step[: 6 * n].reshape(n, 6)
    return AlignmentVariables(
        np.array([rodrigues(dw) @ r for dw, r in zip(cam[:, :3], v.rotations)]),
        v.translations + cam[:, 3:],
        v.log_scales + step[6 * n :],
        v.pointmaps + d_chi.reshape(v.pointmaps.shape),
    )


def alignment_energy(problem: AlignmentProblem, v: AlignmentVariables,
                     options: AlignmentOptions | None = None) -> float:
    """Total energy of a variable assignment (no gradients). Raises
    ValueError unless v has the problem's shapes and finite values."""
    n, (h, w) = len(problem.ego_maps), problem.ego_maps[0].resolution
    for name, shape in (("rotations", (n, 3, 3)), ("translations", (n, 3)),
                        ("log_scales", (len(problem.edges),)), ("pointmaps", (n, h, w, 3))):
        a = np.asarray(getattr(v, name), dtype=np.float64)
        if a.shape != shape:
            raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError(f"{name} must be finite")
    opts = options or AlignmentOptions()
    return _energy(problem, v, opts)


def _init_pairwise(problem: AlignmentProblem) -> AlignmentVariables:
    """Spanning-tree initialization from per-edge similarity fits.

    Each edge's (x_jj, x_ji) correspondence, its x_ji read from its 3D rows
    of frame j, gives a cam_j -> cam_i similarity (Kabsch/Umeyama) when they
    share 3 or more pixels. A breadth-first walk of the fitted edges from
    frame 0 (_spanning_tree) accumulates poses and per-frame scales; a frame
    it does not reach keeps the identity pose. Edge scales and global maps are
    then seeded consistently, the maps through an iterate without 2D rows
    (lambda_2d = 0).
    """
    n = len(problem.ego_maps)
    v = AlignmentVariables(np.tile(np.eye(3), (n, 1, 1)), np.zeros((n, 3)),
                           np.zeros(len(problem.edges)),
                           np.array([m.points for m in problem.ego_maps], dtype=np.float64))
    if not problem.edges:
        return v

    rows, (h, w) = problem.rows[0], problem.ego_maps[0].resolution
    rel: dict[tuple[int, int], tuple[float, np.ndarray, np.ndarray]] = {}
    for ei, e in enumerate(problem.edges):
        ego_j = problem.ego_maps[e.j]
        for s in np.flatnonzero((rows.edge == ei) & (rows.frame == e.j)):  # x_ji's segment
            joint = ego_j.valid[rows.mask[s]]  # x_ji's rows at pixels ego_j has too
            if int(joint.sum()) >= 3:
                rel[e] = umeyama(ego_j.points[rows.mask[s] & ego_j.valid], rows.data[s][joint])

    rot, cen, kappa = [np.eye(3)] * n, [np.zeros(3)] * n, np.ones(n)
    for f, nxt, (i, j) in _spanning_tree([e for e in problem.edges if e in rel]):
        s, r, t = rel[(i, j)]
        if f == i:
            # child j: x_i = s r x_j + t, world map W_j = W_i o M
            rot[nxt] = rot[f] @ r
            cen[nxt] = kappa[f] * (rot[f] @ t) + cen[f]
            kappa[nxt] = kappa[f] * s
        else:
            # child i: invert the edge map
            rot[nxt] = rot[f] @ r.T
            cen[nxt] = cen[f] - (kappa[f] / s) * (rot[f] @ r.T @ t)
            kappa[nxt] = kappa[f] / s

    v.rotations[:], v.translations[:] = rot, cen
    v.log_scales[:] = np.log(np.maximum(kappa[[e.i for e in problem.edges]], 1e-12))
    # gauge: normalize the first edge's scale to exactly 1
    shift = v.log_scales[0]
    v.log_scales -= shift
    v.translations *= np.exp(-shift)
    kappa *= np.exp(-shift)

    # each pixel starts at the weighted mean of its 3D rows' mapped points
    # s_e R_i x + t_i, which are minus their residuals at chi = 0. A frame's
    # rows read only its own pixels, so the maps are zeroed and each frame's
    # is filled after its rows are read (a zero-stride chi would be copied
    # whole by every chunk's take)
    v.pointmaps[:] = 0.0
    at = _iterate(problem, v, AlignmentOptions(lambda_2d=0.0))
    for f in range(n):
        num, den = np.zeros((h * w, 3)), np.zeros((h * w, 1))
        for _, _, p, wgt, r, *_ in _linearized(at, (f, f + 1), jac=False):
            _scatter(num, p - f * h * w, -wgt * r)
            _scatter(den, p - f * h * w, np.full((len(p), 1), wgt))
        chi = kappa[f] * (problem.ego_maps[f].points.reshape(-1, 3) @ rot[f].T) + cen[f]
        filled = den[:, 0] > 0
        chi[filled] = num[filled] / den[filled]
        v.pointmaps[f] = chi.reshape(h, w, 3)
    return v


def global_align(
    problem: AlignmentProblem, options: AlignmentOptions | None = None
) -> AlignmentResult:
    """Jointly optimize poses, edge scales and global maps; monotone energy.

    Each iteration linearizes the residuals under the IRLS weights of the
    current iterate, eliminates the per-pixel chi blocks once, and takes one
    Levenberg-Marquardt step on the reduced camera system. A step is kept only
    if it lowers the energy; otherwise the damping grows tenfold and the step
    is tried again from the same elimination, and a run no damping can improve
    has converged. Frame 0's pose and edge 0's log-scale are held at the
    gauge. Raises DivergenceError if the initial energy is non-finite.
    """
    opts = options or AlignmentOptions()
    v = _init_pairwise(problem)

    energy = _energy(problem, v, opts)
    if not np.isfinite(energy):
        raise DivergenceError("initial energy is non-finite", trace=[energy])
    trace, damping, iters, flat_tol_hits = [energy], _DAMPING_START, 0, 0
    converged = not problem.edges or energy < _ABS_TOL

    while not converged and iters < opts.max_iters:
        e_before = trace[-1]
        iters += 1
        system = _normal_system(problem, v, opts)
        while damping <= _DAMPING_MAX:
            try:
                cand = _lm_step(v, system, damping)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            e_new = _energy(problem, cand, opts)
            if np.isfinite(e_new) and e_new < e_before:
                break
            damping *= 10.0
        else:
            converged = True  # no damping lowers the energy: a minimum
            break
        v = cand
        del system  # freed before the next linearization
        damping = max(damping / 10.0, _DAMPING_MIN)
        trace.append(e_new)
        if e_new < _ABS_TOL:
            converged = True
        elif (e_before - e_new) / e_before < opts.tol:
            flat_tol_hits += 1
            converged = flat_tol_hits >= 3
        else:
            flat_tol_hits = 0

    # Cameras are read off the aligned maps: registering each ego map onto
    # its global map by a similarity gives every frame a pose, including
    # frames that never serve as an edge's reference view.
    poses = []
    for f, ego in enumerate(problem.ego_maps):
        sel, r_c2w, center = ego.valid, v.rotations[f], v.translations[f]
        if problem.edges and int(sel.sum()) >= 3:
            _, r_c2w, center = umeyama(ego.points[sel], v.pointmaps[f][sel])
        poses.append(Pose(r_c2w.T, -r_c2w.T @ center))
    return AlignmentResult(poses=poses, scales=np.exp(v.log_scales), energy_trace=trace,
                           converged=converged, iterations=iters, variables=v)
