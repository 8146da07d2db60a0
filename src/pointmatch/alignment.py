"""Dynamic-mask-aware global alignment of pairwise pointmap predictions.

Variables: per-frame camera-to-world pose (rotation vector + translation),
one log-scale per edge, and a free global pointmap per frame. The energy pulls
each frame's global pointmap toward every edge's evidence,

    E3d = sum_e sum_{v in {ii, ji}} sum_px conf * rho(chi_v - (R_i (s_e x) + t_i))

with rho a pseudo-Huber penalty, plus a 2D term tying static pixels to the
matched maps' projected correspondences,

    E2d = lambda_2d * sum_e sum_{static px} rho2(project_points(R_i^T (chi_j - t_i)) - F_e)

The per-edge scale acts on camera-frame points before the rigid map, so frame
translations stay world-metric and the trajectory reads off the variables
directly. A static pixel's matched point is valid and in front of camera i,
at a pixel where the edge's x_ji is valid too; dynamic pixels (per-edge
3x-median mask) are excluded, as their matched correspondences encode object
motion, not camera motion. Both penalties use one fixed scale, rho(r) =
sqrt(|r|^2 + delta^2) - delta with delta = 1e-6 (`_HUBER_DELTA`); it is not
an option.

The solver is Levenberg-Marquardt on the IRLS-weighted residuals (Triggs et
al., "Bundle Adjustment - A Modern Synthesis", 2000). The residuals live in
two flat tables, one row per (edge, term, pixel), grouped by the frame whose
map a row pulls; every pass over them takes a fixed number of numpy calls per
chunk of `_CHUNK_ROWS` rows, whatever the number of edges. Each pixel's global
point couples only to its own residuals, so once per iteration its 3x3 block
is eliminated, undamped, by a Schur complement, one frame at a time in the
pass that builds the system; the damping acts on the reduced system over
poses and scales alone, so every try reuses that elimination. Rotations step
as R <- exp([dw]x) R (Sola et al., arXiv 1812.01537). A step is kept only if
the energy drops, so the energy trace is monotone. Frame 0's pose and the
first edge's scale are pinned (gauge freedom).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, EmptyDomainError, check_finite
from .geometry import EPS_Z, Intrinsics, Pointmap, Pose, project_points
from .matching import DynamicMask, dynamic_mask
from .metrics import umeyama
from .pipelines import PairPrediction, Predictor

_SMALL_ANGLE = 1e-7
# Levenberg-Marquardt damping: start, floor, and the ceiling past which a
# step that still raises the energy ends the run
_DAMPING_START, _DAMPING_MIN, _DAMPING_MAX = 1e-3, 1e-9, 1e8
_HUBER_DELTA = 1e-6  # pseudo-Huber scale of both energy terms
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


def rotation_log(r: np.ndarray) -> np.ndarray:
    """Rotation matrix -> rotation vector (inverse of rodrigues)."""
    r = np.asarray(r, dtype=np.float64)
    tr = np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0)
    th = float(np.arccos(tr))
    vee = 0.5 * np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    if th < _SMALL_ANGLE:
        return vee
    if th > np.pi - 1e-5:
        # near pi the antisymmetric part vanishes; recover the axis from R + I
        b = (r + np.eye(3)) / 2.0
        axis = np.sqrt(np.maximum(np.diag(b), 0.0))
        k = int(np.argmax(axis))
        if axis[k] > 0:
            axis = b[:, k] / axis[k]
            axis /= np.linalg.norm(axis)
        if np.dot(axis, vee) < 0:
            axis = -axis
        return th * axis
    return (th / np.sin(th)) * vee


@dataclass
class AlignmentEdge:
    i: int
    j: int
    pred: PairPrediction
    mask: DynamicMask | None


@dataclass
class AlignmentProblem:
    """Frames 0..n-1, intrinsics, pair (i, j)'s prediction and dynamic mask per edge."""

    frames: list[int]
    intrinsics: list[Intrinsics]
    edges: list[AlignmentEdge]
    ego_maps: list[Pointmap]

    def __post_init__(self):
        n = len(self.frames)
        if list(self.frames) != list(range(n)):
            raise ValueError("frames must be 0, 1, ..., n - 1")
        if len(self.intrinsics) != n or len(self.ego_maps) != n:
            raise ValueError("per-frame lists must match the frame count")
        res = {m.valid.shape for m in self.ego_maps}
        if len(res) > 1:
            raise ValueError("ego maps must share one resolution")
        for e in self.edges:
            if not (0 <= e.i < n and 0 <= e.j < n and e.i != e.j):
                raise ValueError("edge endpoints out of range")
            if tuple(e.pred.frames) != (e.i, e.j):
                raise ValueError(f"edge ({e.i}, {e.j}) holds pair {e.pred.frames}'s prediction")
            p = e.pred
            grids = [p.x_ii.valid, p.x_ji.valid, p.x_ji_matched.valid, p.conf_ii.raw, p.conf_ji.raw]
            if e.mask is not None:
                grids.append(e.mask.mask)
            if {g.shape for g in grids} != res:
                raise ValueError("an edge's maps must share the ego maps' resolution")
        if n > 1 and not self._connected():
            raise ValueError("pair graph is disconnected")

    def _connected(self) -> bool:
        n = len(self.frames)
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e in self.edges:
            ra, rb = find(e.i), find(e.j)
            parent[ra] = rb
        return len({find(f) for f in range(n)}) == 1


def build_pair_graph(seq, predictor: Predictor, stride: int = 5) -> AlignmentProblem:
    """Edges for all frame gaps 1..stride+1 (a symmetric sliding window).

    A stride at or beyond the sequence length degrades to adjacent-only.
    Each edge carries the pair prediction (view1 = earlier frame) and the
    dynamic mask thresholded from its matched-vs-rigid residuals; pairs with
    no co-visible pixels get an empty mask.
    """
    length = seq.frame_count
    if stride < 1:
        raise ValueError("stride must be >= 1")
    max_gap = 1 if stride >= length else stride + 1
    edges = []
    for i in range(length):
        for j in range(i + 1, min(i + max_gap, length - 1) + 1):
            lazy = predictor.predict(i, j)
            try:
                mask = dynamic_mask(lazy.x_ji_matched, lazy.x_ji)
            except EmptyDomainError:
                mask = None
            # the solver reads every head of an edge more than once: holding
            # the maps here keeps global_align's time and memory those of the
            # solve, not re-renders of heads a predictor has evicted
            pred = PairPrediction(lazy.frames, lazy.x_ii, lazy.x_ji, lazy.x_ji_matched,
                                  lazy.conf_ii, lazy.conf_ji)
            edges.append(AlignmentEdge(i=i, j=j, pred=pred, mask=mask))
    ego = [predictor.predict(f, f).x_ii for f in range(length)]
    return AlignmentProblem(
        frames=list(range(length)),
        intrinsics=list(seq.intrinsics),
        edges=edges,
        ego_maps=ego,
    )


@dataclass
class AlignmentVariables:
    """Optimization state: c2w poses, per-edge log scales, global pointmaps."""

    rotvecs: np.ndarray  # (F, 3)
    translations: np.ndarray  # (F, 3)
    log_scales: np.ndarray  # (E,)
    pointmaps: np.ndarray  # (F, H, W, 3)

    def copy(self) -> "AlignmentVariables":
        return AlignmentVariables(
            self.rotvecs.copy(),
            self.translations.copy(),
            self.log_scales.copy(),
            self.pointmaps.copy(),
        )


@dataclass
class AlignmentOptions:
    max_iters: int = 200
    tol: float = 1e-6  # relative improvement; three flat steps stop the run
    lambda_2d: float = 0.01
    use_dynamic_mask: bool = True
    init: str = "pairwise"  # or "identity"

    def __post_init__(self):
        check_finite(tol=self.tol, lambda_2d=self.lambda_2d)
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.lambda_2d < 0:
            raise ValueError("lambda_2d must be >= 0")
        if self.init not in ("pairwise", "identity"):
            raise ValueError("init must be pairwise or identity")


@dataclass
class AlignmentResult:
    poses: list[Pose]  # world-to-camera
    scales: np.ndarray  # per edge
    pointmaps: list[Pointmap]  # aligned global maps, validity from ego maps
    energy_trace: list[float]
    converged: bool
    iterations: int
    variables: AlignmentVariables


# rows per step of a pass that builds Jacobians, which bounds its temporaries;
# a pass without them needs a quarter of the memory a row and takes twice as many
_CHUNK_ROWS = 1 << 11


# One term's residual rows, in segments of one (edge, term) each, ordered by
# the frame whose global map they pull. Row k pulls pixel pix[k] (int32) of
# the frames' stacked maps (frame * pixels + pixel); data[k] is a 3D row's point
# and confidence (x, y, z, w) or a 2D row's matched pixel position. Segment
# s owns rows start[s]:start[s + 1] (at least one), pulls frame[s], is posed
# by frame pose[s] and scaled by edge[s]; cols[s] are its camera columns
# (pose, then scale).
_Rows = namedtuple("_Rows", "pix data start frame pose edge cols")


def _rows(segs, width: int, n: int) -> _Rows:
    """Rows of segs [((frame, pose, edge), selection, selection -> its rows' data)]."""
    segs = sorted((s for s in segs if s[1].any()), key=lambda s: s[0][0])
    start = np.cumsum([0] + [int(s[1].sum()) for s in segs])
    ids = np.array([s[0] for s in segs], dtype=np.intp).reshape(-1, 3)
    cols = np.column_stack([6 * ids[:, 1:2] + np.arange(6), 6 * n + ids[:, 2]])
    rows = _Rows(np.empty(start[-1], np.int32), np.empty((start[-1], width)), start, *ids.T, cols)
    for ((f, _, _), sel, data), lo, hi in zip(segs, start, start[1:]):
        rows.pix[lo:hi] = f * sel.size + np.flatnonzero(sel)
        rows.data[lo:hi] = data(sel)
    return rows


def _prepare(problem: AlignmentProblem, opts: AlignmentOptions) -> tuple[_Rows, _Rows]:
    """The 3D and 2D rows of every edge, each table filled in place a segment
    at a time. Raises ValueError when a row's pixel index cannot be an int32."""
    h, w = problem.ego_maps[0].resolution
    if len(problem.frames) * h * w > np.iinfo(np.int32).max:
        raise ValueError("frames x pixels exceeds the int32 range of a row's pixel index")
    segs3, segs2 = [], []
    for ei, e in enumerate(problem.edges):
        p, k = e.pred, problem.intrinsics[e.i]
        for f, pm, conf in ((e.i, p.x_ii, p.conf_ii), (e.j, p.x_ji, p.conf_ji)):
            segs3.append(((f, e.i, ei), pm.valid, lambda s, pm=pm, conf=conf:
                          np.column_stack([pm.points[s], conf.values[s]])))
        m = p.x_ji_matched
        # 2D rows only where x_ji gives a 3D row too: chi blocks invert undamped
        sel = m.valid & p.x_ji.valid & (m.points[..., 2] > EPS_Z)
        if opts.use_dynamic_mask and e.mask is not None:
            sel &= ~e.mask.mask
        if opts.lambda_2d > 0:
            segs2.append(((e.j, e.i, ei), sel,
                          lambda s, m=m, k=k: project_points(m.points[s], k)[0]))
    return _rows(segs3, 4, len(problem.frames)), _rows(segs2, 2, len(problem.frames))


# an iterate as the row passes read it: (F, 3, 3) rotations, (F, 3)
# translations, (E,) scales, (F * pixels, 3) chi and (F, 4) fx, fy, cx, cy
_At = namedtuple("_At", "rot trans scales chi k lambda_2d")


def _linearized(pres: tuple[_Rows, _Rows], at: _At, frames: tuple[int, int], jac=True):
    """Rows of frames lo..hi - 1, chunk by chunk: (table, segment, pixel,
    weight, residual, kernel root, d r / d chi, lever). d r / d chi is None
    for the 3D rows' identity and for every row without jac; the lever is a
    3D row's mapped point s_e R_i x or a 2D row's chi - t_i, from which
    _j_cam builds d r / d camera. 2D rows behind their camera drop out."""
    step = _CHUNK_ROWS if jac else 2 * _CHUNK_ROWS
    for t, rows in enumerate(pres):
        lo, hi = rows.start[np.searchsorted(rows.frame, frames)]
        for row0 in range(lo, hi, step):
            sl = slice(row0, min(row0 + step, hi))
            seg = np.searchsorted(rows.start, np.arange(sl.start, sl.stop), side="right") - 1
            # widened per chunk, so the index arithmetic below cannot wrap
            pix = rows.pix[sl].astype(np.intp)
            t_i, j_chi = at.trans[rows.pose].take(seg, axis=0), None
            if t == 0:  # chi - (s_e R_i x + t_i)
                m = (at.scales[rows.edge, None, None] * at.rot[rows.pose]).take(seg, axis=0)
                a = np.einsum("nij,nj->ni", m, rows.data[sl, :3])
                r, w = at.chi.take(pix, axis=0) - a - t_i, rows.data[sl, 3]
            else:  # project_points(R_i^T (chi - t_i)) - F
                rot = at.rot[rows.pose].take(seg, axis=0)
                d = at.chi.take(pix, axis=0) - t_i
                y = np.einsum("nji,nj->ni", rot, d)
                ok = np.flatnonzero(y[:, 2] > EPS_Z)
                seg, pix, d, y, w = seg[ok], pix[ok], d[ok], y[ok], at.lambda_2d
                k, z = at.k[rows.pose].take(seg, axis=0), y[:, 2:]
                r = k[:, :2] * y[:, :2] / z + k[:, 2:] - rows.data[sl][ok]
            # overflow to inf is fine here: an infinite energy raises
            # DivergenceError at the start and rejects a step later
            with np.errstate(over="ignore"):
                root = np.sqrt(np.einsum("ni,ni->n", r, r) + _HUBER_DELTA**2)
            if jac and t == 1:  # the rows of R_i^T are the columns of R_i
                rt, kz = rot[ok].transpose(0, 2, 1), (k[:, :2] / z)[:, :, None]
                j_chi = kz * (rt[:, :2] - (y[:, :2] / z)[:, :, None] * rt[:, 2:])
            yield t, seg, pix, w, r, root, j_chi, a if t == 0 else d


def _j_cam(j_chi, lever: np.ndarray) -> np.ndarray:
    """d r / d camera, (m, 2 or 3, 7) over a segment's cols, rotations as
    left perturbations: [[a]x, -I, -a] for a 3D row, J_chi [[d]x, -I, 0]
    for a 2D row."""
    if j_chi is None:
        j_cam = np.zeros(lever.shape + (7,))
        j_cam[:, :, :3], j_cam[:, :, 3:6], j_cam[:, :, 6] = _skew(lever), -np.eye(3), -lever
    else:
        j_cam = np.zeros(j_chi.shape[:2] + (7,))
        j_cam[:, :, :3], j_cam[:, :, 3:6] = np.cross(j_chi, lever[:, None]), -j_chi
    return j_cam


def _chi_t(j_chi, x: np.ndarray) -> np.ndarray:
    """d r / d chi^T x per row; x is (m, k) or (m, k, c)."""
    return x if j_chi is None else np.einsum("nki,nk...->ni...", j_chi, x)


def _scatter(out: np.ndarray, idx: np.ndarray, vals: np.ndarray):
    """out[idx] += vals (m, k), rows of equal idx summing."""
    if idx.size:
        lo, hi, k = idx.min(), idx.max() + 1, vals.shape[1]
        flat = ((idx - lo)[:, None] * k + np.arange(k)).ravel()
        out[lo:hi] += np.bincount(flat, vals.ravel(), (hi - lo) * k).reshape(-1, k)


# IRLS Gauss-Newton system, chi eliminated: camera block h and gradient g,
# the couplings' B^T K B and B^T K g_chi (schur, g_schur), the chi blocks'
# inverses K (k_chi) and gradient g_chi. Camera unknowns are [rotation,
# translation] per frame, then one log-scale per edge; a rotation unknown is
# a left perturbation dw, R <- exp([dw]x) R. The back-substitution reads the
# rows `pres` again at the iterate `at`.
_NormalSystem = namedtuple("_NormalSystem", "h g schur g_schur k_chi g_chi pres at")


def _energy_and_grad(problem: AlignmentProblem, pres: tuple[_Rows, _Rows],
                     v: AlignmentVariables, opts: AlignmentOptions, want_grad: bool = True):
    """Energy and, with want_grad, its gradient (rotations by left
    perturbations) and IRLS normal system with chi eliminated, undamped.

    Every row adds u J^T r to the gradient and u J^T J to the system, so the
    gradient is exact and the system is the Gauss-Newton curvature of the
    current IRLS majorant. Camera terms are summed per segment and placed
    once; chi terms are scattered per pixel. Only a frame's own rows reach its
    pixels, so after them its couplings u J_chi^T J_cam are eliminated through
    its chi blocks, which c[f] then holds inverted, and dropped. Pixels no
    term reaches get an inert unit block. Raises LinAlgError when a chi block
    cannot be inverted.
    """
    n, ks = len(v.rotvecs), problem.intrinsics
    at = _At(np.array([rodrigues(w) for w in v.rotvecs]).reshape(n, 3, 3), v.translations,
             np.exp(v.log_scales), v.pointmaps.reshape(-1, 3),
             np.array([[k.fx, k.fy, k.cx, k.cy] for k in ks]).reshape(n, 4), opts.lambda_2d)
    energy = 0.0
    if not want_grad:
        for _, _, _, w, _, root, _, _ in _linearized(pres, at, (0, n), jac=False):
            energy += float((w * (root - _HUBER_DELTA)).sum())
        return energy, None, None
    dim = 6 * n + len(at.scales)
    pix = len(at.chi) // n
    acc = [np.zeros((len(rows.pose), 56)) for rows in pres]  # per segment: J^T u r, J^T u J
    c, g_chi = np.zeros((n, pix, 3, 3)), np.zeros((n, pix, 3))
    schur, g_schur = np.zeros((dim, dim)), np.zeros(dim)
    cols = [rows.cols for rows in pres]
    for f in range(n):
        own = np.unique(np.concatenate([cl[r.frame == f] for cl, r in zip(cols, pres)]))
        # flat index into b of a segment's (3, 7) entries at pixel 0
        slots = [np.arange(3)[:, None] * own.size + np.searchsorted(own, cl)[:, None]
                 for cl in cols]
        b = np.zeros(pix * 3 * own.size)
        for t, seg, p, w, r, root, j_chi, lever in _linearized(pres, at, (f, f + 1)):
            energy += float((w * (root - _HUBER_DELTA)).sum())
            if not seg.size:
                continue
            u = w / root
            j_cam = _j_cam(j_chi, lever)
            uj = u[:, None, None] * j_cam
            idx = (3 * own.size) * (p - f * pix)[:, None, None] + slots[t].take(seg, axis=0)
            np.add.at(b, idx.ravel(), _chi_t(j_chi, uj).ravel())
            del idx  # the products below come next
            ur = u[:, None] * r
            first = np.flatnonzero(np.diff(seg, prepend=-1))  # each segment's first row
            jtj = (j_cam.transpose(0, 2, 1) @ uj).reshape(-1, 49)
            acc[t][seg[first], :7] += np.add.reduceat(np.einsum("nki,nk->ni", j_cam, ur), first)
            acc[t][seg[first], 7:] += np.add.reduceat(jtj, first)
            _scatter(g_chi.reshape(-1, 3), p, _chi_t(j_chi, ur))
            uc = u[:, None, None] * (np.eye(3) if j_chi is None else j_chi)
            _scatter(c.reshape(-1, 9), p, _chi_t(j_chi, uc).reshape(-1, 9))
            # freed before the next chunk, whose linearization and coupling
            # would otherwise overlap them
            del ur, uj, jtj, uc
        c[f][np.trace(c[f], axis1=1, axis2=2) == 0] = np.eye(3)
        c[f] = np.linalg.inv(c[f])
        kb = (c[f] @ b.reshape(pix, 3, own.size)).reshape(-1, own.size)
        schur[own[:, None], own] += b.reshape(-1, own.size).T @ kb
        g_schur[own] += kb.T @ g_chi[f].ravel()
    g, h = np.zeros(dim), np.zeros((dim, dim))
    for rows, sums in zip(pres, acc):
        np.add.at(g, rows.cols, sums[:, :7])
        np.add.at(h, (rows.cols[:, :, None], rows.cols[:, None]), sums[:, 7:].reshape(-1, 7, 7))
    cam = g[: 6 * n].reshape(n, 6)
    grad = AlignmentVariables(cam[:, :3], cam[:, 3:], g[6 * n :], g_chi.reshape(v.pointmaps.shape))
    # c holds the chi blocks' inverses now
    return energy, grad, _NormalSystem(h, g, schur, g_schur, c, g_chi, pres, at)


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
    moved = [step[rows.cols] for rows in system.pres]
    d_chi = system.g_chi.reshape(-1, 3).copy()
    for t, seg, p, w, _, root, j_chi, lever in _linearized(system.pres, system.at, (0, n)):
        mv = moved[t].take(seg, axis=0)  # d r / d camera times mv, without building it
        jd = np.cross(lever, mv[:, :3]) - mv[:, 3:6] - (t == 0) * mv[:, 6:] * lever
        jd = jd if j_chi is None else np.einsum("nki,ni->nk", j_chi, jd)
        _scatter(d_chi, p, _chi_t(j_chi, (w / root)[:, None] * jd))
    d_chi = -np.einsum("pab,pb->pa", system.k_chi.reshape(-1, 3, 3), d_chi)
    cam = step[: 6 * n].reshape(n, 6)
    rot = [rotation_log(rodrigues(dw) @ r) for dw, r in zip(cam[:, :3], system.at.rot)]
    return AlignmentVariables(
        np.array(rot).reshape(n, 3),
        v.translations + cam[:, 3:],
        v.log_scales + step[6 * n :],
        v.pointmaps + d_chi.reshape(v.pointmaps.shape),
    )


def alignment_energy(problem: AlignmentProblem, v: AlignmentVariables,
                     options: AlignmentOptions | None = None) -> float:
    """Total energy of a variable assignment (no gradients)."""
    opts = options or AlignmentOptions()
    return _energy_and_grad(problem, _prepare(problem, opts), v, opts, want_grad=False)[0]


def _init_identity(problem: AlignmentProblem) -> AlignmentVariables:
    n = len(problem.frames)
    return AlignmentVariables(
        rotvecs=np.zeros((n, 3)),
        translations=np.zeros((n, 3)),
        log_scales=np.zeros(len(problem.edges)),
        pointmaps=np.array([m.points for m in problem.ego_maps], dtype=np.float64),
    )


def _init_pairwise(problem: AlignmentProblem, pres: tuple[_Rows, _Rows]) -> AlignmentVariables:
    """Spanning-tree initialization from per-edge similarity fits.

    Each edge's (x_jj, x_ji) correspondence gives a cam_j -> cam_i similarity
    (Kabsch/Umeyama); BFS from frame 0 accumulates poses and per-frame scales,
    then edge scales and global maps are seeded consistently.
    """
    n = len(problem.frames)
    v = _init_identity(problem)
    if not problem.edges:
        return v

    rel: dict[tuple[int, int], tuple[float, np.ndarray, np.ndarray]] = {}
    adj: dict[int, list[tuple[int, int, int]]] = {f: [] for f in range(n)}
    for e in problem.edges:
        adj[e.i].append((e.j, e.i, e.j))
        adj[e.j].append((e.i, e.i, e.j))
        ego_j = problem.ego_maps[e.j]
        joint = ego_j.valid & e.pred.x_ji.valid
        if int(joint.sum()) >= 3:
            try:
                rel[(e.i, e.j)] = umeyama(ego_j.points[joint], e.pred.x_ji.points[joint])
            except EmptyDomainError:
                pass

    rot = [np.eye(3) for _ in range(n)]
    cen = [np.zeros(3) for _ in range(n)]
    kappa = np.ones(n)
    seen = {0}
    frontier = [0]
    while frontier:
        f = frontier.pop(0)
        for nxt, i, j in adj[f]:
            if nxt in seen or (i, j) not in rel:
                continue
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
            seen.add(nxt)
            frontier.append(nxt)

    v.rotvecs[:], v.translations[:] = [rotation_log(r) for r in rot], cen
    v.log_scales[:] = np.log(np.maximum(kappa[[e.i for e in problem.edges]], 1e-12))
    # gauge: normalize the first edge's scale to exactly 1
    shift = v.log_scales[0]
    v.log_scales -= shift
    v.translations *= np.exp(-shift)
    kappa *= np.exp(-shift)

    # each pixel starts at the weighted mean of its 3D rows' mapped points
    # s_e R_i x + t_i, which are minus their residuals at chi = 0
    h, w = problem.ego_maps[0].resolution
    zero = np.broadcast_to(0.0, (n * h * w, 3))
    at = _At(np.array(rot), v.translations, np.exp(v.log_scales), zero, None, None)
    for f in range(n):
        num, den = np.zeros((h * w, 3)), np.zeros((h * w, 1))
        for _, _, p, wgt, r, *_ in _linearized(pres[:1], at, (f, f + 1), jac=False):
            _scatter(num, p - f * h * w, -wgt[:, None] * r)
            _scatter(den, p - f * h * w, wgt[:, None])
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
    n = len(problem.frames)
    if n == 0:
        raise ValueError("empty problem")
    pres = _prepare(problem, opts)
    v = _init_pairwise(problem, pres) if opts.init == "pairwise" else _init_identity(problem)

    energy, _, _ = _energy_and_grad(problem, pres, v, opts, want_grad=False)
    if not np.isfinite(energy):
        raise DivergenceError("initial energy is non-finite", trace=[energy])
    trace = [energy]
    damping = _DAMPING_START
    iters = 0
    flat_tol_hits = 0
    converged = not problem.edges or energy < _ABS_TOL

    while not converged and iters < opts.max_iters:
        e_before = trace[-1]
        iters += 1
        _, _, system = _energy_and_grad(problem, pres, v, opts)
        while damping <= _DAMPING_MAX:
            try:
                cand = _lm_step(v, system, damping)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            e_new, _, _ = _energy_and_grad(problem, pres, cand, opts, want_grad=False)
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
    for f in range(n):
        ego = problem.ego_maps[f]
        sel = ego.valid
        r_c2w = rodrigues(v.rotvecs[f])
        center = v.translations[f]
        if problem.edges and int(sel.sum()) >= 3:
            try:
                _, r_c2w, center = umeyama(ego.points[sel], v.pointmaps[f][sel], with_scale=True)
            except EmptyDomainError:
                pass
        poses.append(Pose(r_c2w.T, -r_c2w.T @ center))
    maps = [Pointmap(v.pointmaps[f], problem.ego_maps[f].valid) for f in range(n)]
    return AlignmentResult(
        poses=poses,
        scales=np.exp(v.log_scales),
        pointmaps=maps,
        energy_trace=trace,
        converged=converged,
        iterations=iters,
        variables=v,
    )
