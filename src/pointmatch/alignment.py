"""Dynamic-mask-aware global alignment of pairwise pointmap predictions.

Variables: per-frame camera-to-world pose (rotation vector + translation),
one log-scale per edge, and a free global pointmap per frame. The energy pulls
each frame's global pointmap toward every edge's evidence,

    E3d = sum_e sum_{v in {ii, ji}} sum_px conf * rho(chi_v - (R_i (s_e x) + t_i))

with rho a pseudo-Huber penalty, plus a 2D term tying static pixels to the
matched maps' projected correspondences,

    E2d = lambda_2d * sum_e sum_{static px} rho2(project(R_i^T (chi_j - t_i)) - F_e)

The per-edge scale acts on camera-frame points before the rigid map, so frame
translations stay world-metric and the trajectory reads off the variables
directly. Dynamic pixels (per-edge 3x-median mask) are excluded from the 2D
term: their matched correspondences encode object motion, not camera motion.
Both penalties use one fixed scale, rho(r) = sqrt(|r|^2 + delta^2) - delta with
delta = 1e-6 (`_HUBER_DELTA`); it is not an option.

The solver is Levenberg-Marquardt on the IRLS-weighted residuals (Triggs et
al., "Bundle Adjustment - A Modern Synthesis", 2000). Each pixel's global
point couples only to its own residuals, so its 3x3 curvature block is
eliminated by a Schur complement, frame by frame, leaving a dense system over
poses and scales. A step is kept only if the energy drops, so the energy trace
is monotone. Frame 0's pose and the first edge's scale are pinned (gauge
freedom).
"""

from __future__ import annotations

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


def rodrigues_jacobian(w: np.ndarray) -> np.ndarray:
    """dR/dw as a (3, 3, 3) array: [k] is the derivative w.r.t. w[k].

    Closed form for exp-map derivatives; first-order Taylor below the
    small-angle threshold. Finite-difference checked in the tests.
    """
    w = np.asarray(w, dtype=np.float64)
    th2 = float(w @ w)
    out = np.empty((3, 3, 3))
    if th2 < _SMALL_ANGLE**2:
        k = _skew(w)
        for idx in range(3):
            e = np.zeros(3)
            e[idx] = 1.0
            ek = _skew(e)
            out[idx] = ek + 0.5 * (ek @ k + k @ ek)
        return out
    r = rodrigues(w)
    eye = np.eye(3)
    for idx in range(3):
        e = eye[idx]
        v = np.cross(w, (eye - r) @ e)
        out[idx] = ((w[idx] * _skew(w) + _skew(v)) / th2) @ r
    return out


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
    """Frames, intrinsics, pairwise predictions and per-edge dynamic masks."""

    frames: list[int]
    intrinsics: list[Intrinsics]
    edges: list[AlignmentEdge]
    ego_maps: list[Pointmap]

    def __post_init__(self):
        n = len(self.frames)
        if len(self.intrinsics) != n or len(self.ego_maps) != n:
            raise ValueError("per-frame lists must match the frame count")
        for e in self.edges:
            if not (0 <= e.i < n and 0 <= e.j < n and e.i != e.j):
                raise ValueError("edge endpoints out of range")
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


@dataclass
class _EdgePre:
    """Flattened per-edge arrays the energy loops over."""

    i: int
    j: int
    edge_index: int
    cols: np.ndarray  # camera unknowns of the edge: pose of i (6), scale (1)
    idx_ii: np.ndarray
    pts_ii: np.ndarray
    w_ii: np.ndarray
    idx_ji: np.ndarray
    pts_ji: np.ndarray
    w_ji: np.ndarray
    idx_2d: np.ndarray
    f_2d: np.ndarray
    k: Intrinsics


def _prepare(problem: AlignmentProblem, opts: AlignmentOptions) -> list[_EdgePre]:
    n = len(problem.frames)
    pres = []
    for ei, e in enumerate(problem.edges):
        k = problem.intrinsics[e.i]
        pred = e.pred
        sel_ii = pred.x_ii.valid.ravel()
        sel_ji = pred.x_ji.valid.ravel()
        m = pred.x_ji_matched
        sel_2d = m.valid & (m.points[..., 2] > EPS_Z)
        if opts.use_dynamic_mask and e.mask is not None:
            sel_2d = sel_2d & ~e.mask.mask
        pres.append(
            _EdgePre(
                i=e.i,
                j=e.j,
                edge_index=ei,
                cols=np.r_[6 * e.i : 6 * e.i + 6, 6 * n + ei],
                idx_ii=np.flatnonzero(sel_ii),
                pts_ii=pred.x_ii.points.reshape(-1, 3)[sel_ii],
                w_ii=pred.conf_ii.values.ravel()[sel_ii],
                idx_ji=np.flatnonzero(sel_ji),
                pts_ji=pred.x_ji.points.reshape(-1, 3)[sel_ji],
                w_ji=pred.conf_ji.values.ravel()[sel_ji],
                idx_2d=np.flatnonzero(sel_2d.ravel()),
                f_2d=project_points(m.points[sel_2d], k)[0],
                k=k,
            )
        )
    return pres


def _left_jacobian(w: np.ndarray) -> np.ndarray:
    """J with columns c_k such that dR/dw_k = [c_k]x R."""
    m = rodrigues_jacobian(w) @ rodrigues(w).T
    return np.stack([m[:, 2, 1], m[:, 0, 2], m[:, 1, 0]])


def _blocks(pres, v, opts, want_jac):
    """Residual blocks, one per (edge, term), as
    [energy, frame, pixels, r, u, d r/d chi, d r/d camera, camera columns].

    r is (n, 3) for the 3D terms and (n, 2) for the 2D term; u are the IRLS
    weights of the pseudo-Huber kernel, so u r is the energy's gradient in r.
    Without want_jac a block holds its energy only. Rotations are
    differentiated in rotation-vector coordinates through the left Jacobian:
    d(R p)/dw = -[R p]x J.
    """
    delta = _HUBER_DELTA
    rot = [rodrigues(w) for w in v.rotvecs]
    jl = [_left_jacobian(w) for w in v.rotvecs] if want_jac else None
    scales = np.exp(v.log_scales)
    flat_maps = v.pointmaps.reshape(len(v.pointmaps), -1, 3)
    for pre in pres:
        r_i = rot[pre.i]
        t_i = v.translations[pre.i]
        s = scales[pre.edge_index]
        for idx, pts, w, fidx in (
            (pre.idx_ii, pre.pts_ii, pre.w_ii, pre.i),
            (pre.idx_ji, pre.pts_ji, pre.w_ji, pre.j),
        ):
            if idx.size == 0:
                continue
            mapped_local = pts @ r_i.T
            mapped = s * mapped_local + t_i
            r = flat_maps[fidx][idx] - mapped
            # overflow to inf is fine here: an infinite energy raises
            # DivergenceError at the start and rejects a step later
            with np.errstate(over="ignore"):
                root = np.sqrt((r * r).sum(axis=1) + delta * delta)
            block = [float((w * (root - delta)).sum())]
            if want_jac:
                a = s * mapped_local
                j_cam = np.empty((idx.size, 3, 7))
                j_cam[..., :3] = _skew(a) @ jl[pre.i]
                j_cam[..., 3:6] = -np.eye(3)
                j_cam[..., 6] = -a
                j_chi = np.broadcast_to(np.eye(3), (idx.size, 3, 3))
                block += [fidx, idx, r, w / root, j_chi, j_cam, pre.cols]
            yield block
        if opts.lambda_2d > 0 and pre.idx_2d.size:
            d = flat_maps[pre.j][pre.idx_2d] - t_i
            y = d @ r_i  # R_i^T d, row form
            ok = y[:, 2] > EPS_Z
            if not ok.any():
                continue
            idx, y, d = pre.idx_2d[ok], y[ok], d[ok]
            r2 = project_points(y, pre.k)[0] - pre.f_2d[ok]
            root2 = np.sqrt((r2 * r2).sum(axis=1) + delta * delta)
            block = [opts.lambda_2d * float((root2 - delta).sum())]
            if want_jac:
                z = y[:, 2]
                jp = np.zeros((idx.size, 2, 3))  # d(pixel)/dy
                jp[:, 0, 0], jp[:, 1, 1] = pre.k.fx / z, pre.k.fy / z
                jp[:, :, 2] = -jp[:, [0, 1], [0, 1]] * y[:, :2] / z[:, None]
                j_chi = jp @ r_i.T
                j_cam = np.concatenate([j_chi @ _skew(d) @ jl[pre.i], -j_chi], axis=2)
                u2 = opts.lambda_2d / root2
                block += [pre.j, idx, r2, u2, j_chi, j_cam, pre.cols[:6]]
            yield block


@dataclass
class _NormalSystem:
    """IRLS Gauss-Newton system, split into camera and per-pixel chi blocks.

    Camera unknowns are [rotvec, translation] per frame, then one log-scale
    per edge; the gauge columns are present here and dropped in the solve.
    Frame f's pixels couple only to the camera columns cols[f], so its
    coupling block b[f] is (pixels, 3, len(cols[f])).
    """

    h: np.ndarray  # camera-camera block
    g: np.ndarray  # camera gradient
    c: np.ndarray  # (F, pixels, 3, 3) chi-chi blocks
    g_chi: np.ndarray  # (F, pixels, 3) chi gradient
    cols: list[np.ndarray]
    b: list[np.ndarray]


def _energy_and_grad(
    problem: AlignmentProblem,
    pres: list[_EdgePre],
    v: AlignmentVariables,
    opts: AlignmentOptions,
    want_grad: bool = True,
):
    """Energy and, with want_grad, its gradient and IRLS normal system.

    Every block adds u J^T r to the gradient and u J^T J to the system, so the
    gradient is exact and the system is the Gauss-Newton curvature of the
    current IRLS majorant.
    """
    blocks = _blocks(pres, v, opts, want_grad)
    if not want_grad:
        return sum((blk[0] for blk in blocks), 0.0), None, None
    n = len(problem.frames)
    dim = 6 * n + len(v.log_scales)
    pix = v.pointmaps[0].size // 3
    cols = [[] for _ in range(n)]
    for pre in pres:
        cols[pre.i].append(pre.cols)
        cols[pre.j].append(pre.cols)
    cols = [np.unique(np.concatenate(c)) if c else np.zeros(0, int) for c in cols]
    system = _NormalSystem(
        np.zeros((dim, dim)), np.zeros(dim), np.zeros((n, pix, 3, 3)), np.zeros((n, pix, 3)),
        cols, [np.zeros((pix, 3, c.size)) for c in cols],
    )
    energy = 0.0
    for e, f, idx, r, u, j_chi, j_cam, jc in blocks:
        energy += e
        j_flat = j_cam.reshape(-1, jc.size)
        system.g[jc] += j_flat.T @ (u[:, None] * r).ravel()
        system.h[np.ix_(jc, jc)] += (np.repeat(u, r.shape[1])[:, None] * j_flat).T @ j_flat
        ut = u[:, None, None] * j_chi.transpose(0, 2, 1)  # u d r/d chi^T
        system.g_chi[f, idx] += (ut @ r[..., None])[..., 0]
        system.c[f, idx] += ut @ j_chi
        local = np.searchsorted(cols[f], jc)
        system.b[f][np.ix_(idx, np.arange(3), local)] += ut @ j_cam
    # pixels no term reaches get an inert unit block
    system.c[np.trace(system.c, axis1=2, axis2=3) == 0] = np.eye(3)
    cam = system.g[: 6 * n].reshape(n, 6)
    grad = AlignmentVariables(
        cam[:, :3], cam[:, 3:], system.g[6 * n :], system.g_chi.reshape(v.pointmaps.shape)
    )
    return energy, grad, system


def _lm_step(v: AlignmentVariables, system: _NormalSystem, damping: float) -> AlignmentVariables:
    """One Levenberg-Marquardt step: eliminate chi, solve, back-substitute.

    Damping scales every diagonal entry by (1 + damping). Raises LinAlgError
    when the reduced system cannot be solved.
    """
    n = len(v.rotvecs)
    h = system.h * (1.0 + damping * np.eye(len(system.g)))
    rhs = system.g.copy()
    c_inv = []
    for f, cols in enumerate(system.cols):
        ci = np.linalg.inv(system.c[f] * (1.0 + damping * np.eye(3)))
        k = ci @ system.b[f]
        h[np.ix_(cols, cols)] -= np.einsum("pac,pad->cd", system.b[f], k)
        rhs[cols] -= np.einsum("pac,pa->c", k, system.g_chi[f])
        c_inv.append(ci)
    # frame 0's pose and edge 0's scale carry the gauge; unknowns no term
    # touches (the last frame's pose) stay put
    keep = np.flatnonzero(np.diag(system.h) > 0)
    keep = keep[(keep >= 6) & (keep != 6 * n)]
    step = np.zeros_like(rhs)
    step[keep] = np.linalg.solve(h[np.ix_(keep, keep)], -rhs[keep])
    d_chi = [
        -np.einsum("pab,pb->pa", ci, system.g_chi[f] + system.b[f] @ step[cols])
        for f, (ci, cols) in enumerate(zip(c_inv, system.cols))
    ]
    cam = step[: 6 * n].reshape(n, 6)
    return AlignmentVariables(
        v.rotvecs + cam[:, :3],
        v.translations + cam[:, 3:],
        v.log_scales + step[6 * n :],
        v.pointmaps + np.reshape(d_chi, v.pointmaps.shape),
    )


def alignment_energy(
    problem: AlignmentProblem, v: AlignmentVariables, options: AlignmentOptions | None = None
) -> float:
    """Total energy of a variable assignment (no gradients)."""
    opts = options or AlignmentOptions()
    pres = _prepare(problem, opts)
    energy, _, _ = _energy_and_grad(problem, pres, v, opts, want_grad=False)
    return energy


def _init_identity(problem: AlignmentProblem) -> AlignmentVariables:
    n = len(problem.frames)
    h, w = problem.ego_maps[0].resolution
    v = AlignmentVariables(
        rotvecs=np.zeros((n, 3)),
        translations=np.zeros((n, 3)),
        log_scales=np.zeros(len(problem.edges)),
        pointmaps=np.zeros((n, h, w, 3)),
    )
    for f in range(n):
        v.pointmaps[f] = problem.ego_maps[f].points
    return v


def _init_pairwise(problem: AlignmentProblem, pres: list[_EdgePre]) -> AlignmentVariables:
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
    for e in problem.edges:
        ego_j = problem.ego_maps[e.j]
        joint = ego_j.valid & e.pred.x_ji.valid
        if int(joint.sum()) < 3:
            continue
        src = ego_j.points[joint]
        dst = e.pred.x_ji.points[joint]
        try:
            s, r, t = umeyama(src, dst, with_scale=True)
        except EmptyDomainError:
            continue
        rel[(e.i, e.j)] = (s, r, t)

    rot = [np.eye(3) for _ in range(n)]
    cen = [np.zeros(3) for _ in range(n)]
    kappa = np.ones(n)
    seen = {0}
    frontier = [0]
    adj: dict[int, list[tuple[int, int, int]]] = {f: [] for f in range(n)}
    for e in problem.edges:
        adj[e.i].append((e.j, e.i, e.j))
        adj[e.j].append((e.i, e.i, e.j))
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

    for f in range(n):
        v.rotvecs[f] = rotation_log(rot[f])
        v.translations[f] = cen[f]
    for ei, e in enumerate(problem.edges):
        v.log_scales[ei] = float(np.log(max(kappa[e.i], 1e-12)))
    # gauge: normalize the first edge's scale to exactly 1
    shift = v.log_scales[0]
    if abs(shift) > 0:
        v.log_scales -= shift
        v.translations *= np.exp(-shift)
        kappa *= np.exp(-shift)

    h, w = problem.ego_maps[0].resolution
    num = np.zeros((n, h * w, 3))
    den = np.zeros((n, h * w, 1))
    scales = np.exp(v.log_scales)
    for pre in pres:
        r_i = rot[pre.i]
        t_i = v.translations[pre.i]
        s = scales[pre.edge_index]
        for idx, pts, wgt, fidx in (
            (pre.idx_ii, pre.pts_ii, pre.w_ii, pre.i),
            (pre.idx_ji, pre.pts_ji, pre.w_ji, pre.j),
        ):
            num[fidx][idx] += wgt[:, None] * (s * (pts @ r_i.T) + t_i)
            den[fidx][idx] += wgt[:, None]
    for f in range(n):
        base = kappa[f] * (problem.ego_maps[f].points.reshape(-1, 3) @ rot[f].T) + cen[f]
        filled = den[f][:, 0] > 0
        chi = base
        chi[filled] = num[f][filled] / den[f][filled]
        v.pointmaps[f] = chi.reshape(h, w, 3)
    return v


def global_align(
    problem: AlignmentProblem, options: AlignmentOptions | None = None
) -> AlignmentResult:
    """Jointly optimize poses, edge scales and global maps; monotone energy.

    Each iteration linearizes the residuals under the IRLS weights of the
    current iterate and takes one Levenberg-Marquardt step, the per-pixel chi
    blocks eliminated by their Schur complement. A step is kept only if it
    lowers the energy; otherwise the damping grows tenfold and the step is
    retried, and a run no damping can improve has converged. Frame 0's pose
    and edge 0's log-scale are held at the gauge. Raises DivergenceError if
    the initial energy is non-finite.
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
    converged = not problem.edges or energy < _ABS_TOL
    flat_tol_hits = 0

    while not converged and iters < opts.max_iters:
        e_before = trace[-1]
        _, _, system = _energy_and_grad(problem, pres, v, opts)
        iters += 1
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
        v, system = cand, None  # free the system before the next linearization
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
