"""Temporal self-attention over pointmap tokens, with hand-written gradients.

Token grids are (B, T, N, C): batch, time, tokens-per-frame, channels. The
module attends only along T; the token axis is merged into the batch, so
frames talk to each other but tokens never do. Two pre-norm residual blocks
(multi-head self-attention, then a 4x feed-forward), output projections
zero-initialized so an untrained module is exactly the identity.

Everything is float64 numpy. Backward passes are analytic and checked against
central finite differences in the tests. The GELU's erf comes from
scipy.special, imported on first use: scipy serves only this module, so
importing pointmatch, or a command that never runs the module, does not load
it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .geometry import DepthMap, Intrinsics, Pointmap, unproject

LN_EPS = 1e-5
N_BLOCKS = 2
FFN_MULT = 4

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


@dataclass
class TokenGrid:
    """(B, T, N, C) float64 token tensor; all entries finite."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 4:
            raise ValueError("token grid must be (B, T, N, C)")
        if v.shape[1] < 1:
            raise ValueError("token grid needs at least one frame")
        if not np.all(np.isfinite(v)):
            raise ValueError("token grid entries must be finite")
        self.values = v

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.values.shape  # type: ignore[return-value]


@dataclass
class MotionParams:
    """Named parameter tensors for the temporal module.

    tensors maps name -> float64 array; `names` gives its keys in order.
    """

    channels: int
    heads: int
    t_max: int
    tensors: dict[str, np.ndarray]

    @property
    def names(self) -> list[str]:
        return list(self.tensors)


def sinusoidal_table(t_max: int, channels: int) -> np.ndarray:
    """Standard sin/cos positional table, (t_max, channels)."""
    pos = np.arange(t_max, dtype=np.float64)[:, None]
    i = np.arange(channels, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * (i // 2)) / channels)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return table


def init_params(channels: int, heads: int = 4, t_max: int = 12, seed: int = 0) -> MotionParams:
    """Initialize the module; zero output projections make it the identity."""
    if channels < 1 or heads < 1 or t_max < 1:
        raise ValueError("channels, heads, t_max must be positive")
    if channels % heads != 0:
        raise ValueError("heads must divide channels")
    rng = np.random.Generator(np.random.Philox(seed))
    w_scale = 0.02
    tensors: dict[str, np.ndarray] = {}

    def add(name, arr):
        tensors[name] = np.asarray(arr, dtype=np.float64)

    add("pos", sinusoidal_table(t_max, channels))
    hidden = FFN_MULT * channels
    for b in range(N_BLOCKS):
        p = f"block{b}"
        add(f"{p}.ln_attn.gain", np.ones(channels))
        add(f"{p}.ln_attn.bias", np.zeros(channels))
        for nm in ("wq", "wk", "wv"):
            add(f"{p}.attn.{nm}", rng.normal(scale=w_scale, size=(channels, channels)))
        for nm in ("bq", "bk", "bv"):
            add(f"{p}.attn.{nm}", np.zeros(channels))
        add(f"{p}.attn.wo", np.zeros((channels, channels)))
        add(f"{p}.attn.bo", np.zeros(channels))
        add(f"{p}.ln_ffn.gain", np.ones(channels))
        add(f"{p}.ln_ffn.bias", np.zeros(channels))
        add(f"{p}.ffn.w1", rng.normal(scale=w_scale, size=(channels, hidden)))
        add(f"{p}.ffn.b1", np.zeros(hidden))
        add(f"{p}.ffn.w2", np.zeros((hidden, channels)))
        add(f"{p}.ffn.b2", np.zeros(channels))
    return MotionParams(channels=channels, heads=heads, t_max=t_max, tensors=tensors)


def _gelu(x):
    from scipy.special import erf

    return 0.5 * x * (1.0 + erf(x / _SQRT2))


def _gelu_grad(x):
    from scipy.special import erf

    phi = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    return 0.5 * (1.0 + erf(x / _SQRT2)) + x * phi


def _ln_forward(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return xhat * gain + bias, (xhat, inv, gain)


def _ln_backward(dy, cache):
    xhat, inv, gain = cache
    dgain = (dy * xhat).sum(axis=(0, 1))
    dbias = dy.sum(axis=(0, 1))
    dxhat = dy * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - m1 - xhat * m2)
    return dx, dgain, dbias


def _split_heads(x, heads):
    m, t, c = x.shape
    return x.reshape(m, t, heads, c // heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    m, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(m, t, h * dh)


def _forward_cached(x, params: MotionParams):
    """x: (M, T, C). Returns (out, caches)."""
    t = x.shape[1]
    pos = params.tensors["pos"][:t]
    heads = params.heads
    scale = 1.0 / np.sqrt(params.channels / heads)
    caches = []
    for b in range(N_BLOCKS):
        p = f"block{b}"
        tn = params.tensors
        a, ln_a = _ln_forward(x, tn[f"{p}.ln_attn.gain"], tn[f"{p}.ln_attn.bias"])
        ap = a + pos
        q = ap @ tn[f"{p}.attn.wq"] + tn[f"{p}.attn.bq"]
        k = ap @ tn[f"{p}.attn.wk"] + tn[f"{p}.attn.bk"]
        v = ap @ tn[f"{p}.attn.wv"] + tn[f"{p}.attn.bv"]
        qh, kh, vh = (_split_heads(z, heads) for z in (q, k, v))
        s = (qh @ kh.transpose(0, 1, 3, 2)) * scale
        s -= s.max(axis=-1, keepdims=True)  # stable softmax
        e = np.exp(s)
        attn = e / e.sum(axis=-1, keepdims=True)
        ctx = _merge_heads(attn @ vh)
        x = x + (ctx @ tn[f"{p}.attn.wo"] + tn[f"{p}.attn.bo"])
        f, ln_f = _ln_forward(x, tn[f"{p}.ln_ffn.gain"], tn[f"{p}.ln_ffn.bias"])
        h1 = f @ tn[f"{p}.ffn.w1"] + tn[f"{p}.ffn.b1"]
        hg = _gelu(h1)
        x = x + (hg @ tn[f"{p}.ffn.w2"] + tn[f"{p}.ffn.b2"])
        caches.append((ln_a, ap, qh, kh, vh, attn, ctx, ln_f, f, h1, hg))
    return x, caches


def _backward(dout, caches, params: MotionParams, t: int):
    heads = params.heads
    scale = 1.0 / np.sqrt(params.channels / heads)
    tn = params.tensors
    grads = {n: np.zeros_like(tn[n]) for n in params.names}
    dx = dout
    for b in reversed(range(N_BLOCKS)):
        p = f"block{b}"
        ln_a, ap, qh, kh, vh, attn, ctx, ln_f, f, h1, hg = caches[b]
        # ffn branch
        d_o2 = dx
        grads[f"{p}.ffn.b2"] += d_o2.sum(axis=(0, 1))
        grads[f"{p}.ffn.w2"] += np.einsum("mth,mtc->hc", hg, d_o2)
        d_hg = d_o2 @ tn[f"{p}.ffn.w2"].T
        d_h1 = d_hg * _gelu_grad(h1)
        grads[f"{p}.ffn.b1"] += d_h1.sum(axis=(0, 1))
        grads[f"{p}.ffn.w1"] += np.einsum("mtc,mth->ch", f, d_h1)
        d_f = d_h1 @ tn[f"{p}.ffn.w1"].T
        d_ln, dg, db = _ln_backward(d_f, ln_f)
        grads[f"{p}.ln_ffn.gain"] += dg
        grads[f"{p}.ln_ffn.bias"] += db
        dx = dx + d_ln
        # attention branch
        d_o = dx
        grads[f"{p}.attn.bo"] += d_o.sum(axis=(0, 1))
        grads[f"{p}.attn.wo"] += np.einsum("mtc,mtd->cd", ctx, d_o)
        d_ctx = _split_heads(d_o @ tn[f"{p}.attn.wo"].T, heads)
        d_attn = d_ctx @ vh.transpose(0, 1, 3, 2)
        d_vh = attn.transpose(0, 1, 3, 2) @ d_ctx
        d_s = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
        d_qh = (d_s @ kh) * scale
        d_kh = (d_s.transpose(0, 1, 3, 2) @ qh) * scale
        d_q, d_k, d_v = (_merge_heads(z) for z in (d_qh, d_kh, d_vh))
        grads[f"{p}.attn.bq"] += d_q.sum(axis=(0, 1))
        grads[f"{p}.attn.bk"] += d_k.sum(axis=(0, 1))
        grads[f"{p}.attn.bv"] += d_v.sum(axis=(0, 1))
        grads[f"{p}.attn.wq"] += np.einsum("mtc,mtd->cd", ap, d_q)
        grads[f"{p}.attn.wk"] += np.einsum("mtc,mtd->cd", ap, d_k)
        grads[f"{p}.attn.wv"] += np.einsum("mtc,mtd->cd", ap, d_v)
        d_ap = d_q @ tn[f"{p}.attn.wq"].T + d_k @ tn[f"{p}.attn.wk"].T + d_v @ tn[f"{p}.attn.wv"].T
        grads["pos"][:t] += d_ap.sum(axis=0)
        d_ln, dg, db = _ln_backward(d_ap, ln_a)
        grads[f"{p}.ln_attn.gain"] += dg
        grads[f"{p}.ln_attn.bias"] += db
        dx = dx + d_ln
    return grads


def _check_tokens(tokens: TokenGrid, params: MotionParams):
    b, t, n, c = tokens.shape
    if c != params.channels:
        raise ValueError(f"token channels {c} != module channels {params.channels}")
    if t > params.t_max:
        raise ValueError(f"window {t} exceeds positional table t_max {params.t_max}")


def forward(tokens: TokenGrid, params: MotionParams) -> TokenGrid:
    """Run the module; output shape equals input shape."""
    _check_tokens(tokens, params)
    b, t, n, c = tokens.shape
    x = tokens.values.transpose(0, 2, 1, 3).reshape(b * n, t, c)
    out, _ = _forward_cached(x, params)
    return TokenGrid(out.reshape(b, n, t, c).transpose(0, 2, 1, 3))


def loss_and_grad(
    tokens: TokenGrid, params: MotionParams, target: TokenGrid
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean-squared error to target and analytic gradients for every parameter.

    Positional rows beyond the window length get exactly zero gradient.
    """
    _check_tokens(tokens, params)
    if target.shape != tokens.shape:
        raise ValueError("target shape must match input")
    b, t, n, c = tokens.shape
    x = tokens.values.transpose(0, 2, 1, 3).reshape(b * n, t, c)
    tgt = target.values.transpose(0, 2, 1, 3).reshape(b * n, t, c)
    out, caches = _forward_cached(x, params)
    diff = out - tgt
    loss = float((diff * diff).mean())
    dout = (2.0 / diff.size) * diff
    grads = _backward(dout, caches, params, t)
    return loss, grads


def window_consistency(out: np.ndarray, clean: np.ndarray) -> float:
    """Token-stream analogue of the windowed map losses.

    Per window: mean over (T, N) of || out/z - clean/z_bar || with z the mean
    row norm of the stream over the window. Scale-invariant per stream.
    """
    if out.shape != clean.shape or out.ndim != 4:
        raise ValueError("need matching (B, T, N, C) tensors")
    total = 0.0
    for b in range(out.shape[0]):
        z = np.linalg.norm(out[b], axis=-1).mean()
        z_bar = np.linalg.norm(clean[b], axis=-1).mean()
        z = z if z > 1e-12 else 1.0
        z_bar = z_bar if z_bar > 1e-12 else 1.0
        total += float(np.linalg.norm(out[b] / z - clean[b] / z_bar, axis=-1).mean())
    return total / out.shape[0]


def pool_tokens(depth: DepthMap, k: Intrinsics, cell: int = 8) -> np.ndarray:
    """Average-pool an unprojected depth map into (N, 4) tokens.

    Channels are (x, y, z, |p|); the norm channel scales coherently with the
    point channels, so global scale acts on whole tokens. The map is cropped
    to a multiple of the cell size; empty cells become zero tokens.
    """
    pm = unproject(depth, k)
    h, w = pm.resolution
    hc, wc = (h // cell) * cell, (w // cell) * cell
    if hc == 0 or wc == 0:
        raise ValueError("resolution smaller than pooling cell")
    pts = pm.points[:hc, :wc].reshape(hc // cell, cell, wc // cell, cell, 3)
    val = pm.valid[:hc, :wc].reshape(hc // cell, cell, wc // cell, cell)
    counts = val.sum(axis=(1, 3)).astype(np.float64)
    sums = (pts * val[..., None]).sum(axis=(1, 3))
    mean = sums / np.maximum(counts, 1.0)[..., None]
    mean[counts == 0] = 0.0
    xyz = mean.reshape(-1, 3)
    return np.concatenate([xyz, np.linalg.norm(xyz, axis=1, keepdims=True)], axis=1)


@dataclass
class FitResult:
    params: MotionParams
    losses: list[float]  # window consistency loss, step 0 = before training
    mse: list[float]


def fit_denoiser(
    scenes,
    *,
    heads: int = 2,
    cell: int = 8,
    steps: int = 320,
    lr: float = 5e-3,
    sigma_scale: float = 0.2,
    seed: int = 0,
) -> FitResult:
    """Train the module to undo per-frame scale jitter on scene token windows.

    Each scene contributes one window: per-frame tokens from pooled ego
    pointmaps, corrupted by an exp(N(0, sigma^2)) scale per frame. Full-batch
    Adam on the MSE to the clean tokens; the recorded curve is the
    scale-invariant window consistency loss. Raises DivergenceError if the
    objective goes non-finite.
    """
    if not scenes:
        raise ValueError("need at least one scene")
    t_len = scenes[0].frame_count
    for s in scenes:
        if s.frame_count != t_len:
            raise ValueError("scenes must share frame_count")
    clean = np.stack(
        [
            np.stack([pool_tokens(s.depths[t], s.intrinsics[t], cell) for t in range(t_len)])
            for s in scenes
        ]
    )  # (B, T, N, 4)
    rng = np.random.Generator(np.random.Philox(seed))
    factors = np.exp(rng.normal(scale=sigma_scale, size=(clean.shape[0], t_len)))
    noisy = clean * factors[:, :, None, None]

    params = init_params(channels=clean.shape[-1], heads=heads, t_max=t_len, seed=seed)
    noisy_g, clean_g = TokenGrid(noisy), TokenGrid(clean)

    m = {n: np.zeros_like(v) for n, v in params.tensors.items()}
    v = {n: np.zeros_like(t) for n, t in params.tensors.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    losses = [window_consistency(noisy, clean)]
    mses = []
    for step in range(1, steps + 1):
        mse, grads = loss_and_grad(noisy_g, params, clean_g)
        if not np.isfinite(mse):
            raise DivergenceError("denoiser objective went non-finite", trace=mses)
        mses.append(mse)
        for n in params.names:
            g = grads[n]
            m[n] = beta1 * m[n] + (1 - beta1) * g
            v[n] = beta2 * v[n] + (1 - beta2) * g * g
            mh = m[n] / (1 - beta1**step)
            vh = v[n] / (1 - beta2**step)
            params.tensors[n] -= lr * mh / (np.sqrt(vh) + eps)
        out = forward(noisy_g, params).values
        cons = window_consistency(out, clean)
        if not np.isfinite(cons):
            raise DivergenceError("denoiser consistency went non-finite", trace=losses)
        losses.append(cons)
    return FitResult(params=params, losses=losses, mse=mses)
