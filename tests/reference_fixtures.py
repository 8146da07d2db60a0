"""Fixture recipes shared by tools/make_references.py and the acceptance tests.

Both sides must run the exact same computation: the tool commits its output
under tests/reference/, the acceptance suite reruns the recipe and compares.
Keep the configs frozen; regenerating the references is an intentional act.
"""

from __future__ import annotations

import numpy as np

from pointmatch.attention import fit_denoiser
from pointmatch.metrics import apd
from pointmatch.pipelines import OraclePredictor, track_3d
from pointmatch.scenes import SceneConfig, build_tracks, generate_scene

FIT_CONFIG = {
    "scene_seeds": [100, 101, 102, 103],
    "frame_count": 6,
    "height": 16,
    "width": 24,
    "heads": 2,
    "cell": 8,
    "steps": 320,
    "lr": 5e-3,
    "sigma_scale": 0.2,
    "seed": 0,
}

TREND_CONFIG = {
    "seeds": 50,
    "seed_base": 300,
    "frame_count": 14,
    "height": 16,
    "width": 24,
    "track_count": 8,
    "sigma_scale": 0.15,
    "windows": {"pairwise": [2, 1], "6": [6, 4], "12": [12, 4]},
}

HEADS_CONFIG = {
    "seeds": 50,
    "seed_base": 400,
    "frame_count": 8,
    "height": 16,
    "width": 24,
    "object_count": 2,
    "motion_magnitude": 0.12,
    "max_queries": 6,
    "window": 8,
    "overlap": 4,
}


def fit_scenes():
    return [
        generate_scene(
            SceneConfig(
                seed=s,
                frame_count=FIT_CONFIG["frame_count"],
                height=FIT_CONFIG["height"],
                width=FIT_CONFIG["width"],
                object_count=1,
                motion_magnitude=0.0,
                camera_path="orbit",
                camera_magnitude=0.01,
                track_count=0,
            )
        )
        for s in FIT_CONFIG["scene_seeds"]
    ]


def run_fit():
    return fit_denoiser(
        fit_scenes(),
        heads=FIT_CONFIG["heads"],
        cell=FIT_CONFIG["cell"],
        steps=FIT_CONFIG["steps"],
        lr=FIT_CONFIG["lr"],
        sigma_scale=FIT_CONFIG["sigma_scale"],
        seed=FIT_CONFIG["seed"],
    )


def window_trend_apds(seed: int) -> dict[str, float]:
    cfg = SceneConfig(
        seed=TREND_CONFIG["seed_base"] + seed,
        frame_count=TREND_CONFIG["frame_count"],
        height=TREND_CONFIG["height"],
        width=TREND_CONFIG["width"],
        object_count=1,
        motion_magnitude=0.0,
        camera_magnitude=0.0,
        track_count=TREND_CONFIG["track_count"],
    )
    seq = generate_scene(cfg)
    pred = OraclePredictor(seq, sigma_scale=TREND_CONFIG["sigma_scale"], seed=1)
    gt = seq.tracks
    out = {}
    for name, (w, o) in TREND_CONFIG["windows"].items():
        res = track_3d(seq, pred, gt.query_pixels, window=w, overlap=o)
        out[name] = apd(res.tracks, gt.camera, gt.visible, res.valid).apd
    return out


def matched_vs_rigid_apds(seed: int) -> tuple[float, float]:
    cfg = SceneConfig(
        seed=HEADS_CONFIG["seed_base"] + seed,
        frame_count=HEADS_CONFIG["frame_count"],
        height=HEADS_CONFIG["height"],
        width=HEADS_CONFIG["width"],
        object_count=HEADS_CONFIG["object_count"],
        motion_magnitude=HEADS_CONFIG["motion_magnitude"],
        camera_magnitude=0.0,
        track_count=0,
    )
    seq = generate_scene(cfg)
    dyn0 = seq.dynamic_labels[0]
    if not dyn0.any():
        raise RuntimeError(f"seed {seed}: no dynamic pixels at frame 0")
    ys, xs = np.nonzero(dyn0)
    pick = np.linspace(0, len(xs) - 1, min(HEADS_CONFIG["max_queries"], len(xs))).astype(int)
    queries = np.stack([xs[pick], ys[pick]], axis=1)
    gt = build_tracks(seq, queries)
    pred = OraclePredictor(seq)
    scores = []
    for mode in ("matched", "rigid"):
        res = track_3d(
            seq, pred, queries,
            window=HEADS_CONFIG["window"], overlap=HEADS_CONFIG["overlap"], mode=mode,
        )
        scores.append(apd(res.tracks, gt.camera, gt.visible, res.valid).apd)
    return scores[0], scores[1]
