"""On-disk formats: bundle directories of raw f32 tensors, and trajectory text.

A bundle directory holds `meta.json` (a `format` tag, a `tensors` manifest and
any other fields) and one `<name>.bin` per manifest entry: scenes and the
CLI's task results, told apart by their format tag.
`write_bundle` writes one, refusing a tensor that float32 cannot hold;
`read_meta` and `read_tensors` read one back, rejecting a malformed manifest
or a missing tensor with ValueError.

Everything written here is deterministic for fixed inputs: JSON is dumped with
sorted keys and a trailing newline, tensors are little-endian float32
row-major, and text floats use repr (shortest round-trip). No timestamps, so
rerunning a writer reproduces its output byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import typed_fields
from .geometry import Pose, invert_pose, quat_to_rotation, rotation_to_quat
from .scenes import SceneConfig, SceneSequence, TrackSet, generate_scene

TENSOR_DTYPE = "f32"
TENSOR_ORDER = "row-major"
SCENE_FORMAT = "pointmatch-scene-v1"
# tracks.json fields: those compared exactly on load, and the float ones
_TRACK_EXACT = ("query_frames", "query_pixels", "visible")
_TRACK_FLOAT = ("world", "camera", "pixels")


def dump_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def load_json(path):
    return json.loads(Path(path).read_text())


def read_tensor(dir_path, entry: dict) -> np.ndarray:
    """Read the tensor a manifest entry describes; rejects any mismatch."""
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError("tensor entry has no name")
    # a separator would let the entry reach outside the bundle (an absolute
    # path starts with one)
    if name in (".", "..") or "/" in name or "\\" in name:
        raise ValueError(f"tensor name {name!r} is not a plain file name")
    if entry.get("dtype") != TENSOR_DTYPE:
        raise ValueError(f"tensor {name}: dtype must be {TENSOR_DTYPE!r}")
    if entry.get("order") != TENSOR_ORDER:
        raise ValueError(f"tensor {name}: order must be {TENSOR_ORDER!r}")
    dims = entry.get("dims")
    # a bool is not an integer
    if not isinstance(dims, list) or not all(type(d) is int and d >= 0 for d in dims):
        raise ValueError(f"tensor {name}: dims must be a list of non-negative integers")
    count = int(np.prod(dims)) if dims else 1
    raw = (Path(dir_path) / (name + ".bin")).read_bytes()
    if len(raw) != 4 * count:
        raise ValueError(
            f"tensor {name}: file holds {len(raw)} bytes, expected {4 * count}"
        )
    return np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(dims)


def write_bundle(dir_path, fmt: str, tensors: dict, **fields) -> Path:
    """Make dir_path and write one `<name>.bin` per tensor (in dict order) and `meta.json`.

    Raises ValueError, before writing any file, naming the first tensor that
    float32 cannot hold: one with a NaN, an infinity or a value beyond the
    float32 range.
    """
    with np.errstate(over="ignore"):
        tensors = {name: np.asarray(arr, dtype=np.float64).astype("<f4")
                   for name, arr in tensors.items()}
    for name, arr in tensors.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"tensor {name} holds a value float32 cannot hold")
    out = Path(dir_path)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for name, arr in tensors.items():
        (out / (name + ".bin")).write_bytes(arr.tobytes())  # row-major
        entries.append({"name": name, "dims": list(arr.shape),
                        "dtype": TENSOR_DTYPE, "order": TENSOR_ORDER})
    dump_json(out / "meta.json", {"format": fmt, "tensors": entries, **fields})
    return out


def read_meta(dir_path, fmt: str) -> dict:
    """A bundle's `meta.json`: an object tagged `fmt` with a list-of-objects
    `tensors` manifest."""
    root = Path(dir_path)
    meta = load_json(root / "meta.json")
    if not isinstance(meta, dict) or meta.get("format") != fmt:
        raise ValueError(f"{root} is not a {fmt} directory")
    entries = meta.get("tensors")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError(f"{root}/meta.json has no list of tensor entries")
    return meta


def read_tensors(dir_path, meta: dict, names: Sequence[str] | None = None) -> list[np.ndarray]:
    """Tensors of the bundle `read_meta` gave `meta` for: the named ones in the
    order asked, or without names every tensor in manifest order."""
    if names is None:
        return [read_tensor(dir_path, e) for e in meta["tensors"]]
    entries = {e.get("name"): e for e in meta["tensors"]}
    for name in names:
        if name not in entries:
            raise ValueError(f"{dir_path} is missing tensor {name}")
    return [read_tensor(dir_path, entries[name]) for name in names]


def write_trajectory(path, poses: Sequence[Pose]) -> None:
    """Camera-to-world lines "frame tx ty tz qw qx qy qz", repr precision."""
    lines = []
    for idx, pose in enumerate(poses):
        c2w = invert_pose(pose)
        q = rotation_to_quat(c2w.rotation)
        vals = " ".join(repr(float(v)) for v in (*c2w.translation, *q))
        lines.append(f"{idx} {vals}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_trajectory(path) -> list[Pose]:
    """Parse a trajectory file back into world-to-camera poses."""
    poses: list[Pose] = []
    for ln, line in enumerate(Path(path).read_text().splitlines()):
        parts = line.split()
        if len(parts) != 8:
            raise ValueError(f"trajectory line {ln}: expected 8 fields, got {len(parts)}")
        try:
            idx = int(parts[0])
            vals = np.array([float(p) for p in parts[1:]])
        except ValueError:
            raise ValueError(f"trajectory line {ln}: non-numeric field") from None
        if idx != len(poses):
            raise ValueError(f"trajectory line {ln}: frame indices must run 0,1,2,...")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"trajectory line {ln}: non-finite value")
        t, q = vals[:3], vals[3:]
        norm = float(np.linalg.norm(q))
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"trajectory line {ln}: quaternion is not unit length")
        r_c2w = quat_to_rotation(q / norm)
        poses.append(Pose(r_c2w.T, -r_c2w.T @ t))
    if not poses:
        raise ValueError("empty trajectory file")
    return poses


def _scene_tensors(seq: SceneSequence) -> dict:
    """Per frame, its depth map and then its dynamic labels, by tensor name."""
    out = {}
    for f in range(seq.frame_count):
        out[f"depth_{f:04d}"] = seq.depths[f].depth
        out[f"dynamic_{f:04d}"] = seq.dynamic_labels[f].astype(np.float64)
    return out


def save_scene(dir_path, seq: SceneSequence) -> Path:
    """Write a scene directory: meta.json + per-frame tensors + poses + tracks."""
    out = write_bundle(
        dir_path,
        SCENE_FORMAT,
        _scene_tensors(seq),
        config=asdict(seq.config),
        intrinsics=[{"fx": k.fx, "fy": k.fy, "cx": k.cx, "cy": k.cy} for k in seq.intrinsics],
    )
    write_trajectory(out / "poses.txt", seq.poses)
    dump_json(
        out / "tracks.json",
        {name: getattr(seq.tracks, name).tolist() for name in _TRACK_EXACT + _TRACK_FLOAT},
    )
    return out


def load_scene(dir_path) -> SceneSequence:
    """Rebuild a scene from its directory.

    The generator is deterministic, so the config alone regenerates the exact
    sequence; the stored tensors (f32 truncation tolerance), poses and tracks
    are cross-checked against that regeneration to catch tampered or
    mislabeled directories. Returns the full-precision regenerated sequence.
    """
    root = Path(dir_path)
    meta = read_meta(root, SCENE_FORMAT)
    seq = generate_scene(SceneConfig(**typed_fields(SceneConfig, meta.get("config"))))

    wants = _scene_tensors(seq)
    for (name, want), stored in zip(wants.items(), read_tensors(root, meta, list(wants))):
        if stored.shape != want.shape or not np.allclose(stored, want, rtol=1e-6, atol=1e-6):
            raise ValueError(f"tensor {name} does not match the scene config")
    poses = read_trajectory(root / "poses.txt")
    if len(poses) != seq.frame_count:
        raise ValueError("poses.txt frame count does not match the scene config")
    for f, (got, want_p) in enumerate(zip(poses, seq.poses)):
        if not (
            np.allclose(got.rotation, want_p.rotation, atol=1e-9)
            and np.allclose(got.translation, want_p.translation, atol=1e-9)
        ):
            raise ValueError(f"pose {f} does not match the scene config")
    ks = meta.get("intrinsics")
    if not isinstance(ks, list) or len(ks) != seq.frame_count or any(
        not isinstance(e, dict)
        or e.get("fx") != k.fx or e.get("fy") != k.fy or e.get("cx") != k.cx or e.get("cy") != k.cy
        for e, k in zip(ks, seq.intrinsics)
    ):
        raise ValueError("intrinsics do not match the scene config")
    _check_tracks(root / "tracks.json", seq.tracks)
    return seq


def _check_tracks(path: Path, tracks: TrackSet) -> None:
    """tracks.json must hold the regenerated tracks: query frames, query pixels
    and visibility exactly, the float fields to 1e-9."""
    if not path.is_file():
        raise ValueError("scene directory is missing tracks.json")
    stored = load_json(path)
    if not isinstance(stored, dict):
        raise ValueError("tracks.json must hold a JSON object")
    for name in _TRACK_EXACT:
        if stored.get(name) != getattr(tracks, name).tolist():
            raise ValueError(f"tracks.json {name} does not match the scene config")
    for name in _TRACK_FLOAT:
        want = getattr(tracks, name)
        try:
            got = np.asarray(stored.get(name), dtype=np.float64)
        except (TypeError, ValueError):
            raise ValueError(f"tracks.json {name} is not a numeric array") from None
        if got.size == want.size == 0:  # JSON [] drops the (0, T, k) shape
            continue
        if got.shape != want.shape or not np.allclose(got, want, rtol=0.0, atol=1e-9):
            raise ValueError(f"tracks.json {name} does not match the scene config")
