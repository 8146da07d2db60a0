import json

import numpy as np
import pytest

from pointmatch.cli import DEPTH_FORMAT, main
from pointmatch.geometry import Pose
from pointmatch.io import (
    load_scene,
    read_meta,
    read_tensor,
    read_tensors,
    read_trajectory,
    save_scene,
    write_bundle,
    write_trajectory,
)
from pointmatch.scenes import SceneConfig, generate_scene


def random_pose(rng):
    a = rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(a)
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return Pose(q, rng.normal(size=3))


def write_probe(dir_path, arr, name="probe") -> dict:
    """Write arr as a bundle's one tensor, return its manifest entry."""
    [entry] = read_meta(write_bundle(dir_path, "probe-v1", {name: arr}), "probe-v1")["tensors"]
    return entry


def test_tensor_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(3, 5, 2))
    entry = write_probe(tmp_path, arr)
    assert entry == {
        "name": "probe",
        "dims": [3, 5, 2],
        "dtype": "f32",
        "order": "row-major",
    }
    back = read_tensor(tmp_path, entry)
    assert back.shape == arr.shape
    # storage truncates to float32
    np.testing.assert_array_equal(back, arr.astype(np.float32).astype(np.float64))


def test_tensor_reader_rejects_mismatches(tmp_path):
    entry = write_probe(tmp_path, np.zeros((4, 4)))
    short = dict(entry, dims=[4, 3])
    with pytest.raises(ValueError, match="bytes"):
        read_tensor(tmp_path, short)
    with pytest.raises(ValueError, match="dtype"):
        read_tensor(tmp_path, dict(entry, dtype="f64"))
    with pytest.raises(ValueError, match="order"):
        read_tensor(tmp_path, dict(entry, order="col-major"))
    (tmp_path / "probe.bin").write_bytes(b"\x00" * 17)
    with pytest.raises(ValueError, match="bytes"):
        read_tensor(tmp_path, entry)


@pytest.mark.parametrize("dims", [None, "4x4", [4, "4"], [4.0, 4], [4, -4], [True, 4]])
def test_tensor_reader_rejects_malformed_dims(tmp_path, dims):
    entry = write_probe(tmp_path, np.zeros((4, 4)))
    with pytest.raises(ValueError, match="dims"):
        read_tensor(tmp_path, dict(entry, dims=dims))


def test_tensor_reader_requires_dims(tmp_path):
    # without dims a one-element tensor would read back as a scalar
    entry = write_probe(tmp_path, np.ones((1, 1)))
    del entry["dims"]
    with pytest.raises(ValueError, match="dims"):
        read_tensor(tmp_path, entry)


def test_tensor_reader_counts_huge_dims_without_wrapping(tmp_path):
    # 2^62 x 4 elements wrap to 0 in int64 arithmetic, which an empty file matches
    entry = write_probe(tmp_path, np.zeros((0, 4)))
    with pytest.raises(ValueError, match=f"tensor probe: file holds 0 bytes, expected {2**66}$"):
        read_tensor(tmp_path, dict(entry, dims=[2**62, 4]))


def test_trajectory_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    poses = [random_pose(rng) for _ in range(5)]
    path = tmp_path / "poses.txt"
    write_trajectory(path, poses)
    back = read_trajectory(path)
    assert len(back) == 5
    for a, b in zip(poses, back):
        np.testing.assert_allclose(b.rotation, a.rotation, atol=1e-12)
        np.testing.assert_allclose(b.translation, a.translation, atol=1e-12)


def test_trajectory_rejects_malformed(tmp_path):
    path = tmp_path / "poses.txt"
    path.write_text("0 0.0 0.0 0.0 1.0 0.0\n")
    with pytest.raises(ValueError, match="8 fields"):
        read_trajectory(path)
    path.write_text("0 0.0 0.0 zero 1.0 0.0 0.0 0.0\n")
    with pytest.raises(ValueError, match="non-numeric"):
        read_trajectory(path)
    path.write_text("1 0.0 0.0 0.0 1.0 0.0 0.0 0.0\n")
    with pytest.raises(ValueError, match="indices"):
        read_trajectory(path)
    path.write_text("0 0.0 0.0 0.0 2.0 0.0 0.0 0.0\n")
    with pytest.raises(ValueError, match="unit"):
        read_trajectory(path)
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_trajectory(path)


def small_scene(seed=0, track_count=4):
    cfg = SceneConfig(
        seed=seed,
        frame_count=3,
        height=8,
        width=12,
        object_count=1,
        motion_magnitude=0.1,
        camera_magnitude=0.02,
        track_count=track_count,
    )
    return generate_scene(cfg)


def test_scene_roundtrip(tmp_path):
    seq = small_scene()
    save_scene(tmp_path / "scene", seq)
    back = load_scene(tmp_path / "scene")
    assert back.config == seq.config
    assert back.frame_count == seq.frame_count
    for f in range(seq.frame_count):
        np.testing.assert_array_equal(back.depths[f].depth, seq.depths[f].depth)
        np.testing.assert_array_equal(back.poses[f].rotation, seq.poses[f].rotation)
    np.testing.assert_array_equal(back.dynamic_labels, seq.dynamic_labels)
    np.testing.assert_array_equal(back.tracks.world, seq.tracks.world)


def test_scene_roundtrip_without_tracks(tmp_path):
    # tracks.json holds [] for the (0, T, 3) arrays; loading must still accept it
    seq = small_scene(seed=1, track_count=0)
    back = load_scene(save_scene(tmp_path / "scene", seq))
    assert back.tracks.query_pixels.shape == (0, 2)
    assert back.tracks.world.shape == (0, seq.frame_count, 3)


def test_scene_save_is_byte_deterministic(tmp_path):
    seq = small_scene(seed=5)
    a = save_scene(tmp_path / "a", seq)
    b = save_scene(tmp_path / "b", seq)
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_scene_load_rejects_tampering(tmp_path):
    seq = small_scene(seed=7)
    root = save_scene(tmp_path / "scene", seq)
    blob = bytearray((root / "depth_0001.bin").read_bytes())
    blob[:4] = np.array([1e6], dtype="<f4").tobytes()
    (root / "depth_0001.bin").write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="does not match"):
        load_scene(root)


def test_scene_load_rejects_unknown_config_key(tmp_path):
    seq = small_scene(seed=2)
    root = save_scene(tmp_path / "scene", seq)
    meta = (root / "meta.json").read_text()
    meta = meta.replace('"seed": 2', '"seed": 2, "zoom": 3')
    (root / "meta.json").write_text(meta)
    with pytest.raises(ValueError, match="config"):
        load_scene(root)


def test_scene_load_rejects_a_huge_integer_config_value(tmp_path):
    root = save_scene(tmp_path / "scene", small_scene(seed=2))
    meta = json.loads((root / "meta.json").read_text())
    meta["config"]["motion_magnitude"] = 10**400
    (root / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="config key motion_magnitude is too large"):
        load_scene(root)


def test_tensor_reader_rejects_path_names(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    entry = write_probe(tmp_path / "b", np.ones(3), name="secret")
    for name in ("../b/secret", str(tmp_path / "b" / "secret"), "..", "b\\secret"):
        with pytest.raises(ValueError, match="plain file name"):
            read_tensor(tmp_path / "a", dict(entry, name=name))


DEPTH_NAMES = [f"depth_{f:04d}" for f in range(3)]


@pytest.fixture
def depth_result(tmp_path):
    """The directory of a `depth` result on an 8x12x3 scene."""
    scene = save_scene(tmp_path / "scene", small_scene())
    assert main(["depth", str(scene), "--out", str(tmp_path / "depth")]) == 0
    return tmp_path / "depth"


def test_bundle_rejects_truncated_tensor_file(depth_result):
    meta = read_meta(depth_result, DEPTH_FORMAT)
    tensor_file = depth_result / f"{meta['tensors'][1]['name']}.bin"
    tensor_file.write_bytes(tensor_file.read_bytes()[:-4])
    with pytest.raises(ValueError, match="bytes"):
        read_tensors(depth_result, meta, DEPTH_NAMES)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda m: {"format": m["format"]},
        lambda m: dict(m, tensors=[{k: v for k, v in e.items() if k != "dims"}
                                   for e in m["tensors"]]),
        lambda m: dict(m, tensors=[[e["name"], e["dims"]] for e in m["tensors"]]),
    ],
    ids=["format-only", "entry-without-dims", "entries-not-objects"],
)
def test_bundle_rejects_malformed_manifest(depth_result, corrupt):
    meta_file = depth_result / "meta.json"
    meta_file.write_text(json.dumps(corrupt(json.loads(meta_file.read_text()))))
    with pytest.raises(ValueError):
        read_tensors(depth_result, read_meta(depth_result, DEPTH_FORMAT), DEPTH_NAMES)
