import json

import numpy as np
import pytest

from pointmatch.cli import DEPTH_FORMAT, main
from pointmatch.geometry import Pose, pixel_rays
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


# an 8x12 scene whose wide orbit turns some rays away from every surface: it
# holds backdrop pixels, misses, and moving (dynamic) objects' pixels, some in
# front of the backdrop and some where the backdrop is missed
WIDE = SceneConfig(seed=2, frame_count=2, height=8, width=12, object_count=2,
                   motion_magnitude=0.1, camera_path="orbit", camera_magnitude=2.6,
                   track_count=4)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


ROUNDTRIP_CONFIGS = {
    "orbit": small_scene().config,
    "no-objects": SceneConfig(seed=3, frame_count=3, height=8, width=12, object_count=0),
    "linear-no-tracks": SceneConfig(seed=4, frame_count=3, height=8, width=12,
                                    camera_path="linear", track_count=0),
    "random-smooth": SceneConfig(seed=5, frame_count=3, height=8, width=12, object_count=2,
                                 camera_path="random-smooth"),
    "wide-orbit-misses": WIDE,
}


def test_scene_roundtrip(tmp_path):
    # a saved scene loads as generate_scene's sequence, bit for bit
    for name, cfg in ROUNDTRIP_CONFIGS.items():
        seq = generate_scene(cfg)
        back = load_scene(save_scene(tmp_path / name, seq))
        assert back.config == seq.config
        assert back.frame_count == seq.frame_count
        for f in range(seq.frame_count):
            assert same_bits(back.depths[f].depth, seq.depths[f].depth)
            assert same_bits(back.depths[f].valid, seq.depths[f].valid)
            np.testing.assert_array_equal(back.poses[f].rotation, seq.poses[f].rotation)
        assert same_bits(back.hit_id, seq.hit_id)
        assert same_bits(back.dynamic_labels, seq.dynamic_labels)
        for field in ("query_frames", "query_pixels", "world", "camera", "pixels", "visible"):
            assert same_bits(getattr(back.tracks, field), getattr(seq.tracks, field)), field


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


@pytest.fixture(scope="module")
def wide_scene():
    return generate_scene(WIDE)


def first_pixel(seq, surface) -> tuple[int, int, int]:
    """(frame, y, x) of the first pixel whose surface id passes surface."""
    return tuple(int(i) for i in np.argwhere(surface(seq.hit_id))[0])


def margin(depth: float) -> float:
    """The distance a stored depth may lie from its surface."""
    return 1e-9 * (1.0 + abs(depth))


def set_tensor(root, name, dtype, pixel, value) -> None:
    """Overwrite one pixel (y, x) of a stored (H, W) tensor."""
    meta = read_meta(root, "pointmatch-scene-v2")
    [dims] = [e["dims"] for e in meta["tensors"] if e["name"] == name]
    path = root / f"{name}.bin"
    arr = np.frombuffer(path.read_bytes(), dtype=dtype).reshape(dims).copy()
    arr[pixel] = value
    path.write_bytes(arr.tobytes())


def set_depth(root, frame, y, x, value) -> None:
    set_tensor(root, f"depth_{frame:04d}", "<f8", (y, x), value)


def backdrop_past_margin(seq):
    f, y, x = first_pixel(seq, lambda ids: ids == -1)
    d = seq.depths[f].depth[y, x]
    return f, y, x, d + 2.0 * margin(d)


def backdrop_crossing(seq, f, y, x) -> tuple[float, bool]:
    """(t, ok) of the backdrop along pixel (x, y)'s ray at frame f."""
    pose = seq.poses[f]
    # two rows, as a one-row product may take another BLAS path
    dirs = pixel_rays(seq.intrinsics[f], np.array([[x, y], [x, y]], dtype=float)) @ pose.rotation
    t, ok = seq.background.intersect(pose.center[None], dirs[None])
    return float(t[0, 0]), bool(ok[0, 0])


def object_in_front(seq) -> tuple[int, int, int]:
    """(frame, y, x) of the first object pixel whose ray crosses the backdrop too."""
    return next((int(f), int(y), int(x)) for f, y, x in np.argwhere(seq.hit_id >= 0)
                if backdrop_crossing(seq, f, y, x)[1])


def object_past_margin(seq):
    f, y, x = object_in_front(seq)
    d = seq.depths[f].depth[y, x]
    return f, y, x, d - 2.0 * margin(d)


def object_on_the_sky_past_margin(seq):
    f, y, x = next(p for p in np.argwhere(seq.hit_id >= 0)
                   if not backdrop_crossing(seq, *p)[1])
    d = seq.depths[f].depth[y, x]
    return f, y, x, d + 2.0 * margin(d)


def object_given_backdrop_depth(seq):
    # the backdrop behind the object: a surface of the ray, but not its nearest
    f, y, x = object_in_front(seq)
    t, _ = backdrop_crossing(seq, f, y, x)
    assert t > seq.depths[f].depth[y, x] + 1e-3
    return f, y, x, t


def miss_given_depth(seq):
    f, y, x = first_pixel(seq, lambda ids: ids == -2)
    return f, y, x, 1.0


def hit_given_zero(seq):
    f, y, x = first_pixel(seq, lambda ids: ids == -1)
    return f, y, x, 0.0


@pytest.mark.parametrize("edit", [backdrop_past_margin, object_past_margin,
                                  object_on_the_sky_past_margin, object_given_backdrop_depth,
                                  miss_given_depth, hit_given_zero])
def test_scene_load_rejects_a_depth_off_its_surface(tmp_path, wide_scene, edit):
    root = save_scene(tmp_path / "scene", wide_scene)
    f, y, x, value = edit(wide_scene)
    set_depth(root, f, y, x, value)
    with pytest.raises(ValueError, match=rf"depth of frame {f} at pixel \({x}, {y}\) does not match"):
        load_scene(root)


def test_scene_load_rejects_a_flipped_dynamic_label(tmp_path, wide_scene):
    root = save_scene(tmp_path / "scene", wide_scene)
    f, y, x = first_pixel(wide_scene, lambda ids: ids >= 0)
    assert wide_scene.dynamic_labels[f, y, x]
    set_tensor(root, f"dynamic_{f:04d}", "<f4", (y, x), 0.0)
    with pytest.raises(ValueError, match=f"tensor dynamic_{f:04d} does not match"):
        load_scene(root)


def test_scene_load_uses_a_stored_depth_within_its_margin(tmp_path, wide_scene):
    # frame 1: a frame-0 query pixel's depth moves its track's world points
    # by more than tracks.json's 1e-9
    root = save_scene(tmp_path / "scene", wide_scene)
    f = 1
    for surface in (lambda ids: ids == -1, lambda ids: ids >= 0):
        y, x = np.argwhere(surface(wide_scene.hit_id[f]))[0]
        d = wide_scene.depths[f].depth[y, x]
        moved = d + 0.5 * margin(d)
        assert moved != d
        set_depth(root, f, y, x, moved)
        assert load_scene(root).depths[f].depth[y, x] == moved


def test_scene_load_rejects_a_v1_directory(tmp_path, wide_scene):
    # v1 stored float32 depths; its directories are not read
    root = save_scene(tmp_path / "scene", wide_scene)
    meta = json.loads((root / "meta.json").read_text())
    for entry in meta["tensors"]:
        path = root / f"{entry['name']}.bin"
        if entry["dtype"] == "f64":
            path.write_bytes(np.frombuffer(path.read_bytes(), "<f8").astype("<f4").tobytes())
            entry["dtype"] = "f32"
    meta["format"] = "pointmatch-scene-v1"
    (root / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="its format is 'pointmatch-scene-v1'"):
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
