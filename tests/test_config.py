import json

import pytest

from pointmatch.alignment import AlignmentOptions
from pointmatch.config import RunConfig, build_config, load_config_file
from pointmatch.pipelines import DEFAULT_OVERLAP, DEFAULT_WINDOW
from pointmatch.scenes import SceneConfig


def test_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.window == 12
    assert cfg.overlap == 4
    assert cfg.stride == 5
    assert cfg.lambda_2d == 0.01
    assert cfg.use_dynamic_mask is True
    sc = cfg.scene_config()
    assert (sc.height, sc.width) == (24, 32)


def test_defaults_are_their_owners():
    cfg = RunConfig()
    assert cfg.scene_config() == SceneConfig()
    assert cfg.alignment_options() == AlignmentOptions()
    assert (cfg.window, cfg.overlap) == (DEFAULT_WINDOW, DEFAULT_OVERLAP)


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys: zoom"):
        RunConfig.from_dict({"zoom": 3})


def test_from_dict_rejects_wrong_types():
    with pytest.raises(ValueError, match="integer"):
        RunConfig.from_dict({"window": 6.5})
    with pytest.raises(ValueError, match="boolean"):
        RunConfig.from_dict({"use_dynamic_mask": 1})
    with pytest.raises(ValueError, match="number"):
        RunConfig.from_dict({"noise": "big"})
    with pytest.raises(ValueError, match="string"):
        RunConfig.from_dict({"camera_path": 7})


def test_value_validation():
    with pytest.raises(ValueError):
        RunConfig(window=0)
    with pytest.raises(ValueError):
        RunConfig(noise=-0.1)
    with pytest.raises(ValueError):
        RunConfig(stride=0)
    with pytest.raises(ValueError):
        RunConfig(camera_path="spiral")


def test_precedence_defaults_file_flags(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 7, "window": 6, "noise": 0.01}))
    cfg = build_config(path, {"window": 8})
    assert cfg.seed == 7  # from file
    assert cfg.window == 8  # flag wins over file
    assert cfg.noise == 0.01  # from file
    assert cfg.overlap == 4  # default


def test_config_file_must_be_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="object"):
        load_config_file(path)
    path.write_text("{not json")
    with pytest.raises(ValueError, match="JSON"):
        load_config_file(path)


def test_effective_window_pairwise_mode():
    assert RunConfig(window=1, overlap=4).effective_window() == (2, 1)
    assert RunConfig(window=6, overlap=4).effective_window() == (6, 4)
    assert RunConfig(window=12, overlap=4).effective_window() == (12, 4)


def test_effective_window_rejects_overlap_not_below_window():
    for window, overlap in [(4, 9), (4, 4), (2, 2)]:
        with pytest.raises(ValueError, match="overlap"):
            RunConfig(window=window, overlap=overlap).effective_window()
    assert RunConfig(window=2, overlap=1).effective_window() == (2, 1)
    assert RunConfig(window=1, overlap=9).effective_window() == (2, 1)


def test_updated_keeps_original():
    base = RunConfig()
    new = base.updated({"seed": 9, "jitter": 0.2})
    assert base.seed == 0 and new.seed == 9
    assert new.jitter == 0.2



@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_floats_are_rejected_at_construction(bad):
    from pointmatch.alignment import AlignmentOptions
    from pointmatch.pipelines import OraclePredictor
    from pointmatch.scenes import SceneConfig

    for name in ("noise", "jitter", "motion_magnitude", "camera_magnitude", "lambda_2d", "tol"):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            RunConfig(**{name: bad})
    for name in ("motion_magnitude", "camera_magnitude"):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SceneConfig(**{name: bad})
    for name in ("tol", "lambda_2d"):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            AlignmentOptions(**{name: bad})
    for name in ("sigma_point", "sigma_scale"):
        # the check comes before the scene is used
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            OraclePredictor(None, **{name: bad})
