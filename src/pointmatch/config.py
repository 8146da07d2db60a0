"""Run configuration shared by every command.

One flat dataclass covers scene generation, predictor noise, windowing, and
alignment. Precedence when assembling a run: built-in defaults, then keys from
a JSON config file, then explicit command-line flags. Unknown keys are
rejected rather than ignored so typos fail loudly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .alignment import AlignmentOptions
from .errors import check_finite
from .pipelines import DEFAULT_OVERLAP, DEFAULT_WINDOW
from .scenes import SceneConfig


@dataclass
class RunConfig:
    # scene generation; each default is its owner's
    seed: int = SceneConfig.seed
    frame_count: int = SceneConfig.frame_count
    height: int = SceneConfig.height
    width: int = SceneConfig.width
    object_count: int = SceneConfig.object_count
    motion_magnitude: float = SceneConfig.motion_magnitude
    camera_path: str = SceneConfig.camera_path
    camera_magnitude: float = SceneConfig.camera_magnitude
    track_count: int = SceneConfig.track_count
    # predictor corruption: per-point sigma (depth-proportional) and
    # per-pair log-scale sigma
    noise: float = 0.0
    jitter: float = 0.0
    # sliding-window inference
    window: int = DEFAULT_WINDOW
    overlap: int = DEFAULT_OVERLAP
    # global alignment
    stride: int = 5
    lambda_2d: float = AlignmentOptions.lambda_2d
    use_dynamic_mask: bool = True
    max_iters: int = AlignmentOptions.max_iters
    tol: float = AlignmentOptions.tol

    def __post_init__(self):
        check_finite(noise=self.noise, jitter=self.jitter)
        if self.noise < 0 or self.jitter < 0:
            raise ValueError("noise and jitter must be >= 0")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.overlap < 0:
            raise ValueError("overlap must be >= 0")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        # reuse the scene and solver validation for their fields
        self.scene_config()
        self.alignment_options()

    def scene_config(self) -> SceneConfig:
        return SceneConfig(**{f.name: getattr(self, f.name) for f in fields(SceneConfig)})

    def alignment_options(self) -> AlignmentOptions:
        return AlignmentOptions(**{f.name: getattr(self, f.name) for f in fields(AlignmentOptions)})

    def effective_window(self) -> tuple[int, int]:
        """Window/overlap actually fed to the sliding-window code.

        window=1 means the chained pairwise baseline; a pair needs two frames,
        so it maps to the smallest real window and the overlap is clamped.
        Any other window must exceed its overlap, else ValueError. The check
        is made here, where the pair is used, because commands that read only
        the window (recon) take no --overlap flag to mend the default with.
        """
        if self.window == 1:
            return 2, min(self.overlap, 1)
        if self.overlap >= self.window:
            raise ValueError(f"overlap {self.overlap} must be < window {self.window}")
        return self.window, self.overlap

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return cls(**typed_fields(cls, data))

    def updated(self, overrides: dict) -> "RunConfig":
        """New config with overrides applied on top (flag precedence)."""
        merged = asdict(self)
        merged.update(overrides)
        return self.from_dict(merged)


def typed_fields(cls, data) -> dict:
    """Keyword arguments for dataclass cls from a JSON object, checked per field.

    Unknown keys and values of the wrong JSON type raise ValueError (a boolean
    is not an integer); integers given for float fields become floats.
    """
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    coerced = {}
    for name, value in data.items():
        kind = known[name].type
        if kind == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"config key {name} must be an integer")
        elif kind == "float":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"config key {name} must be a number")
            value = float(value)
        elif kind == "bool":
            if not isinstance(value, bool):
                raise ValueError(f"config key {name} must be a boolean")
        elif kind == "str":
            if not isinstance(value, str):
                raise ValueError(f"config key {name} must be a string")
        coerced[name] = value
    return coerced


def load_config_file(path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return data


def build_config(config_path=None, flag_overrides: dict | None = None) -> RunConfig:
    """defaults < config file < flags."""
    cfg = RunConfig()
    if config_path is not None:
        cfg = cfg.updated(load_config_file(config_path))
    if flag_overrides:
        cfg = cfg.updated(flag_overrides)
    return cfg
