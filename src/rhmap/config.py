"""Configuration dataclasses and the flat key=value config file format."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields


class ConfigError(ValueError):
    """Raised for invalid configuration values or unknown config keys."""


def _check_finite(cfg):
    """Reject a NaN or infinite float field; NaN passes every ``<=`` test."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")


@dataclass
class MapConfig:
    cube_size: float = 0.1
    mask_bits: int = 3

    @property
    def mask(self) -> int:
        return (1 << self.mask_bits) - 1

    @property
    def region_size(self) -> float:
        return (self.mask + 1) * self.cube_size

    def validate(self):
        if not (self.cube_size > 0 and math.isfinite(self.cube_size)):
            raise ConfigError(f"cube_size must be positive, got {self.cube_size}")
        # a region keeps two bitmaps of 2**(3 * mask_bits) bits whatever
        # its fill (map_core): 1 KB a region at 4, but 8 and 64 KB at 5
        # and 6, which outweigh a table of 8 B a cube on sparse regions
        if not 1 <= self.mask_bits <= 4:
            raise ConfigError(
                f"mask_bits must be in 1..4, got {self.mask_bits}: a "
                f"region's two bitmaps take 2**(3 * mask_bits) / 4 bytes "
                f"whatever its fill")
        return self


@dataclass
class FrontendConfig:
    delta1: float = 0.2
    delta2: float = 0.2
    r1: float = 1.0
    r2: float = 1.0
    r_gro: float = 1.25            # cube units
    max_search: int = 10
    image_rows: int = 64
    image_cols: int = 1080
    fov_down_deg: float = -24.8
    fov_up_deg: float = 2.0
    r_max: float = 80.0
    bootstrap_margin: float = 0.3  # provisional ground reference above column min z
    min_ground_normal_z: float = 0.8  # reject ground fits steeper than ~37 degrees
    min_flag_points: int = 6       # scan points a column needs before it can flag

    @property
    def fov(self) -> tuple[float, float]:
        return (math.radians(self.fov_down_deg), math.radians(self.fov_up_deg))

    def validate(self):
        _check_finite(self)
        for name in ("delta1", "delta2", "r1", "r2", "r_gro", "r_max"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        # with no step no sup/inf bound is found, and ratio2 never flags
        if self.max_search < 1:
            raise ConfigError(f"max_search must be at least 1, got {self.max_search}")
        if self.image_rows < 1 or self.image_cols < 1:
            raise ConfigError("range image must have at least one row and column")
        if self.fov_down_deg >= self.fov_up_deg:
            raise ConfigError("vertical FOV interval is empty")
        # a fitted normal is a unit vector: above 1 no ground fit passes
        if not 0 <= self.min_ground_normal_z <= 1:
            raise ConfigError(f"min_ground_normal_z must be in [0, 1], got "
                              f"{self.min_ground_normal_z}")
        return self


@dataclass
class BackendConfig:
    dist_keyframe: float = 5.0
    time_keyframe: float = 10.0
    info_delta: float = 10.0       # percentage points
    dist_away: float = 20.0
    queue_capacity: int = 50
    max_per_step: int = 1

    def validate(self):
        _check_finite(self)
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ConfigError(f"{f.name} must be positive")
        return self


@dataclass
class PipelineConfig:
    map: MapConfig = field(default_factory=MapConfig)
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    backend: BackendConfig = field(default_factory=BackendConfig)
    backend_enabled: bool = True

    def validate(self):
        self.map.validate()
        self.frontend.validate()
        self.backend.validate()
        return self


_SUBSECTIONS = ("map", "frontend", "backend")


def _coerce(raw: str, like):
    if isinstance(like, bool):
        low = raw.strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if isinstance(like, int):
        return int(raw, 0)
    return float(raw)


def set_config_key(cfg: PipelineConfig, key: str, raw: str):
    """Assign one flat ``key = value`` pair, searching the nested sections."""
    targets = [cfg] + [getattr(cfg, s) for s in _SUBSECTIONS]
    for target in targets:
        for f in fields(target):
            if f.name == key and f.name not in _SUBSECTIONS:
                try:
                    setattr(target, key, _coerce(raw, getattr(target, key)))
                except ValueError as e:
                    raise ConfigError(f"bad value for {key!r}: {e}") from e
                return
    raise ConfigError(f"unknown config key {key!r}")


def load_config(path: str, cfg: PipelineConfig | None = None) -> PipelineConfig:
    """Parse a flat UTF-8 ``key = value`` file with # comments.

    The keys are set on ``cfg`` (the defaults when None); keys the file
    leaves out keep their values.
    """
    cfg = cfg or PipelineConfig()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            try:
                set_config_key(cfg, key, raw)
            except ConfigError as e:
                raise ConfigError(f"{path}:{lineno}: {e}") from e
    return cfg.validate()
