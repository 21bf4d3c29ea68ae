"""Online static map construction with region-wise hashing and dynamic
object removal."""

from .config import (BackendConfig, ConfigError, FrontendConfig, MapConfig,
                     PipelineConfig, load_config)
from .geometry import Pose, Scan, transform_scan
from .map_core import RHMap
from .pipeline import PipelineResult, run_pipeline

__all__ = [
    "BackendConfig", "ConfigError", "FrontendConfig", "MapConfig",
    "PipelineConfig", "load_config", "Pose", "Scan", "transform_scan",
    "RHMap", "PipelineResult", "run_pipeline",
]

__version__ = "0.1.0"
