"""geoineq: spatial and temporal inequality metrics for geo-tagged
event streams aggregated over census tracts."""

from .report import PipelineConfig, run_pipeline

__version__ = "0.1.0"

__all__ = ["PipelineConfig", "run_pipeline"]
