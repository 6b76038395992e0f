"""geoineq: spatial and temporal inequality metrics for geo-tagged
event streams aggregated over census tracts.

``PipelineConfig`` and ``run_pipeline`` load on first use, so that
importing the package loads no numpy: ``python -m geoineq`` and the
``geoineq`` script reach ``cli`` before numpy loads."""

__version__ = "0.1.0"

__all__ = ["PipelineConfig", "run_pipeline"]


def __getattr__(name: str):
    if name in __all__:
        from . import report

        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
