"""geoineq: spatial and temporal inequality metrics for geo-tagged
event streams aggregated over census tracts."""

from .aggregate import (
    TagSummary,
    TractAggregate,
    merge_aggregates,
    normalize_density,
)
from .cohort import Cohort
from .geo import (
    SpatialIndex,
    Tract,
    assign_tract,
    build_spatial_index,
    polygon_area_km2,
    tract_from_feature,
)
from .ingest import (
    CensusRecord,
    ParseStats,
    RawTractFeature,
    extract_hashtags,
    parse_census,
    parse_tracts,
)
from .metrics import (
    Distribution,
    IndexSuite,
    LorenzCurve,
    RankRow,
    day_night_rank_table,
    gini,
    hoover,
    index_suite,
    lorenz_curve,
    min_units_for_share,
    percentile_ratio,
    relative_entropy,
    suite_ratio,
    theil,
    top_share,
)
from .report import (
    PipelineConfig,
    Report,
    emit_choropleth,
    emit_lorenz_svg,
    run_pipeline,
    run_pipeline_full,
)
from .synth import SynthParams, generate_city, write_city

__version__ = "0.1.0"

__all__ = [
    "CensusRecord",
    "Cohort",
    "Distribution",
    "IndexSuite",
    "LorenzCurve",
    "ParseStats",
    "PipelineConfig",
    "RankRow",
    "RawTractFeature",
    "Report",
    "SpatialIndex",
    "SynthParams",
    "TagSummary",
    "Tract",
    "TractAggregate",
    "assign_tract",
    "build_spatial_index",
    "day_night_rank_table",
    "emit_choropleth",
    "emit_lorenz_svg",
    "extract_hashtags",
    "generate_city",
    "gini",
    "hoover",
    "index_suite",
    "lorenz_curve",
    "merge_aggregates",
    "min_units_for_share",
    "normalize_density",
    "parse_census",
    "parse_tracts",
    "percentile_ratio",
    "polygon_area_km2",
    "relative_entropy",
    "run_pipeline",
    "run_pipeline_full",
    "suite_ratio",
    "theil",
    "top_share",
    "tract_from_feature",
    "write_city",
]
