"""Pipeline orchestration and report emission.

``run_pipeline`` goes parse -> assign (events outside every tract are
dropped and counted) -> classify users -> aggregate per cohort ->
indexes, deterministically: identical inputs and config give
byte-identical report JSON, no matter how many partitions the event
stream was split into.

The event file is split at record boundaries into one byte range per
partition, and each range is processed by the same two-phase job.
Classification is global (a user's posts can land in any partition), so
the job first parses, assigns and summarises user activity, then waits
for the cohort labels the parent classifies from every partition's
summaries, then aggregates. With ``--partitions 1`` the job runs in the
parent process; otherwise each range gets a forked worker, which uses
the spatial index it inherits and talks to the parent over a pipe. The
parent's merge and classify code is the same for every partition count.
"""

from __future__ import annotations

import json
import math
import multiprocessing as mp
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

import numpy as np

from . import jsonio
from .aggregate import (
    TractAggregate,
    aggregate_batch,
    cohort_mask,
    merge_aggregate_maps,
    merge_tag_components,
    normalize_density,
    tag_summary_from_components,
)
from .cohort import Cohort, classify_partials, merge_partials, user_partials
from .errors import (
    AllZero,
    BadBreakCount,
    EmptyCurveList,
    InternalInvariantError,
    MissingInput,
    TooFewUnits,
)
from .geo import Tract, build_spatial_index, tract_from_feature
from .ingest import (
    ParseStats,
    parse_census,
    parse_event_batch,
    parse_tracts,
    partition_byte_ranges,
    read_byte_range,
)
from .metrics import (
    Distribution,
    IndexSuite,
    LorenzCurve,
    RankRow,
    day_night_rank_table,
    index_suite,
    lorenz_curve,
    min_units_for_share,
    relative_entropy,
    suite_ratio,
    top_share,
)
from .timebins import LocalClock

DISTRIBUTION_NAMES = ("images", "tags", "unique_tags")
DEFAULT_COHORTS = ("visitor", "local", "super_local", "all")
DEFAULT_CHOROPLETH_BREAKS = 5

OUTPUT_NAMES = {
    "report": "report.json",
    "indexes": "indexes.csv",
    "tags": "tags.csv",
    "ranks": "ranks.csv",
    "tracts": "tracts.csv",
    "lorenz": "lorenz.svg",
    "choropleth": "choropleth.geojson",
}


@dataclass(frozen=True)
class PipelineConfig:
    events_path: str
    tracts_path: str
    census_path: str | None = None
    timezone: str = "America/New_York"
    window_days: int = 12
    normalization: str = "per_km2"  # "raw" | "per_km2"
    cohorts: tuple[str, ...] = DEFAULT_COHORTS
    out_dir: str = "out"
    seed: int = 0  # echoed for synth-generated inputs
    events_format: str = "csv"

    def validate(self) -> None:
        if self.window_days < 1:
            raise ValueError("window_days must be >= 1")
        if self.normalization not in ("raw", "per_km2"):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.events_format not in ("csv", "jsonl"):
            raise ValueError(f"unknown events format {self.events_format!r}")
        try:
            ZoneInfo(self.timezone)
        except (ZoneInfoNotFoundError, ValueError):
            raise ValueError(f"unknown timezone {self.timezone!r}") from None
        bad = [c for c in self.cohorts if c not in DEFAULT_COHORTS]
        if bad:
            raise ValueError(f"unknown cohorts {bad}")
        if not self.cohorts:
            raise ValueError("at least one cohort must be reported")


@dataclass
class Report:
    config: PipelineConfig
    ingest: dict
    tracts: dict
    users: dict
    events_by_cohort: dict
    distributions: dict
    concentration: dict
    temporal: dict
    tag_summaries: dict
    census_indexes: dict | None
    rank_table: list[RankRow]
    manifest: list[str] = field(default_factory=list)
    lorenz_curves: list[LorenzCurve] = field(default_factory=list, repr=False)
    choropleth_values: dict[str, float] = field(default_factory=dict, repr=False)

    def to_json_dict(self) -> dict:
        cfg = self.config
        return {
            "schema": "geoineq-report/1",
            "config": {
                "events_path": str(cfg.events_path),
                "tracts_path": str(cfg.tracts_path),
                "census_path": str(cfg.census_path) if cfg.census_path else None,
                "timezone": cfg.timezone,
                "window_days": cfg.window_days,
                "normalization": cfg.normalization,
                "cohorts": list(cfg.cohorts),
                "seed": cfg.seed,
                "events_format": cfg.events_format,
            },
            "ingest": self.ingest,
            "tracts": self.tracts,
            "users": self.users,
            "events_by_cohort": self.events_by_cohort,
            "distributions": self.distributions,
            "concentration": self.concentration,
            "temporal": self.temporal,
            "tag_summary": self.tag_summaries,
            "census_indexes": self.census_indexes,
            "rank_table": [
                {
                    "tract_id": r.tract_id,
                    "day_rank": r.day_rank,
                    "night_rank": r.night_rank,
                    "income_flag": r.income_flag,
                }
                for r in self.rank_table
            ],
            "manifest": list(self.manifest),
        }


@dataclass
class PipelineInternals:
    tracts: tuple[Tract, ...]
    tract_ids: tuple[str, ...]
    labels: dict[str, Cohort]
    aggregates: dict[str, TractAggregate]
    dataset_months: list[tuple[int, int]]


def suite_to_dict(suite: IndexSuite | None) -> dict | None:
    if suite is None:
        return None
    return {
        "gini": suite.gini,
        "ratio_80_20": suite.ratio_80_20,
        "ratio_90_10": suite.ratio_90_10,
        "hoover": suite.hoover,
        "theil": suite.theil,
    }


# --- partition job ----------------------------------------------------------


def _parse_assign(events_path, fmt, byte_range, index):
    """Parse one byte range and assign tracts: (parse stats, number of
    events outside every tract, the events inside, their tract indexes)."""
    stats = ParseStats()
    batch = parse_event_batch(
        read_byte_range(events_path, byte_range), fmt, stats, expect_header=False
    )
    tract_idx = index.assign_batch(batch.lats, batch.lons)
    keep = np.flatnonzero(tract_idx >= 0)
    return stats, len(batch) - len(keep), batch.take(keep), tract_idx[keep]


def _partition_job(events_path, fmt, byte_range, index, tz):
    """The two phases of one partition, as a generator.

    Phase 1 yields (parse stats, events outside every tract, user
    partials); the job is then sent the global cohort labels, and phase
    2 yields the partition's (aggregates, tag components, event totals).
    """
    stats, dropped, batch, tract_idx = _parse_assign(events_path, fmt, byte_range, index)
    uids, codes, partials = user_partials(batch.user_ids, batch.epochs, tz)
    labels = yield stats, dropped, partials
    mask_per_code = np.fromiter(
        (cohort_mask(labels[uid]) for uid in uids), dtype=np.uint8, count=len(uids)
    )
    clock = None
    if len(batch):
        clock = LocalClock(tz, float(batch.epochs.min()), float(batch.epochs.max()))
    agg = aggregate_batch(
        index.tract_ids, tract_idx, batch.epochs, batch.texts, mask_per_code[codes], clock
    )
    yield agg.aggregates, agg.tag_components, agg.event_totals


class _InProcess:
    """Drives a partition job in this process through the calls the
    parent makes on a worker's pipe."""

    def __init__(self, job):
        self._job = job
        self._labels = None  # a fresh generator must first be sent None

    def send(self, labels):
        self._labels = labels

    def recv(self):
        return "ok", self._job.send(self._labels)

    def close(self):
        self._job.close()


def _worker_main(conn, *job_args):
    try:
        job = _partition_job(*job_args)
        conn.send(("ok", next(job)))
        conn.send(("ok", job.send(conn.recv())))
    except Exception:
        conn.send(("err", traceback.format_exc()))
    finally:
        conn.close()


def _replies(conns, ranges):
    """Each partition's next reply, in partition order."""
    for i, (conn, (start, end)) in enumerate(zip(conns, ranges)):
        status, payload = conn.recv()
        if status != "ok":
            raise InternalInvariantError(
                f"partition {i} (bytes {start}-{end}) failed:\n{payload}"
            )
        yield payload


# --- pipeline ---------------------------------------------------------------


def run_pipeline_full(
    config: PipelineConfig, partitions: int = 1
) -> tuple[Report, PipelineInternals]:
    config.validate()
    if partitions < 1:
        raise ValueError("partitions must be >= 1")
    events_path = Path(config.events_path)
    tracts_path = Path(config.tracts_path)
    if not events_path.is_file():
        raise MissingInput(f"events file not found: {events_path}")
    if not tracts_path.is_file():
        raise MissingInput(f"tracts file not found: {tracts_path}")
    census = None
    if config.census_path is not None:
        census_path = Path(config.census_path)
        if not census_path.is_file():
            raise MissingInput(f"census file not found: {census_path}")
        census = parse_census(census_path.read_bytes())

    feats = parse_tracts(tracts_path.read_bytes())
    index = build_spatial_index([tract_from_feature(f) for f in feats])
    ranges = partition_byte_ranges(events_path, partitions, config.events_format)
    job_args = [
        (str(events_path), config.events_format, r, index, config.timezone) for r in ranges
    ]
    conns: list = []
    procs = []
    if partitions == 1:
        conns.append(_InProcess(_partition_job(*job_args[0])))
    else:
        ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else None)
        for args in job_args:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_worker_main, args=(child_conn, *args))
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)
    try:
        stats = ParseStats()
        dropped_total = 0
        partials: dict = {}
        for p_stats, dropped, p_partials in _replies(conns, ranges):
            stats.merge(p_stats)
            dropped_total += dropped
            partials = merge_partials(partials, p_partials)
        labels, dataset_months = classify_partials(partials, config.window_days)
        for conn in conns:
            conn.send(labels)
        aggregates: dict[str, TractAggregate] = {}
        tag_components: dict = {}
        event_totals: dict = {}
        for p_aggs, p_tags, p_totals in _replies(conns, ranges):
            aggregates = merge_aggregate_maps(aggregates, p_aggs)
            tag_components = merge_tag_components(tag_components, p_tags)
            for key, n in p_totals.items():
                event_totals[key] = event_totals.get(key, 0) + n
    except BaseException:
        # a forked worker holds copies of the parent's pipe ends, so one
        # waiting for labels would never see them close
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join()

    report = _build_report(
        config,
        index.tracts,
        index.tract_ids,
        stats,
        dropped_total,
        labels,
        aggregates,
        tag_components,
        event_totals,
        census,
        dataset_months,
    )
    internals = PipelineInternals(
        index.tracts, index.tract_ids, labels, aggregates, dataset_months
    )
    return report, internals


def run_pipeline(config: PipelineConfig, partitions: int = 1) -> Report:
    report, _ = run_pipeline_full(config, partitions)
    return report


# --- report assembly --------------------------------------------------------


def _try_suite(d: Distribution) -> IndexSuite | None:
    try:
        return index_suite(d)
    except (AllZero, TooFewUnits):
        return None


def _build_report(
    config,
    tracts,
    tract_ids,
    stats,
    dropped_total,
    labels,
    aggregates,
    tag_components,
    event_totals,
    census,
    dataset_months,
) -> Report:
    assigned = stats.records_ok - dropped_total
    n_all = event_totals.get("all", 0)
    n_visitor = event_totals.get("visitor", 0)
    n_local = event_totals.get("local", 0)
    if stats.records_ok + stats.records_skipped != stats.records_total:
        raise InternalInvariantError("parse accounting mismatch")
    if n_all != assigned or n_visitor + n_local != assigned:
        raise InternalInvariantError(
            f"event accounting mismatch: assigned={assigned} all={n_all} "
            f"visitor+local={n_visitor + n_local}"
        )

    areas = {t.tract_id: t.area_km2 for t in tracts}
    census_unmatched = (
        sorted(set(census) - set(tract_ids)) if census is not None else []
    )

    users = {"total": len(labels), "visitor": 0, "local": 0, "super_local": 0}
    for c in labels.values():
        users[c.kind] += 1
        if c.super_local:
            users["super_local"] += 1

    def bucket_counts(key: str, what: str) -> dict[str, float]:
        out = {}
        for tid in tract_ids:
            agg = aggregates.get(tid)
            st = agg.cohorts.get(key) if agg is not None else None
            if st is None:
                out[tid] = 0
            elif what == "images":
                out[tid] = st.event_count
            elif what == "tags":
                out[tid] = st.tag_count
            else:
                out[tid] = len(st.unique_tags)
        return out

    def values_for(counts: dict[str, float]) -> dict[str, float]:
        if config.normalization == "per_km2":
            return normalize_density(counts, areas)
        return {tid: float(v) for tid, v in counts.items()}

    distributions: dict = {}
    suites_by_dist: dict[str, dict[str, IndexSuite | None]] = {}
    images_values: dict[str, dict[str, float]] = {}
    for dist_name in DISTRIBUTION_NAMES:
        per_cohort: dict = {}
        suites: dict[str, IndexSuite | None] = {}
        for cohort in config.cohorts:
            counts = bucket_counts(cohort, dist_name)
            values = values_for(counts)
            if dist_name == "images":
                images_values[cohort] = values
            d = Distribution.from_mapping(values, label=f"{dist_name}/{cohort}")
            suite = _try_suite(d)
            suites[cohort] = suite
            per_cohort[cohort] = {
                "total": float(math.fsum(values.values())),
                "suite": suite_to_dict(suite),
            }
        ratio = None
        if suites.get("visitor") is not None and suites.get("local") is not None:
            ratio = suite_ratio(suites["visitor"], suites["local"])
        per_cohort["ratio_visitor_local"] = suite_to_dict(ratio)
        distributions[dist_name] = per_cohort
        suites_by_dist[dist_name] = suites

    concentration: dict = {}
    lorenz_curves: list[LorenzCurve] = []
    for cohort in config.cohorts:
        counts = bucket_counts(cohort, "images")
        values = images_values[cohort]
        d = Distribution.from_mapping(values, label=cohort)
        try:
            share10 = top_share(d, 0.1)
            min_half = min_units_for_share(d, 0.5)
            lorenz_curves.append(lorenz_curve(d))
        except AllZero:
            share10 = None
            min_half = None
        try:
            spatial_h = relative_entropy(counts)
        except AllZero:
            spatial_h = None
        concentration[cohort] = {
            "top_10pct_share": share10,
            "min_tracts_for_half": min_half,
            "spatial_relative_entropy": spatial_h,
        }

    temporal: dict = {}
    for cohort in config.cohorts:
        hourly = [0] * 24
        daily = [0] * 7
        monthly: dict[tuple[int, int], int] = {}
        day_n = 0
        night_n = 0
        for tid in tract_ids:
            agg = aggregates.get(tid)
            st = agg.cohorts.get(cohort) if agg is not None else None
            if st is None:
                continue
            for h in range(24):
                hourly[h] += st.hour_histogram[h]
            for dw in range(7):
                daily[dw] += st.dow_histogram[dw]
            for m, c in st.month_histogram.items():
                monthly[m] = monthly.get(m, 0) + c
            day_n += st.day_count
            night_n += st.night_count
        temporal[cohort] = {
            "hourly": hourly,
            "daily": daily,
            "monthly": {f"{y:04d}-{m:02d}": monthly[(y, m)] for (y, m) in sorted(monthly)},
            "day_events": day_n,
            "night_events": night_n,
            "hourly_relative_entropy": _try_entropy(hourly),
            "daily_relative_entropy": _try_entropy(daily),
        }

    tag_summaries: dict = {}
    for cohort in config.cohorts:
        comp = tag_components.get(cohort)
        if comp is None:
            tag_summaries[cohort] = None
            continue
        ts = tag_summary_from_components(*comp)
        tag_summaries[cohort] = {
            "image_count": ts.image_count,
            "tag_total": ts.tag_total,
            "images_with_tags": ts.images_with_tags,
            "images_gt5_tags": ts.images_gt5_tags,
            "images_gt10_tags": ts.images_gt10_tags,
            "proportion_with_tags": ts.proportion_with_tags,
            "proportion_gt5": ts.proportion_gt5,
            "proportion_gt10": ts.proportion_gt10,
            "mean_tags_per_image": ts.mean_tags_per_image,
            "mean_tags_per_tagged_image": ts.mean_tags_per_tagged_image,
        }

    census_indexes = None
    if census is not None:
        census_indexes = {}
        indicator_names = ["median_income", "median_rent", "unemployment_rate"]
        extras = sorted({k for rec in census.values() for k in rec.extra})
        for name in indicator_names + extras:
            vals = {}
            for tid in tract_ids:
                rec = census.get(tid)
                if rec is None:
                    continue
                v = getattr(rec, name) if name in indicator_names else rec.extra.get(name)
                if v is not None:
                    vals[tid] = v
            if vals:
                d = Distribution.from_mapping(vals, label=f"census/{name}")
                census_indexes[name] = suite_to_dict(_try_suite(d))
            else:
                census_indexes[name] = None

    rank_table: list[RankRow] = []
    local_day = {}
    local_night = {}
    local_events = 0
    for tid in tract_ids:
        agg = aggregates.get(tid)
        st = agg.cohorts.get("local") if agg is not None else None
        local_day[tid] = st.day_count if st is not None else 0
        local_night[tid] = st.night_count if st is not None else 0
        local_events += st.event_count if st is not None else 0
    if local_events > 0:
        incomes = {}
        if census is not None:
            for tid in tract_ids:
                rec = census.get(tid)
                if rec is not None and rec.median_income is not None:
                    incomes[tid] = rec.median_income
        rank_table = day_night_rank_table(local_day, local_night, incomes)

    choropleth_cohort = "local" if "local" in config.cohorts else config.cohorts[0]

    return Report(
        config=config,
        ingest={
            "records_total": stats.records_total,
            "records_ok": stats.records_ok,
            "records_skipped": stats.records_skipped,
            "errors": {k: stats.errors[k] for k in sorted(stats.errors)},
            "events_assigned": assigned,
            "events_outside_tracts": dropped_total,
            "census_rows": len(census) if census is not None else None,
            "census_unmatched_tracts": census_unmatched,
        },
        tracts={
            "count": len(tract_ids),
            "total_area_km2": float(math.fsum(areas[tid] for tid in tract_ids)),
            "dataset_months": [f"{y:04d}-{m:02d}" for (y, m) in dataset_months],
        },
        users=users,
        events_by_cohort={
            key: event_totals.get(key, 0) for key in ("all", "visitor", "local", "super_local")
        },
        distributions=distributions,
        concentration=concentration,
        temporal=temporal,
        tag_summaries=tag_summaries,
        census_indexes=census_indexes,
        rank_table=rank_table,
        lorenz_curves=lorenz_curves,
        choropleth_values=images_values.get(choropleth_cohort, {}),
    )


def _try_entropy(counts) -> float | None:
    try:
        return relative_entropy(counts)
    except AllZero:
        return None


# --- emission ---------------------------------------------------------------


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return jsonio.format_float(v)
    return str(v)


def _csv_lines(rows) -> str:
    return "\n".join(",".join(_fmt_cell(c) for c in row) for row in rows) + "\n"


def _indexes_csv(report: Report) -> str:
    cohorts = [c for c in report.config.cohorts]
    rows = [["distribution", "metric"] + cohorts + ["ratio"]]
    for dist_name in DISTRIBUTION_NAMES:
        per_cohort = report.distributions[dist_name]
        ratio = per_cohort.get("ratio_visitor_local")
        for metric in ("gini", "ratio_80_20", "ratio_90_10", "hoover", "theil"):
            row = [dist_name, metric]
            for cohort in cohorts:
                suite = per_cohort[cohort]["suite"]
                row.append(suite[metric] if suite else None)
            row.append(ratio[metric] if ratio else None)
            rows.append(row)
    return _csv_lines(rows)


def _tags_csv(report: Report) -> str:
    cols = [
        "cohort",
        "image_count",
        "tag_total",
        "images_with_tags",
        "images_gt5_tags",
        "images_gt10_tags",
        "proportion_with_tags",
        "proportion_gt5",
        "proportion_gt10",
        "mean_tags_per_image",
        "mean_tags_per_tagged_image",
    ]
    rows = [cols]
    for cohort in report.config.cohorts:
        ts = report.tag_summaries.get(cohort)
        if ts is None:
            rows.append([cohort] + [None] * (len(cols) - 1))
        else:
            rows.append([cohort] + [ts[k] for k in cols[1:]])
    return _csv_lines(rows)


def _ranks_csv(report: Report) -> str:
    rows = [["tract_id", "day_rank", "night_rank", "income_flag"]]
    for r in report.rank_table:
        rows.append([r.tract_id, r.day_rank, r.night_rank, r.income_flag])
    return _csv_lines(rows)


def _tracts_csv(report: Report, internals: PipelineInternals) -> str:
    rows = [
        [
            "tract_id",
            "cohort",
            "event_count",
            "tag_count",
            "unique_tag_count",
            "day_count",
            "night_count",
            "area_km2",
            "value",
        ]
    ]
    areas = {t.tract_id: t.area_km2 for t in internals.tracts}
    per_km2 = report.config.normalization == "per_km2"
    for tid in internals.tract_ids:
        agg = internals.aggregates.get(tid)
        for cohort in report.config.cohorts:
            st = agg.cohorts.get(cohort) if agg is not None else None
            count = st.event_count if st is not None else 0
            value = count / areas[tid] if per_km2 else float(count)
            rows.append(
                [
                    tid,
                    cohort,
                    count,
                    st.tag_count if st is not None else 0,
                    len(st.unique_tags) if st is not None else 0,
                    st.day_count if st is not None else 0,
                    st.night_count if st is not None else 0,
                    areas[tid],
                    value,
                ]
            )
    return _csv_lines(rows)


_SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def emit_lorenz_svg(curves: list[LorenzCurve]) -> str:
    """Square Lorenz plot: unit box, equality diagonal, one polyline per
    curve, text legend. Pure standalone SVG."""
    if not curves:
        raise EmptyCurveList("no curves to plot")
    size = 480
    margin = 48
    plot = size - 2 * margin

    def sx(p: float) -> str:
        return f"{margin + p * plot:.2f}"

    def sy(v: float) -> str:
        return f"{margin + (1.0 - v) * plot:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="{margin}" y="{margin}" width="{plot}" height="{plot}" '
        'fill="white" stroke="#333333" stroke-width="1"/>',
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(1)}" y2="{sy(1)}" '
        'stroke="#999999" stroke-width="1" stroke-dasharray="4 3"/>',
        f'<text x="{size // 2}" y="{size - 10}" text-anchor="middle" '
        'font-family="sans-serif" font-size="12">cumulative share of units</text>',
        f'<text x="14" y="{size // 2}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 14 {size // 2})">cumulative share of total</text>',
    ]
    for i, curve in enumerate(curves):
        color = _SVG_PALETTE[i % len(_SVG_PALETTE)]
        pts = " ".join(f"{sx(p)},{sy(v)}" for p, v in curve.points)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        label = curve.label or f"curve {i + 1}"
        ly = margin + 16 + 16 * i
        parts.append(
            f'<line x1="{margin + 8}" y1="{ly - 4}" x2="{margin + 28}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{margin + 34}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_choropleth(tracts_geojson: dict, values: dict[str, float], breaks: int) -> dict:
    """Attach 'value' and quantile-bucket 'class' properties per feature.

    Classes are 0..breaks-1 from nearest-rank quantile thresholds over
    the tracts that have values; a missing value classes as "no-data".
    Geometry passes through untouched.
    """
    if breaks < 2:
        raise BadBreakCount(f"need at least 2 classes, got {breaks}")
    present = sorted(values.values())
    thresholds: list[float] = []
    if present:
        n = len(present)
        for j in range(1, breaks):
            idx = max(1, math.ceil(j * n / breaks))
            thresholds.append(present[idx - 1])
    features = []
    for feat in tracts_geojson.get("features", []):
        props = dict(feat.get("properties") or {})
        tid = str(props.get("tract_id"))
        if tid in values:
            v = values[tid]
            props["value"] = v
            props["class"] = sum(1 for t in thresholds if t < v)
        else:
            props["value"] = None
            props["class"] = "no-data"
        features.append(
            {"type": "Feature", "properties": props, "geometry": feat.get("geometry")}
        )
    return {"type": "FeatureCollection", "features": features}


def emit_outputs(
    report: Report,
    internals: PipelineInternals,
    out_dir,
    table_format: str = "all",
    choropleth_breaks: int = DEFAULT_CHOROPLETH_BREAKS,
) -> list[Path]:
    """Write every artifact for a run: report.json, the four CSV tables
    unless ``table_format`` is "json", the Lorenz SVG when there are
    curves, and the choropleth. The manifest is stamped into the report
    before report.json is serialized."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    texts: dict[str, str] = {}
    if table_format in ("csv", "all"):
        texts["indexes"] = _indexes_csv(report)
        texts["tags"] = _tags_csv(report)
        texts["ranks"] = _ranks_csv(report)
        texts["tracts"] = _tracts_csv(report, internals)
    if report.lorenz_curves:
        texts["lorenz"] = emit_lorenz_svg(report.lorenz_curves)
    report.manifest = [OUTPUT_NAMES[name] for name in ("report", *texts, "choropleth")]
    texts = {"report": jsonio.dumps(report.to_json_dict()), **texts}
    written = []
    for name, text in texts.items():
        p = out / OUTPUT_NAMES[name]
        p.write_text(text, encoding="utf-8")
        written.append(p)
    raw = json.loads(Path(report.config.tracts_path).read_text(encoding="utf-8"))
    cloro = emit_choropleth(raw, report.choropleth_values, choropleth_breaks)
    p = out / OUTPUT_NAMES["choropleth"]
    p.write_text(jsonio.dumps(cloro), encoding="utf-8")
    written.append(p)
    return written
