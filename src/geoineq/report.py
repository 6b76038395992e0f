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
for the phase-2 message: its users' cohort masks, which the parent
classifies from every partition's summaries, the dataset's month axis,
which the classification fixes, and its tags' codes in the run's one
vocabulary, which the parent makes from every job's. It then aggregates
on those axes, so the parent merges the cubes by adding them. With
``--partitions 1`` the job runs in the parent process; otherwise each
range gets a forked worker, which uses the spatial index it inherits
and talks to the parent over a pipe. The parent classifies once and
merges once, with the same code for every partition count.

A run returns its ``report.json`` dict and the arrays the other outputs
read; each cohort's image densities serve its indexes, ``tracts.csv``
and the choropleth.
"""

from __future__ import annotations

import gc
import math
import traceback
from pathlib import Path
from typing import Iterable, NamedTuple
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

import numpy as np

from . import jsonio
from .aggregate import (
    BUCKET_KEYS,
    TagSummary,
    TractCube,
    aggregate_batch,
    merge_aggregate_maps,
    merge_tag_components,
    tag_summary_from_components,
)
from .cohort import COHORT_MASKS, classify_partials, user_partials
from .errors import (
    AllZero,
    BadBreakCount,
    EmptyCurveList,
    InternalInvariantError,
    MissingInput,
    TooFewUnits,
)
from .geo import SpatialIndex, Tract, build_spatial_index, tract_from_feature
from .ingest import (
    CENSUS_COLUMNS,
    ParseStats,
    events_format,
    parse_census,
    parse_event_batch,
    parse_tracts,
    partition_byte_ranges,
    read_byte_range,
    recode,
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
from .timebins import LocalClock, month_tuple

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


class PipelineConfig(NamedTuple):
    events_path: str
    tracts_path: str
    census_path: str | None = None
    timezone: str = "America/New_York"
    window_days: int = 12
    normalization: str = "per_km2"  # "raw" | "per_km2"
    cohorts: tuple[str, ...] = DEFAULT_COHORTS
    seed: int = 0  # echoed for synth-generated inputs

    def validate(self) -> None:
        if self.window_days < 1:
            raise ValueError("window_days must be >= 1")
        if self.normalization not in ("raw", "per_km2"):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        try:
            ZoneInfo(self.timezone)
        except (ZoneInfoNotFoundError, ValueError):
            raise ValueError(f"unknown timezone {self.timezone!r}") from None
        bad = [c for c in self.cohorts if c not in DEFAULT_COHORTS]
        if bad:
            raise ValueError(f"unknown cohorts {bad}")
        if len(set(self.cohorts)) != len(self.cohorts):
            raise ValueError(f"repeated cohorts in {list(self.cohorts)}")
        if not self.cohorts:
            raise ValueError("at least one cohort must be reported")


class PipelineInternals(NamedTuple):
    tracts: tuple[Tract, ...]  # in file order, as the choropleth writes them
    tract_ids: tuple[str, ...]
    user_ids: list[str]
    user_masks: np.ndarray  # cohort mask per user, aligned with user_ids
    aggregates: TractCube  # every partition's, merged; its month axis is months
    months: range  # month numbers, as cohort.Cohorts holds them
    areas: np.ndarray  # km2 per tract, on the tract axis of tract_ids
    # each reported cohort's images per km2 (per tract when raw), on that axis
    densities: dict[str, np.ndarray]
    lorenz_curves: list[LorenzCurve]  # one per reported cohort with images


def suite_to_dict(suite: IndexSuite | None) -> dict | None:
    return None if suite is None else suite._asdict()


# --- partition job ----------------------------------------------------------


def _partition_job(events_path, fmt, byte_range, index, tz):
    """The two phases of one partition, as a generator.

    Phase 1 yields (parse stats, events outside every tract, user
    partials, tag vocabulary); the job is then sent as bytes its users'
    cohort masks and its tags' int32 run codes, with the month axis, and
    phase 2 yields the partition's cube, numbers only. Its memory is
    one parse window plus per-event columns: the range is read window by
    window, the points are dropped once assigned, and phase 2 keeps only
    the columns it reads.
    """
    stats = ParseStats()
    batch = parse_event_batch(read_byte_range(events_path, byte_range), fmt, stats)
    tract_idx = index.assign_batch(batch.lats, batch.lons)
    batch.lats = batch.lons = None  # past assignment, an event's tract stands for its point
    keep = tract_idx >= 0
    dropped = len(batch) - int(keep.sum())
    batch, tract_idx = batch.take(keep), tract_idx[keep]
    local = LocalClock(tz, batch.epochs).local_fields(batch.epochs)  # the partition's one clock
    partials, codes = user_partials(batch.users, batch.user_codes, batch.epochs, local[2])
    tag_counts, tag_ids, vocab = batch.tag_counts, batch.tag_ids, batch.tags
    del batch  # phase 2 needs none of its other columns
    user_masks, months, tag_codes = yield stats, dropped, partials, vocab
    masks = np.frombuffer(user_masks, dtype=np.uint8)[codes]
    tags = (tag_counts, tag_ids, np.frombuffer(tag_codes, dtype=np.int32))
    yield aggregate_batch(index.tract_ids, tract_idx, local, tags, masks, months)


class _InProcess:
    """Drives a partition job in this process through the calls the
    parent makes on a worker's pipe."""

    def __init__(self, job):
        self._job = job
        self._sent = None  # a fresh generator must first be sent None

    def send(self, message):
        self._sent = message

    def recv(self):
        return "ok", self._job.send(self._sent)

    def close(self):
        self._job.close()


def _worker_main(conn, *job_args):
    # a collection would write to, and so copy, the pages the worker
    # shares with the parent, and would reclaim nothing: the job makes no
    # reference cycle per event, and the worker ends when it returns
    gc.disable()
    try:
        job = _partition_job(*job_args)
        conn.send(("ok", next(job)))
        conn.send(("ok", job.send(conn.recv())))
    except Exception:
        conn.send(("err", traceback.format_exc()))
    finally:
        conn.close()


def _replies(conns, ranges, procs):
    """Each partition's next reply, in partition order. ``procs`` holds
    the worker of each partition, or nothing when the job runs here."""
    # a job that runs here raises its own errors, whatever their type
    worker_gone = (EOFError, ConnectionError) if procs else ()
    for i, (conn, (start, end)) in enumerate(zip(conns, ranges)):
        try:
            status, payload = conn.recv()
        except worker_gone:  # the worker ended without a reply
            procs[i].join()
            status, payload = "err", f"no reply; the worker exited with code {procs[i].exitcode}"
        if status != "ok":
            raise InternalInvariantError(
                f"partition {i} (bytes {start}-{end}) failed:\n{payload}"
            )
        yield payload


# --- pipeline ---------------------------------------------------------------


def load_tracts(path) -> tuple[tuple[Tract, ...], SpatialIndex]:
    """The tracts of a GeoJSON file in file order, and their spatial
    index, whose build runs the checks every command makes on them."""
    tracts = tuple(tract_from_feature(f) for f in parse_tracts(Path(path)))
    return tracts, build_spatial_index(tracts)


def run_pipeline_full(
    config: PipelineConfig, partitions: int = 1
) -> tuple[dict, PipelineInternals]:
    """The run's ``report.json`` dict (its manifest still empty) and the
    arrays that the other outputs are made from."""
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

    tracts, index = load_tracts(tracts_path)
    fmt = events_format(events_path)
    ranges = partition_byte_ranges(events_path, partitions, fmt)
    job_args = [(str(events_path), fmt, r, index, config.timezone) for r in ranges]
    conns: list = []
    procs = []
    if partitions == 1:
        conns.append(_InProcess(_partition_job(*job_args[0])))
    else:
        import multiprocessing as mp  # not at k=1: it loads socket, selectors and signal

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
        part_stats, dropped, partials, vocabs = zip(*_replies(conns, ranges, procs))
        for p_stats in part_stats:
            stats.merge(p_stats)
        dropped_total = sum(dropped)
        cohorts = classify_partials(partials, config.window_days)
        vocab, tag_codes = recode(vocabs)  # the run's one tag vocabulary
        for conn, codes, tags in zip(conns, cohorts.partial_codes, tag_codes):
            try:
                conn.send((cohorts.masks[codes].tobytes(), cohorts.months, tags.tobytes()))
            except ConnectionError:
                pass  # the worker has ended; _replies says how
        parts = list(_replies(conns, ranges, procs))
        cube = merge_tag_components(merge_aggregate_maps(parts), parts, vocab)
    except BaseException:
        # a forked worker holds copies of the parent's pipe ends, so one
        # waiting for its masks would never see them close
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join()

    report, *emit_inputs = _build_report(
        config, index, stats, dropped_total, cohorts.masks, cube, census, cohorts.months
    )
    internals = PipelineInternals(
        tracts, index.tract_ids, cohorts.user_ids, cohorts.masks, cube, cohorts.months,
        *emit_inputs,
    )
    return report, internals


def run_pipeline(config: PipelineConfig, partitions: int = 1) -> dict:
    report, _ = run_pipeline_full(config, partitions)
    return report


# --- report assembly --------------------------------------------------------


def _try_suite(d: Distribution) -> IndexSuite | None:
    try:
        return index_suite(d)
    except (AllZero, TooFewUnits):
        return None


def _build_report(config, index, stats, dropped_total, user_masks, cube, census, months):
    """The ``report.json`` dict of a run, then the tract areas, each
    reported cohort's image densities and the Lorenz curves. Every
    per-tract count is an array on the tract axis of ``index``, whose
    ids are sorted as a Distribution's units are."""
    assigned = stats.records_ok - dropped_total
    totals = dict(zip(BUCKET_KEYS, cube.events.sum(axis=1).tolist()))
    if totals["all"] != assigned or totals["visitor"] + totals["local"] != assigned:
        raise InternalInvariantError(
            f"event accounting mismatch: assigned={assigned} all={totals['all']} "
            f"visitor+local={totals['visitor'] + totals['local']}"
        )

    tract_ids = index.tract_ids
    areas = np.array([t.area_km2 for t in index.tracts])
    divisor = areas if config.normalization == "per_km2" else 1.0

    users = {"total": len(user_masks)}
    for key, bit in COHORT_MASKS.items():
        users[key] = int(np.count_nonzero(user_masks & bit))

    buckets = {cohort: BUCKET_KEYS.index(cohort) for cohort in config.cohorts}
    per_tract = dict(zip(DISTRIBUTION_NAMES, (cube.events, cube.tags, cube.unique_tags)))
    distributions: dict = {}
    images: dict[str, Distribution] = {}
    densities: dict[str, np.ndarray] = {}
    for dist_name, counts in per_tract.items():
        per_cohort: dict = {}
        suites: dict[str, IndexSuite | None] = {}
        for cohort, b in buckets.items():
            density = counts[b] / divisor
            values = tuple(density.tolist())
            d = Distribution(tract_ids, values, label=f"{dist_name}/{cohort}")
            if dist_name == "images":
                images[cohort], densities[cohort] = d, density
            suites[cohort] = suite = _try_suite(d)
            per_cohort[cohort] = {"total": math.fsum(values), "suite": suite_to_dict(suite)}
        both = suites.get("visitor") is not None and suites.get("local") is not None
        ratio = suite_ratio(suites["visitor"], suites["local"]) if both else None
        per_cohort["ratio_visitor_local"] = suite_to_dict(ratio)
        distributions[dist_name] = per_cohort

    concentration: dict = {}
    lorenz_curves: list[LorenzCurve] = []
    temporal: dict = {}
    tag_summaries: dict = {}
    day, night = cube.day.sum(axis=1).tolist(), cube.night.sum(axis=1).tolist()
    tag_totals = cube.tags.sum(axis=1).tolist()
    for cohort, b in buckets.items():
        d = images[cohort]
        try:
            share10 = top_share(d, 0.1)
            min_half = min_units_for_share(d, 0.5)
            lorenz_curves.append(LorenzCurve(lorenz_curve(d).points, label=cohort))
        except AllZero:
            share10 = min_half = None
        concentration[cohort] = {
            "top_10pct_share": share10,
            "min_tracts_for_half": min_half,
            "spatial_relative_entropy": _try_entropy(cube.events[b].tolist()),
        }
        # the hour histogram sums over tracts; the cube counts day of
        # week, month and the tag summary per bucket already
        hourly = cube.hours[b].sum(axis=0).tolist()
        daily = cube.dows[b].tolist()
        monthly = cube.months[b].tolist()
        temporal[cohort] = {
            "hourly": hourly,
            "daily": daily,
            "monthly": {"%04d-%02d" % month_tuple(m): n for m, n in zip(months, monthly) if n},
            "day_events": day[b],
            "night_events": night[b],
            "hourly_relative_entropy": _try_entropy(hourly),
            "daily_relative_entropy": _try_entropy(daily),
        }
        n = totals[cohort]
        comp = (n, tag_totals[b], *cube.tag_summary[b].tolist())
        tag_summaries[cohort] = tag_summary_from_components(*comp)._asdict() if n else None

    census_indexes = None
    incomes = {}
    if census is not None:
        rows = {tid: census[tid] for tid in tract_ids if tid in census}
        incomes = {tid: row["median_income"] for tid, row in rows.items()
                   if "median_income" in row}
        census_indexes = {}
        others = sorted({name for row in census.values() for name in row} - set(CENSUS_COLUMNS))
        for name in (*CENSUS_COLUMNS, *others):
            vals = {tid: row[name] for tid, row in rows.items() if name in row}
            if vals:
                d = Distribution.from_mapping(vals, label=f"census/{name}")
                census_indexes[name] = suite_to_dict(_try_suite(d))
            else:
                census_indexes[name] = None

    rank_table: list[RankRow] = []
    if totals["local"] > 0:
        local = BUCKET_KEYS.index("local")
        rank_table = day_night_rank_table(
            dict(zip(tract_ids, cube.day[local].tolist())),
            dict(zip(tract_ids, cube.night[local].tolist())),
            incomes,
        )

    report = {
        "schema": "geoineq-report/1",
        "config": {
            "events_path": str(config.events_path),
            "tracts_path": str(config.tracts_path),
            "census_path": str(config.census_path) if config.census_path else None,
            "timezone": config.timezone,
            "window_days": config.window_days,
            "normalization": config.normalization,
            "cohorts": list(config.cohorts),
            "seed": config.seed,
            "events_format": events_format(config.events_path),
        },
        "ingest": {
            **stats.summary(),
            "events_assigned": assigned,
            "events_outside_tracts": dropped_total,
            "census_rows": len(census) if census is not None else None,
            "census_unmatched_tracts": sorted(set(census) - set(tract_ids)) if census else [],
        },
        "tracts": {
            "count": len(tract_ids),
            "total_area_km2": math.fsum(areas.tolist()),
            "dataset_months": ["%04d-%02d" % month_tuple(m) for m in months],
        },
        "users": users,
        "events_by_cohort": totals,
        "distributions": distributions,
        "concentration": concentration,
        "temporal": temporal,
        "tag_summary": tag_summaries,
        "census_indexes": census_indexes,
        "rank_table": [row._asdict() for row in rank_table],
        "manifest": [],  # emit_outputs lists the files it writes
    }
    return report, areas, densities, lorenz_curves


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


def _indexes_csv(report: dict) -> str:
    cohorts = report["config"]["cohorts"]
    rows = [["distribution", "metric", *cohorts, "ratio"]]
    for dist_name in DISTRIBUTION_NAMES:
        per_cohort = report["distributions"][dist_name]
        ratio = per_cohort["ratio_visitor_local"]
        for metric in IndexSuite._fields:
            row = [dist_name, metric]
            for cohort in cohorts:
                suite = per_cohort[cohort]["suite"]
                row.append(suite[metric] if suite else None)
            row.append(ratio[metric] if ratio else None)
            rows.append(row)
    return _csv_lines(rows)


def _tags_csv(report: dict) -> str:
    cols = list(TagSummary._fields)
    rows = [["cohort", *cols]]
    for cohort, ts in report["tag_summary"].items():
        rows.append([cohort] + ([None] * len(cols) if ts is None else [ts[k] for k in cols]))
    return _csv_lines(rows)


def _ranks_csv(report: dict) -> str:
    cols = list(RankRow._fields)
    return _csv_lines([cols] + [[row[k] for k in cols] for row in report["rank_table"]])


def _tracts_csv(internals: PipelineInternals) -> str:
    """One row per tract and cohort, each written by one ``%`` template,
    whose ``%.12g`` prints a float as ``jsonio.format_float`` does once
    every area and value is known to be finite."""
    lines = ["tract_id,cohort,event_count,tag_count,unique_tag_count,"
             "day_count,night_count,area_km2,value\n"]
    cube = internals.aggregates
    cohorts = list(internals.densities)
    table = np.stack([cube.events, cube.tags, cube.unique_tags, cube.day, cube.night], axis=-1)
    values = np.stack(list(internals.densities.values()), axis=-1)
    floats = np.column_stack([internals.areas, values])  # a tract's cells in row order
    if not np.isfinite(floats).all():
        jsonio.format_float(float(floats[~np.isfinite(floats)][0]))  # raises
    # [tract][cohort][column] and [tract][cohort]
    counts = table[[BUCKET_KEYS.index(c) for c in cohorts]].transpose(1, 0, 2).tolist()
    per_tract = zip(internals.tract_ids, internals.areas.tolist(), counts, values.tolist())
    row = "%s,%s,%d,%d,%d,%d,%d,%.12g,%.12g\n"
    for tid, area, per_cohort, per_value in per_tract:
        for cohort, cells, value in zip(cohorts, per_cohort, per_value):
            lines.append(row % (tid, cohort, *cells, area, value))
    return "".join(lines)


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


def choropleth_parts(tracts: Iterable[Tract], values: dict[str, float], breaks: int) -> list[str]:
    """The choropleth GeoJSON text as its parts, in order: one feature
    per tract, in the order given, with the tract's properties plus
    'value' and a quantile-bucket 'class', and its parsed geometry.

    Classes are 0..breaks-1 from nearest-rank quantile thresholds over
    the tracts that have values; a missing value classes as "no-data".
    The geometry keeps the tract's type and its 2D positions, printed at
    12 significant digits.
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
    for tract in tracts:
        props = dict(tract.properties)
        if tract.tract_id in values:
            v = values[tract.tract_id]
            props["value"] = v
            props["class"] = sum(1 for t in thresholds if t < v)
        else:
            props["value"] = None
            props["class"] = "no-data"
        coords = tract.polygons  # rings are arrays, which jsonio writes whole
        geometry = {
            "type": tract.geometry_type,
            "coordinates": coords[0] if tract.geometry_type == "Polygon" else coords,
        }
        features.append({"type": "Feature", "properties": props, "geometry": geometry})
    return jsonio.parts({"type": "FeatureCollection", "features": features})


def write_parts(path, parts: Iterable[str]) -> None:
    """Write a text given as its parts, UTF-8 with LF line ends, part by
    part: the whole text is never joined or encoded at once."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(parts)


def emit_outputs(report: dict, internals: PipelineInternals, out_dir) -> list[Path]:
    """Write every artifact for a run: report.json, the four CSV tables,
    the Lorenz SVG when there are curves, and the choropleth of the
    local cohort's densities (of the first cohort when locals are not
    reported), from the run's own tracts: no input file is read. Every
    text is made, as its parts, before the first file is written, and
    the manifest is stamped into the report before report.json is
    serialized. An output this run does not make is removed from
    ``out_dir``, so no earlier run's output is left beside the report."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    texts = {
        "indexes": [_indexes_csv(report)],
        "tags": [_tags_csv(report)],
        "ranks": [_ranks_csv(report)],
        "tracts": [_tracts_csv(internals)],
    }
    if internals.lorenz_curves:
        texts["lorenz"] = [emit_lorenz_svg(internals.lorenz_curves)]
    densities = internals.densities
    cohort = "local" if "local" in densities else next(iter(densities))
    values = dict(zip(internals.tract_ids, densities[cohort].tolist()))
    texts["choropleth"] = choropleth_parts(internals.tracts, values, DEFAULT_CHOROPLETH_BREAKS)
    report["manifest"] = [OUTPUT_NAMES[name] for name in ("report", *texts)]
    texts = {"report": [jsonio.dumps(report)], **texts}
    written = []
    for name, text in texts.items():
        p = out / OUTPUT_NAMES[name]
        write_parts(p, text)
        written.append(p)
    for name in OUTPUT_NAMES.keys() - texts.keys():
        (out / OUTPUT_NAMES[name]).unlink(missing_ok=True)
    return written
