"""Command-line interface.

Subcommands: run (full pipeline), ingest-check (parse + summary only),
metrics (index suite over one CSV column), synth (generate a synthetic
city), lorenz (Lorenz SVG from CSV columns), choropleth (classed
GeoJSON from a per-tract value table).

Exit codes: 0 success, 1 fatal input error, 2 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import re
import sys
from pathlib import Path

from . import jsonio, report
from .errors import GeoIneqError, InternalInvariantError, InvalidParams
from .geo import build_spatial_index, tract_from_feature
from .ingest import ParseStats, parse_census, parse_tracts
from .metrics import Distribution, index_suite, lorenz_curve
from .report import (
    DEFAULT_CHOROPLETH_BREAKS,
    DEFAULT_COHORTS,
    PipelineConfig,
    emit_choropleth,
    emit_lorenz_svg,
    emit_outputs,
    run_pipeline_full,
    suite_to_dict,
)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--events", required=True, help="event CSV/JSONL path")
    p.add_argument("--tracts", required=True, help="tract GeoJSON path")
    p.add_argument("--census", default=None, help="census indicator CSV path")
    p.add_argument("--tz", default="America/New_York", help="display timezone (IANA id)")
    p.add_argument("--window-days", type=int, default=12, help="visitor/local window")
    p.add_argument("--normalize", choices=["raw", "per-km2"], default="per-km2")
    p.add_argument(
        "--cohorts",
        default=",".join(DEFAULT_COHORTS),
        help="comma list from: visitor,local,super_local,all",
    )
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--format", choices=["json", "csv", "all"], default="all")
    p.add_argument("--seed", type=int, default=0, help="echoed into the report")
    p.add_argument("--partitions", type=int, default=1, help="parallel partitions")


def _config_from_args(args) -> PipelineConfig:
    fmt = "jsonl" if str(args.events).endswith(".jsonl") else "csv"
    return PipelineConfig(
        events_path=args.events,
        tracts_path=args.tracts,
        census_path=args.census,
        timezone=args.tz,
        window_days=args.window_days,
        normalization=args.normalize.replace("-", "_"),
        cohorts=tuple(c.strip() for c in args.cohorts.split(",") if c.strip()),
        out_dir=args.out,
        seed=args.seed,
        events_format=fmt,
    )


def _read_csv_column(path: str, column: str) -> tuple[list[str], list[float]]:
    text = Path(path).read_text(encoding="utf-8-sig")
    reader = csv.DictReader(io.StringIO(text))
    ids, values = [], []
    if reader.fieldnames is None or column not in reader.fieldnames:
        raise GeoIneqError(f"column {column!r} not in {path}")
    id_col = "tract_id" if "tract_id" in (reader.fieldnames or []) else None
    for i, row in enumerate(reader):
        cell = (row.get(column) or "").strip()
        if not cell:
            continue
        ids.append(row[id_col] if id_col else f"row{i + 1}")
        values.append(float(cell))
    if not values:
        raise GeoIneqError(f"no numeric values in column {column!r}")
    return ids, values


def cmd_run(args) -> int:
    config = _config_from_args(args)
    report, internals = run_pipeline_full(config, partitions=args.partitions)
    written = emit_outputs(report, internals, args.out, table_format=args.format)
    for p in written:
        print(p)
    return 0


def cmd_ingest_check(args) -> int:
    # run's ingest stage, the calls its partition job makes
    stats = ParseStats()
    fmt = "jsonl" if str(args.events).endswith(".jsonl") else "csv"
    (byte_range,) = report.partition_byte_ranges(args.events, 1, fmt)
    report.parse_event_batch(report.read_byte_range(args.events, byte_range), fmt, stats)
    summary = {"events": stats.summary()}
    if args.tracts:
        feats = parse_tracts(Path(args.tracts).read_bytes())
        tract_ids = build_spatial_index([tract_from_feature(f) for f in feats]).tract_ids
        summary["tracts"] = {"count": len(tract_ids)}
    if args.census:
        census = parse_census(Path(args.census).read_bytes())
        unmatched = sorted(set(census) - set(tract_ids)) if args.tracts else []
        summary["census"] = {"rows": len(census), "unmatched_tracts": unmatched}
    sys.stdout.write(jsonio.dumps(summary))
    return 0


def cmd_metrics(args) -> int:
    ids, values = _read_csv_column(args.csv, args.column)
    d = Distribution(tuple(ids), tuple(values), label=args.column)
    out = {
        "label": args.column,
        "n": len(values),
        "suite": suite_to_dict(index_suite(d)),
    }
    sys.stdout.write(jsonio.dumps(out))
    return 0


def _parse_start(text: str) -> tuple[int, int]:
    """(year, month) of a ``--start`` value, which must be YYYY-MM."""
    m = re.fullmatch(r"([0-9]{4})-([0-9]{2})", text)
    if m is None or not 1 <= int(m[2]) <= 12:
        raise InvalidParams(f"--start must be a month as YYYY-MM, got {text!r}")
    return int(m[1]), int(m[2])


def cmd_synth(args) -> int:
    # imported here, so that the other commands do not load the generator
    from .synth import SynthParams, write_city

    start_year, start_month = _parse_start(args.start)
    params = SynthParams(
        seed=args.seed,
        n_tracts=args.tracts,
        n_users_local=args.local_users,
        n_users_visitor=args.visitor_users,
        n_events=args.events,
        zipf_s=args.zipf_s,
        start_year=start_year,
        start_month=start_month,
        months=args.months,
        day_fraction_local=args.day_frac_local,
        day_fraction_visitor=args.day_frac_visitor,
        tz=args.tz,
    )
    for name, path in write_city(params, args.out).items():
        print(f"{name}: {path}")
    return 0


def cmd_lorenz(args) -> int:
    curves = []
    for column in args.column:
        _, values = _read_csv_column(args.csv, column)
        curves.append(lorenz_curve(Distribution.from_values(values, label=column)))
    Path(args.out).write_text(emit_lorenz_svg(curves), encoding="utf-8")
    print(args.out)
    return 0


def cmd_choropleth(args) -> int:
    feats = parse_tracts(Path(args.tracts).read_bytes())
    tracts = [tract_from_feature(f) for f in feats]
    build_spatial_index(tracts)  # the tract checks run and ingest-check make
    values = dict(zip(*_read_csv_column(args.values, args.column)))
    text = emit_choropleth(tracts, values, args.breaks)
    Path(args.out).write_text(text, encoding="utf-8")
    print(args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoineq",
        description="Spatial/temporal inequality metrics for geo-tagged event streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the full pipeline and emit reports")
    _add_run_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("ingest-check", help="parse inputs and print a summary")
    p.add_argument("--events", required=True)
    p.add_argument("--tracts", default=None)
    p.add_argument("--census", default=None)
    p.set_defaults(func=cmd_ingest_check)

    p = sub.add_parser("metrics", help="index suite over one CSV column")
    p.add_argument("--csv", required=True)
    p.add_argument("--column", required=True)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("synth", help="generate a synthetic city with ground truth")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tracts", type=int, default=200)
    p.add_argument("--local-users", type=int, default=400)
    p.add_argument("--visitor-users", type=int, default=400)
    p.add_argument("--events", type=int, default=20000)
    p.add_argument("--zipf-s", type=float, default=1.0)
    p.add_argument("--start", default="2014-03", help="first month, YYYY-MM")
    p.add_argument("--months", type=int, default=5)
    p.add_argument("--day-frac-local", type=float, default=0.6)
    p.add_argument("--day-frac-visitor", type=float, default=0.75)
    p.add_argument("--tz", default="America/New_York")
    p.add_argument("--out", default="synth_city")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("lorenz", help="Lorenz curve SVG from CSV columns")
    p.add_argument("--csv", required=True)
    p.add_argument("--column", action="append", required=True)
    p.add_argument("--out", default="lorenz.svg")
    p.set_defaults(func=cmd_lorenz)

    p = sub.add_parser("choropleth", help="classed GeoJSON from per-tract values")
    p.add_argument("--tracts", required=True)
    p.add_argument("--values", required=True, help="CSV with tract_id + value column")
    p.add_argument("--column", default="value")
    p.add_argument("--breaks", type=int, default=DEFAULT_CHOROPLETH_BREAKS)
    p.add_argument("--out", default="choropleth.geojson")
    p.set_defaults(func=cmd_choropleth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariantError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 2
    except (GeoIneqError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
