"""Command-line interface.

Subcommands: run (full pipeline), ingest-check (parse + summary only),
metrics (index suite over one column of a value table), synth (generate
a synthetic city), lorenz (Lorenz SVG from value table columns),
choropleth (classed GeoJSON from a value table keyed by ``tract_id``).
``ingest.read_table`` reads value tables as it reads the census CSV.

Exit codes: 0 success (``--help`` too), 1 fatal input error or usage
error (a missing or unknown flag, a flag value of the wrong type), 2
internal invariant violation.

Importing this module sets ``OPENBLAS_NUM_THREADS=1`` in ``os.environ``
unless it is set, for the rest of the process and every process it
starts; ``import geoineq`` and its other modules set nothing. It leaves
cyclic GC as it finds it: ``geoineq.__main__`` turns it off for a CLI
process.

:func:`entry` is ``main`` for a CLI process: ``geoineq.__main__`` runs
it for ``python -m geoineq`` and the ``geoineq`` script. Once ``main``
returns, it flushes stdout and stderr and ends the process with
``os._exit``: the interpreter's teardown (a last collection, module
clean-up, atexit handlers) frees nothing that the exit itself does not.
So every file that a command opens must be closed, and every worker
joined, before ``main`` returns; a stats file or a log added later must
be closed there too. A stdout that cannot be flushed makes the exit code
1 where it was 0. In-process callers call ``main``, which returns its
exit code.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path
from typing import NoReturn

# numpy starts an OpenBLAS thread pool, one thread per core, as it loads.
# That takes tens of milliseconds, and the pipeline makes no BLAS call
# (its one tensordot is on int64), so the CLI asks for one thread before
# numpy loads, unless the caller set a count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import jsonio, report
from .errors import GeoIneqError, InternalInvariantError, InvalidParams
from .ingest import ParseStats, events_format, parse_census, read_table
from .metrics import Distribution, index_suite, lorenz_curve
from .report import (
    DEFAULT_CHOROPLETH_BREAKS,
    DEFAULT_COHORTS,
    PipelineConfig,
    choropleth_parts,
    emit_lorenz_svg,
    emit_outputs,
    run_pipeline_full,
    suite_to_dict,
    write_parts,
)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--events", required=True, help="event CSV/JSONL path")
    p.add_argument("--tracts", required=True, help="tract GeoJSON path")
    p.add_argument("--census", default=None, help="census indicator CSV path")
    defaults = PipelineConfig._field_defaults  # whose defaults the flags take
    p.add_argument("--tz", default=defaults["timezone"], help="display timezone (IANA id)")
    p.add_argument(
        "--window-days", type=int, default=defaults["window_days"], help="visitor/local window"
    )
    p.add_argument(
        "--normalize",
        choices=["raw", "per-km2"],
        default=defaults["normalization"].replace("_", "-"),
    )
    p.add_argument(
        "--cohorts",
        default=",".join(DEFAULT_COHORTS),
        help="comma list from: visitor,local,super_local,all",
    )
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=int, default=defaults["seed"], help="echoed into the report")
    p.add_argument("--partitions", type=int, default=1, help="parallel partitions")


def _config_from_args(args) -> PipelineConfig:
    return PipelineConfig(
        events_path=args.events,
        tracts_path=args.tracts,
        census_path=args.census,
        timezone=args.tz,
        window_days=args.window_days,
        normalization=args.normalize.replace("-", "_"),
        cohorts=tuple(c.strip() for c in args.cohorts.split(",") if c.strip()),
        seed=args.seed,
    )


def _read_columns(path: str, columns: list[str], keyed: bool = False) -> list[dict[str, float]]:
    """Each of ``columns`` of the value table at ``path`` by row id; a
    column without a value is refused."""
    rows = read_table(Path(path).read_bytes(), f"value table {path}", columns, keyed)
    out = []
    for column in columns:
        values = {rid: row[column] for rid, row in rows.items() if column in row}
        if not values:
            raise GeoIneqError(f"no numeric values in column {column!r}")
        out.append(values)
    return out


def cmd_run(args) -> int:
    config = _config_from_args(args)
    report, internals = run_pipeline_full(config, partitions=args.partitions)
    written = emit_outputs(report, internals, args.out)
    for p in written:
        print(p)
    return 0


def cmd_ingest_check(args) -> int:
    # run's ingest stage, the calls its partition job makes
    stats = ParseStats()
    fmt = events_format(args.events)
    (byte_range,) = report.partition_byte_ranges(args.events, 1, fmt)
    report.parse_event_batch(report.read_byte_range(args.events, byte_range), fmt, stats)
    summary = {"events": stats.summary()}
    if args.tracts:
        tract_ids = report.load_tracts(args.tracts)[1].tract_ids
        summary["tracts"] = {"count": len(tract_ids)}
    if args.census:
        census = parse_census(Path(args.census).read_bytes())
        unmatched = sorted(set(census) - set(tract_ids)) if args.tracts else []
        summary["census"] = {"rows": len(census), "unmatched_tracts": unmatched}
    sys.stdout.write(jsonio.dumps(summary))
    return 0


def cmd_metrics(args) -> int:
    (values,) = _read_columns(args.csv, [args.column])
    d = Distribution(tuple(values), tuple(values.values()), label=args.column)
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


def _synth_params(args):
    """The SynthParams of synth's flags, each stored under its field's
    name. A flag not given is not in ``args``, so its field keeps the
    dataclass's default."""
    # imported here, so that the other commands do not load the generator
    from .synth import SynthParams

    given = {k: v for k, v in vars(args).items() if k in SynthParams.__dataclass_fields__}
    if "start" in args:
        given["start_year"], given["start_month"] = _parse_start(args.start)
    return SynthParams(**given)


def cmd_synth(args) -> int:
    from .synth import write_city

    for name, path in write_city(_synth_params(args), args.out).items():
        print(f"{name}: {path}")
    return 0


def cmd_lorenz(args) -> int:
    curves = []
    for column, values in zip(args.column, _read_columns(args.csv, args.column)):
        d = Distribution(tuple(values), tuple(values.values()), label=column)
        curves.append(lorenz_curve(d))
    Path(args.out).write_text(emit_lorenz_svg(curves), encoding="utf-8")
    print(args.out)
    return 0


def cmd_choropleth(args) -> int:
    tracts, _ = report.load_tracts(args.tracts)
    (values,) = _read_columns(args.values, [args.column], keyed=True)
    write_parts(args.out, choropleth_parts(tracts, values, args.breaks))
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

    # a flag left out is left out of the namespace too; see _synth_params
    p = sub.add_parser(
        "synth",
        help="generate a synthetic city with ground truth",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--seed", type=int)
    p.add_argument("--tracts", type=int, dest="n_tracts", metavar="TRACTS")
    p.add_argument("--local-users", type=int, dest="n_users_local", metavar="LOCAL_USERS")
    p.add_argument("--visitor-users", type=int, dest="n_users_visitor", metavar="VISITOR_USERS")
    p.add_argument("--events", type=int, dest="n_events", metavar="EVENTS")
    p.add_argument("--zipf-s", type=float)
    p.add_argument("--start", help="first month, YYYY-MM")
    p.add_argument("--months", type=int)
    p.add_argument(
        "--day-frac-local", type=float, dest="day_fraction_local", metavar="DAY_FRAC_LOCAL"
    )
    p.add_argument(
        "--day-frac-visitor", type=float, dest="day_fraction_visitor", metavar="DAY_FRAC_VISITOR"
    )
    p.add_argument("--tz")
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse's: 0 after --help, 2 for a usage error
        return 1 if e.code else 0
    try:
        return args.func(args)
    except InternalInvariantError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 2
    except (GeoIneqError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> NoReturn:
    """``main`` for a CLI process, which it ends without the
    interpreter's teardown once stdout and stderr are flushed."""
    code = main()
    try:
        if sys.stdout is not None:  # None where the process started without one
            sys.stdout.flush()
    except OSError as e:  # e.g. a full disk, or a pipe its reader closed
        code = code or 1
        print(f"error: cannot write to stdout: {e}", file=sys.stderr)
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass  # nowhere left to report it
    os._exit(code)
