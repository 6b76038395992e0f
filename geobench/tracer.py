"""Run the geoineq CLI in-process with a span around each call into a
layer's public functions, then write the spans as JSON.

    PYTHONPATH=src python geobench/tracer.py SPANS.json run --events ... --partitions 2

Spans come from rebinding the names the pipeline looks up (for example
``geoineq.report.parse_event_batch``); the program itself is unchanged.
Cyclic GC pauses come from ``gc.callbacks``. In a partitioned run only
the parent writes spans, so its ``partition.*`` spans show the fork
protocol from the parent's side.
"""

from __future__ import annotations

import functools
import gc
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Recorder:
    """In-memory spans: name, start, end, parent span index, the growth
    of peak RSS and the CPU time inside the call, plus counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_t0 = 0.0

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Rebind ``owner.attr`` to a timed wrapper recording ``name``.
        ``count(args, result)`` returns counters to store on the span."""
        fn = getattr(owner, attr)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": rec._stack[-1] if rec._stack else None,
                "rss0_kb": _maxrss_kb(),
                "cpu0": _cpu_s(),
            }
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                rec._stack.pop()
                span["rss1_kb"] = _maxrss_kb()
                span["cpu1"] = _cpu_s()
            if count is not None:
                span.update(count(args, result))
            return result

        setattr(owner, attr, traced)

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_t0
            self.gc_collections += 1


def _parse_counts(args, batch):
    stats = args[2]
    return {"records": stats.records_total, "skipped": stats.records_skipped}


def _recv_counts(args, msg):
    # phase-one reply: ("ok", (ParseStats, dropped, partials))
    if isinstance(msg, tuple) and msg and msg[0] == "ok":
        first = msg[1][0]
        if hasattr(first, "records_total"):
            return {"records": first.records_total}
    return {}


def install(rec: Recorder) -> None:
    from multiprocessing.connection import Connection

    import geoineq.cli as cli
    import geoineq.jsonio as jsonio
    import geoineq.report as report
    from geoineq.geo import SpatialIndex
    from geoineq.timebins import LocalClock

    rec.patch(cli, "run_pipeline_full", "report.pipeline")
    rec.patch(cli, "emit_outputs", "report.emit",
              lambda a, paths: {"bytes": sum(p.stat().st_size for p in paths)})
    rec.patch(jsonio, "dumps", "jsonio.dumps")
    rec.patch(report, "parse_census", "ingest.census")
    rec.patch(report, "parse_tracts", "ingest.tracts")
    rec.patch(report, "partition_byte_ranges", "ingest.split")
    rec.patch(report, "read_byte_range", "ingest.read")
    rec.patch(report, "parse_event_batch", "ingest.parse", _parse_counts)
    rec.patch(report, "tract_from_feature", "geo.index")
    rec.patch(report, "build_spatial_index", "geo.index",
              lambda a, ix: {"edges": sum(len(r) - 1 for t in ix.tracts for r in t.rings)})
    rec.patch(SpatialIndex, "assign_batch", "geo.assign",
              lambda a, res: {"points": len(res), "assigned": int((res >= 0).sum())})
    rec.patch(LocalClock, "local_fields", "timebins")
    rec.patch(report, "aggregate_batch", "aggregate.batch",
              lambda a, agg: {"events": len(a[1])})
    rec.patch(report, "merge_aggregate_maps", "aggregate.merge")
    rec.patch(report, "merge_tag_components", "aggregate.merge")
    for fn in ("index_suite", "lorenz_curve", "relative_entropy", "top_share",
               "min_units_for_share", "suite_ratio", "day_night_rank_table"):
        rec.patch(report, fn, "metrics")
    rec.patch(Connection, "recv", "partition.recv", _recv_counts)
    rec.patch(Connection, "_recv_bytes", "partition.recv_bytes",
              lambda a, buf: {"bytes": buf.getbuffer().nbytes})
    rec.patch(Connection, "_send_bytes", "partition.send_bytes",
              lambda a, r: {"bytes": len(a[1])})
    gc.callbacks.append(rec.on_gc)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    install(rec)
    import geoineq.cli

    code = geoineq.cli.main(argv)
    gc.callbacks.remove(rec.on_gc)
    Path(out_path).write_text(json.dumps({
        "exit": code,
        "spans": rec.spans,
        "gc_pause_s": rec.gc_pause_s,
        "gc_collections": rec.gc_collections,
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
