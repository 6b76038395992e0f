"""geoineq benchmark: generate a workload from a seed, run the real CLI
(``python -m geoineq run``) in fresh processes at --partitions 1 and 2,
check every run's outputs, and print each metric by name and unit.

    python3 geobench/run.py --workload city --seed 1 --seconds 32 --trace 0

With ``--trace 0`` it reports the end-to-end metrics (medians over the
run); with ``--trace 1`` it adds traced runs (``tracer.py``) and reports
the per-layer metrics. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Inputs and outputs
live under ``.geobench_work/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3  # setup_s is the median of this many set-ups
RUN_TIMEOUT_S = 60  # a single CLI run normally takes under 10 s
REFERENCE = Path(__file__).with_name("reference.py")


@dataclass
class RunResult:
    wall_s: float
    rss_mb: float
    problems: list[str]  # empty when the run passed the correctness gate


def machine_record() -> dict:
    import numpy

    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class Launcher:
    """Client of ``launcher.py``, the small process that spawns and times
    every CLI run (see there for why it must stay small)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, cmd: list[str], env: dict, stderr: Path) -> dict:
        req = {"cmd": cmd, "env": env, "stderr": str(stderr), "timeout": RUN_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def run_cli(launcher: Launcher, inp, k: int, out_dir: Path,
            spans_path: Path | None = None) -> RunResult:
    """One ``geoineq run`` in a fresh process (traced when ``spans_path``
    is given), timed from spawn to exit, its outputs checked."""
    from check import check_outputs

    shutil.rmtree(out_dir, ignore_errors=True)
    args = ["run", "--events", str(inp.events), "--tracts", str(inp.tracts),
            "--out", str(out_dir), "--partitions", str(k)]
    if inp.census is not None:
        args += ["--census", str(inp.census)]
    if spans_path is None:
        cmd = [sys.executable, "-m", "geoineq"] + args
    else:
        cmd = [sys.executable, str(Path(__file__).with_name("tracer.py")), str(spans_path)] + args
    log = out_dir.parent / f"{out_dir.name}.stderr"
    reply = launcher.run(cmd, dict(os.environ, PYTHONPATH=str(SRC)), log)
    if reply["exit"] != 0:
        tail = log.read_text(errors="replace")[-400:]
        problems = [f"exit {reply['exit']} at k={k}: {tail}"]
    else:
        problems = check_outputs(inp, out_dir)
    return RunResult(reply["wall_s"], reply["maxrss_kb"] / 1024, problems)


class Tally:
    """Runs attempted and failed; failed runs' timings are discarded."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def accept(self, res: RunResult, what: str) -> bool:
        self.attempted += 1
        if res.problems:
            self.failed += 1
            for p in res.problems:
                print(f"FAILED {what}: {p}", file=sys.stderr)
        return not res.problems

    def mismatch(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED {what}: report.json differs between runs", file=sys.stderr)


def same_report(a: Path, b: Path) -> bool:
    return (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def setup(w, seed: int, work: Path, repeats: int):
    """Make the inputs ``repeats`` times; return them and the timings."""
    from workloads import check_pin, make_inputs

    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        inp = make_inputs(w, seed, work / "in")
        times.append(time.perf_counter() - t0)
        check_pin(w.name, inp)
    return inp, times


def rounds(seconds: float):
    """Yield 0, 1, 2, ... while one more round, as long as the longest
    so far, still ends within ``seconds``; always at least one round."""
    end = time.perf_counter() + seconds
    longest = 0.0
    i = 0
    while i == 0 or time.perf_counter() + longest <= end:
        t0 = time.perf_counter()
        yield i
        longest = max(longest, time.perf_counter() - t0)
        i += 1


def time_reference(launcher, work: Path) -> float:
    """Wall time of one run of the reference job, ``reference.py``."""
    log = work / "reference.stderr"
    reply = launcher.run([sys.executable, str(REFERENCE)], dict(os.environ), log)
    if reply["exit"] != 0:
        tail = log.read_text(errors="replace")[-400:]
        raise RuntimeError(f"reference job exited {reply['exit']}: {tail}")
    return reply["wall_s"]


def measure(launcher, w, seed: int, seconds: float, work: Path, k2_ok: bool) -> tuple[Tally, dict]:
    inp, setup_times = setup(w, seed, work, SETUP_REPEATS)
    tally = Tally()
    samples: dict[str, list[float]] = {}
    wall: dict[str, list[float]] = {}  # plain wall times, printed but not in the result
    order = (1, 2) if k2_ok else (1,)
    # the reference job runs before and after every CLI run; the run's
    # time is taken relative to the mean of the two
    ref_before = time_reference(launcher, work)
    wall["reference_s"] = [ref_before]
    for pair in rounds(seconds):
        passed = {}
        for k in order if pair % 2 == 0 else order[::-1]:
            res = run_cli(launcher, inp, k, work / f"out{k}")
            ref_after = time_reference(launcher, work)
            wall["reference_s"].append(ref_after)
            if tally.accept(res, f"k={k} run {pair}"):
                passed[k] = (res, (ref_before + ref_after) / 2)
            ref_before = ref_after
        if len(passed) == 2 and not same_report(work / "out1", work / "out2"):
            tally.mismatch(f"k=1 vs k=2 run {pair}")
            passed = {}
        for k, (res, ref_s) in passed.items():
            samples.setdefault(f"run_k{k}_ref", []).append(res.wall_s / ref_s)
            samples.setdefault(f"peak_rss_k{k}_mb", []).append(res.rss_mb)
            wall.setdefault(f"run_k{k}_s", []).append(res.wall_s)
    samples["setup_s"] = setup_times
    units = {"_ref": "ref", "_mb": "MB", "_s": "s"}
    metrics = {}
    for name, values in samples.items():
        unit = next(u for suffix, u in units.items() if name.endswith(suffix))
        metrics[name] = (statistics.median(values), unit)
        print(f"samples {name}: " + " ".join(f"{v:.3f}" for v in values), file=sys.stderr)
    for name, values in wall.items():
        print(f"wall time, not in the result: {name} median {statistics.median(values):.6g} s "
              f"over {len(values)} run(s)")
    return tally, metrics


# --- traced runs -------------------------------------------------------------


def _dur(span: dict) -> float:
    return span["t1"] - span["t0"]


def _total(spans: list[dict], name: str, key: str | None = None) -> float:
    return sum((s.get(key, 0) if key else _dur(s)) for s in spans if s["name"] == name)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics_k1(trace: dict) -> dict:
    spans = trace["spans"]
    (top,) = [i for i, s in enumerate(spans) if s["name"] == "report.pipeline"]
    pipeline_s = _dur(spans[top])
    children_s = sum(_dur(s) for s in spans if s["parent"] == top)
    parse_s = _total(spans, "ingest.parse")
    assign_s = _total(spans, "geo.assign")
    agg_s = _total(spans, "aggregate.batch")
    records = _total(spans, "ingest.parse", "records")
    points = _total(spans, "geo.assign", "points")

    def rss_growth(name: str) -> float:
        return max((s["rss1_kb"] - s["rss0_kb"]) / 1024 for s in spans if s["name"] == name)

    return {
        "pipeline.span_s": (pipeline_s, "s"),
        "ingest.parse_s": (parse_s, "s"),
        "ingest.parse_records_per_s": (_ratio(records, parse_s), "1/s"),
        "ingest.read_s": (_total(spans, "ingest.read"), "s"),
        "ingest.split_s": (_total(spans, "ingest.split"), "s"),
        "ingest.tracts_s": (_total(spans, "ingest.tracts"), "s"),
        "ingest.census_s": (_total(spans, "ingest.census"), "s"),
        "ingest.parse_rss_mb": (rss_growth("ingest.parse"), "MB"),
        "ingest.records_total": (records, "count"),
        "ingest.records_skipped": (_total(spans, "ingest.parse", "skipped"), "count"),
        "geo.index_s": (_total(spans, "geo.index"), "s"),
        "geo.assign_s": (assign_s, "s"),
        "geo.assign_rss_mb": (rss_growth("geo.assign"), "MB"),
        "geo.points_per_s": (_ratio(points, assign_s), "1/s"),
        "geo.assigned_ratio": (_ratio(_total(spans, "geo.assign", "assigned"), points), "ratio"),
        "geo.edges": (_total(spans, "geo.index", "edges"), "count"),
        "aggregate.batch_s": (agg_s, "s"),
        "aggregate.events_per_s": (_ratio(_total(spans, "aggregate.batch", "events"), agg_s), "1/s"),
        "aggregate.rss_mb": (rss_growth("aggregate.batch"), "MB"),
        "gc.pause_s": (trace["gc_pause_s"], "s"),
        "gc.collections": (trace["gc_collections"], "count"),
        "report.self_s": (pipeline_s - children_s, "s"),
        "report.emit_s": (_total(spans, "report.emit"), "s"),
        "report.bytes_out": (_total(spans, "report.emit", "bytes"), "bytes"),
        "jsonio.dumps_s": (_total(spans, "jsonio.dumps"), "s"),
        "timebins.s": (_total(spans, "timebins"), "s"),
        "metrics.s": (_total(spans, "metrics"), "s"),
        "metrics.calls": (sum(1 for s in spans if s["name"] == "metrics"), "count"),
    }


def layer_metrics_k2(trace: dict) -> dict:
    spans = trace["spans"]
    (top,) = [s for s in spans if s["name"] == "report.pipeline"]
    wait_s = _total(spans, "partition.recv")
    records = [s["records"] for s in spans if s["name"] == "partition.recv" and "records" in s]
    return {
        "aggregate.merge_s": (_total(spans, "aggregate.merge"), "s"),
        "partition.wait_s": (wait_s, "s"),
        "partition.parent_busy_s": (_dur(top) - wait_s, "s"),
        "partition.labels_bytes": (_total(spans, "partition.send_bytes", "bytes"), "bytes"),
        "partition.result_bytes": (_total(spans, "partition.recv_bytes", "bytes"), "bytes"),
        "partition.worker_rss_mb": (trace["children_maxrss_kb"] / 1024, "MB"),
        "partition.cpu_s": (top["cpu1"] - top["cpu0"], "s"),
        "partition.skew": (_ratio(max(records), min(records)), "ratio"),
    }


def traced(launcher, w, seed: int, seconds: float, work: Path, k2_ok: bool) -> tuple[Tally, dict]:
    import geoineq.synth
    import workloads
    from tracer import Recorder

    rec = Recorder()
    rec.patch(workloads, "write_city", "synth.write_city")
    rec.patch(geoineq.synth, "generate_city", "synth.generate")
    inp, _ = setup(w, seed, work, 1)
    gen_s = _total(rec.spans, "synth.generate")
    synth = {
        "synth.generate_s": (gen_s, "s"),
        "synth.write_s": (_total(rec.spans, "synth.write_city") - gen_s, "s"),
        "synth.events_per_s": (w.synth.n_events / gen_s, "1/s"),
    }
    tally = Tally()
    per_round: list[dict] = []
    for _ in rounds(seconds):
        got = {}
        for k in (1, 2) if k2_ok else (1,):
            spans_path = work / f"spans{k}.json"
            # alternate which goes first, so order effects cancel in the
            # median of trace.overhead_k1_s
            if len(per_round) % 2:
                res = run_cli(launcher, inp, k, work / f"traced{k}", spans_path)
                base = run_cli(launcher, inp, k, work / f"out{k}")
            else:
                base = run_cli(launcher, inp, k, work / f"out{k}")
                res = run_cli(launcher, inp, k, work / f"traced{k}", spans_path)
            ok_base = tally.accept(base, f"k={k} untraced")
            ok_traced = tally.accept(res, f"k={k} traced")
            if not (ok_base and ok_traced):
                continue
            if not same_report(work / f"out{k}", work / f"traced{k}"):
                tally.mismatch(f"k={k} traced vs untraced")
                continue
            got[k] = (base.wall_s, res.wall_s, json.loads(spans_path.read_text()))
        m = {}
        if 1 in got:
            base_s, traced_s, trace = got[1]
            m.update(layer_metrics_k1(trace))
            m["trace.overhead_k1_s"] = (traced_s - base_s, "s")
        if 1 in got and 2 in got:
            if same_report(work / "out1", work / "out2"):
                k1_s, k2_s = got[1][0], got[2][0]
                m.update(layer_metrics_k2(got[2][2]))
                m["partition.base_k1_s"] = (k1_s, "s")
                m["partition.base_k2_s"] = (k2_s, "s")
                m["partition.speedup_k2"] = (k1_s / k2_s, "ratio")
            else:
                tally.mismatch("k=1 vs k=2 (traced round)")
        per_round.append(m)
    metrics = dict(synth)
    units = {name: unit for m in per_round for name, (_, unit) in m.items()}
    for name, unit in units.items():
        values = [m[name][0] for m in per_round if name in m]
        metrics[name] = (statistics.median(values), unit)
    print(f"samples: {len(per_round)} traced round(s)", file=sys.stderr)
    return tally, metrics


def stress_lines(name: str, m: dict) -> list[str]:
    """Whether the traced run shows the workload stressing the layer it
    was chosen for. Informational: a faster layer may legitimately
    change these shares, so they do not gate correctness."""
    v = {k: val for k, (val, _) in m.items()}
    if "pipeline.span_s" not in v:
        return []
    span = v["pipeline.span_s"]
    if name == "city":
        share = (v["ingest.parse_s"] + v["aggregate.batch_s"]) / span
        geo = v["geo.assign_s"] / span
        return [f"stress: parse+aggregate {share:.0%} of the pipeline span (chosen for >= 75%), "
                f"geo.assign {geo:.0%} (chosen for <= 10%)"]
    if name == "jagged-tracts":
        layers = {k: v[k] for k in ("ingest.parse_s", "ingest.tracts_s", "geo.index_s",
                                    "geo.assign_s", "aggregate.batch_s", "report.self_s",
                                    "report.emit_s", "gc.pause_s")}
        top = max(layers, key=layers.get)
        return [f"stress: largest layer is {top} ({layers[top]:.3f} s; chosen for geo.assign_s)"]
    return [f"stress: ingest.records_skipped {v['ingest.records_skipped']:.0f} "
            "(chosen to equal the injected line count)"]


def main() -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    w = WORKLOADS[args.workload]

    machine = machine_record()
    print("machine: " + json.dumps(machine))
    k2_ok = machine["usable_cores"] >= 2
    if not k2_ok:
        print("skipped: k=2 metrics, fewer than 2 usable cores "
              f"({machine['usable_cores']}); k=2 would only time-slice one core")
    work = ROOT / ".geobench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    launcher = Launcher()
    try:
        run = traced if args.trace else measure
        tally, metrics = run(launcher, w, args.seed, args.seconds, work, k2_ok)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload: {w.name} seed {args.seed}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print(f"error_rate {tally.failed}/{tally.attempted} runs")
    if args.trace:
        for line in stress_lines(w.name, metrics):
            print(line)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "geoineq" / "__init__.py").is_file():
        print(f"error: no geoineq sources under {SRC}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from workloads import WorkloadChanged

    try:
        sys.exit(main())
    except WorkloadChanged as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(3)
