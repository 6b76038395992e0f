#!/usr/bin/env python3
"""End-to-end demo: generate a synthetic city, run the pipeline, print
the inequality table, and check the result against the generator's
ground truth.

    python scripts/demo_city.py [--seed 42] [--events 50000] [--out demo_out]
"""

import argparse
import json
from pathlib import Path

from geoineq import oracles
from geoineq.report import PipelineConfig, emit_outputs, run_pipeline_full
from geoineq.synth import SynthParams, write_city

SUITE_KEYS = ("gini", "ratio_80_20", "ratio_90_10", "hoover", "theil")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--tracts", type=int, default=200)
    ap.add_argument("--events", type=int, default=50_000)
    ap.add_argument("--zipf-s", type=float, default=1.0)
    ap.add_argument("--out", default="demo_out")
    args = ap.parse_args()

    params = SynthParams(
        seed=args.seed,
        n_tracts=args.tracts,
        n_users_local=800,
        n_users_visitor=800,
        n_events=args.events,
        zipf_s=args.zipf_s,
    )
    city_dir = Path(args.out) / "city"
    paths = write_city(params, city_dir)
    print(f"synthetic city written to {city_dir}")

    config = PipelineConfig(
        events_path=paths["events"],
        tracts_path=paths["tracts"],
        seed=args.seed,
    )
    report, internals = run_pipeline_full(config)
    files = emit_outputs(report, internals, Path(args.out) / "report")

    assigned, n_tracts = report["ingest"]["events_assigned"], report["tracts"]["count"]
    print(f"\n{assigned} events over {n_tracts} tracts")
    print(f"users: {report['users']}")

    header = f"{'index':<14}{'visitor':>12}{'local':>12}{'ratio':>10}"
    print("\n" + header)
    print("-" * len(header))
    dists = report["distributions"]["images"]
    ratio = dists["ratio_visitor_local"]
    for key in SUITE_KEYS:
        v = dists["visitor"]["suite"][key]
        l = dists["local"]["suite"][key]
        r = ratio[key] if ratio else None
        fmt = lambda x: f"{x:.3f}" if x is not None else "null"
        print(f"{key:<14}{fmt(v):>12}{fmt(l):>12}{fmt(r):>10}")

    gt = json.loads(Path(paths["ground_truth"]).read_text())
    counts = [float(gt["tract_counts"][tid]) for tid in internals.tract_ids]
    oracle = oracles.index_suite_direct(counts)
    got = run_pipeline_full(
        PipelineConfig(events_path=paths["events"], tracts_path=paths["tracts"],
                       normalization="raw")
    )[0]["distributions"]["images"]["all"]["suite"]
    worst = max(
        abs(got[k] - oracle[k]) for k in SUITE_KEYS if oracle[k] is not None
    )
    print(f"\nground-truth closure: max index diff {worst:.2e}")
    print("\noutputs:")
    for p in files:
        print(f"  {p}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
