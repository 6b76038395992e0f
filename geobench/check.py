"""Correctness gate for one ``geoineq run`` output directory.

Every expected value comes from the synth ground truth, the lines the
benchmark injected, the census values it wrote, or the reference code in
``geoineq.oracles``; none is recomputed by the code under test.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from geoineq.oracles import index_suite_direct

from workloads import Inputs

OUTPUT_FILES = (
    "report.json", "indexes.csv", "tags.csv", "ranks.csv", "tracts.csv",
    "lorenz.svg", "choropleth.geojson",
)

# report.json prints floats at 12 significant digits and tracts.csv
# prints areas the same way, so agreement is checked one digit looser
REL_TOL = 1e-11


def _suites_match(got: dict | None, want: dict) -> bool:
    if got is None:
        return False
    for key, w in want.items():
        g = got.get(key)
        if (g is None) != (w is None):
            return False
        if w is not None and not math.isclose(g, w, rel_tol=REL_TOL, abs_tol=1e-12):
            return False
    return True


def check_outputs(inp: Inputs, out_dir: Path) -> list[str]:
    """Problems found in one run's outputs; an empty list means it passed."""
    missing = [n for n in OUTPUT_FILES if not (out_dir / n).is_file()]
    if missing:
        return [f"missing outputs {missing}"]
    problems = []
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    truth = inp.truth

    counts: dict[str, dict[str, int]] = {}
    areas: dict[str, float] = {}
    with open(out_dir / "tracts.csv", encoding="utf-8", newline="") as f:
        for row in csv.DictReader(f):
            counts.setdefault(row["cohort"], {})[row["tract_id"]] = int(row["event_count"])
            areas[row["tract_id"]] = float(row["area_km2"])
    if counts.get("all") != truth["tract_counts"]:
        problems.append("tracts.csv: per-tract counts differ from ground truth")
    for cohort in ("visitor", "local"):
        if counts.get(cohort) != truth["tract_counts_by_cohort"][cohort]:
            problems.append(f"tracts.csv: per-tract {cohort} counts differ from ground truth")

    labels = truth["user_labels"].values()
    users = {
        "total": len(labels),
        "visitor": sum(1 for v in labels if v["cohort"] == "visitor"),
        "local": sum(1 for v in labels if v["cohort"] == "local"),
        "super_local": sum(1 for v in labels if v["super_local"]),
    }
    if report["users"] != users:
        problems.append(f"users {report['users']} != ground truth {users}")

    # report.json carries only the per-km2 suite (the default
    # normalization); the raw suite closes against ground truth
    tids = sorted(areas)
    raw = [float(counts.get("all", {}).get(t, 0)) for t in tids]
    if not _suites_match(index_suite_direct(raw), truth["expected_indexes"]["raw"]):
        problems.append("images/all raw suite differs from ground truth")
    density = [raw[i] / areas[t] for i, t in enumerate(tids)]
    got = report["distributions"]["images"]["all"]["suite"]
    if not _suites_match(got, index_suite_direct(density)):
        problems.append("images/all per-km2 suite differs from the oracle")

    ingest = report["ingest"]
    n_events = truth["params"]["n_events"]
    if ingest["errors"] != inp.injected:
        problems.append(f"ingest errors {ingest['errors']} != injected {inp.injected}")
    if ingest["records_skipped"] != sum(inp.injected.values()):
        problems.append("records_skipped differs from the injected line count")
    if ingest["records_ok"] != n_events or ingest["events_assigned"] != n_events:
        problems.append(f"ingest kept {ingest['records_ok']} records, expected {n_events}")

    for name, values in inp.census_values.items():
        want = index_suite_direct(list(values.values()))
        if not _suites_match((report["census_indexes"] or {}).get(name), want):
            problems.append(f"census suite {name} differs from the oracle")
    return problems
