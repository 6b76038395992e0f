"""Acceptance suite: every release gate runs here, one criterion per
test, each printing a PASS line with its measured numbers (run with -s).

Criterion 9's parallel-speedup clause needs at least two usable CPU
cores to be measurable; on single-core machines that clause is skipped
with an explicit message (output identity across partitions is still
asserted everywhere).
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import assign_point, cohort_labels, cube_view, distribution
from geoineq import oracles
from geoineq.aggregate import tag_summary_from_components
from geoineq.geo import build_spatial_index, tract_from_feature
from geoineq.ingest import parse_tracts
from geoineq.metrics import (
    IndexSuite,
    gini,
    hoover,
    lorenz_curve,
    percentile_ratio,
    relative_entropy,
    suite_ratio,
    theil,
)
from geoineq.report import OUTPUT_NAMES, PipelineConfig, run_pipeline_full
from geoineq.synth import SynthParams, write_city

D = distribution

SUITE_KEYS = ("gini", "ratio_80_20", "ratio_90_10", "hoover", "theil")


@pytest.fixture(scope="module")
def city_100k(tmp_path_factory):
    params = SynthParams(
        seed=42, n_tracts=200, n_users_local=1500, n_users_visitor=1500,
        n_events=100_000, zipf_s=1.0,
    )
    paths = write_city(params, tmp_path_factory.mktemp("city100k"))
    return params, paths


@pytest.fixture(scope="module")
def city_1m(tmp_path_factory):
    params = SynthParams(
        seed=42, n_tracts=300, n_users_local=2500, n_users_visitor=2500,
        n_events=1_000_000, zipf_s=1.0,
    )
    paths = write_city(params, tmp_path_factory.mktemp("city1m"))
    return params, paths


def random_vectors(seed, count, n_lo=2, n_hi=64, v_hi=10**6):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(n_lo, n_hi + 1))
        xs = rng.integers(0, v_hi + 1, size=n).tolist()
        if sum(xs) > 0:
            out.append([float(x) for x in xs])
    return out


def test_criterion_1_gini_oracle_equivalence():
    vectors = random_vectors(12345, 1000)
    t0 = time.perf_counter()
    worst = 0.0
    for xs in vectors:
        d = D(xs)
        g = gini(d)
        g_pair = oracles.gini_pairwise(xs)
        g_lorenz = oracles.lorenz_trapezoid_gini(lorenz_curve(d).points)
        worst = max(worst, abs(g - g_pair), abs(g - g_lorenz), abs(g_pair - g_lorenz))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 5.0
    print(f"\nPASS criterion 1: gini oracle equivalence, max diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_index_invariant_suite():
    vectors = random_vectors(777, 200)
    for xs in vectors:
        d = D(xs)
        g, h, t = gini(d), hoover(d), theil(d)
        n = len(xs)
        assert 0.0 <= g < 1.0 and 0.0 <= h < 1.0
        assert -1e-15 <= t <= math.log(n) + 1e-12
        assert 0.0 <= relative_entropy(xs) <= 1.0
        for c in (0.5, 3.0, 1e6):
            dc = D([c * x for x in xs])
            assert abs(gini(dc) - g) <= 1e-12
            assert abs(hoover(dc) - h) <= 1e-12
            assert abs(theil(dc) - t) <= 1e-12
            lo = sorted(xs)[max(0, math.ceil(len(xs) / 10) - 1)]
            if lo > 0:
                r = percentile_ratio(d, 90, 10)
                assert abs(percentile_ratio(dc, 90, 10) - r) <= 1e-12 * max(1.0, r)
    for n in (2, 10, 287):
        d = D([0.0] * (n - 1) + [1.0])
        assert abs(gini(d) - (n - 1) / n) <= 1e-12
        assert abs(hoover(d) - (n - 1) / n) <= 1e-12
        assert abs(theil(d) - math.log(n)) <= 1e-12
        assert relative_entropy([0] * (n - 1) + [1]) == 0.0
    print("\nPASS criterion 2: scale invariance, ranges, max-concentration bounds")


def test_criterion_3_hand_computed_values():
    assert gini(D([0, 0, 0, 1])) == pytest.approx(0.75, abs=1e-12)
    assert gini(D([1, 2, 3, 4])) == pytest.approx(0.25, abs=1e-12)
    assert hoover(D([1, 3])) == pytest.approx(0.25, abs=1e-12)
    assert theil(D([0, 0, 0, 1])) == pytest.approx(math.log(4), abs=1e-12)
    assert relative_entropy([1, 1, 2]) == pytest.approx(0.9464, abs=1e-4)
    print("\nPASS criterion 3: hand-computed index values")


def test_criterion_4_published_arithmetic_replication():
    visitors = IndexSuite(gini=0.669, ratio_80_20=7.9, ratio_90_10=25.0, hoover=0.52, theil=0.93)
    locals_ = IndexSuite(gini=0.494, ratio_80_20=6.0, ratio_90_10=13.9, hoover=0.37, theil=0.41)
    ratio = suite_ratio(visitors, locals_)
    assert ratio.gini == pytest.approx(1.354, abs=1e-3)
    assert ratio.ratio_90_10 == pytest.approx(1.798, abs=1e-3)
    visitor_tags = tag_summary_from_components(1_524_046, 2_767_822, 0, 0, 0)
    local_tags = tag_summary_from_components(5_918_408, 14_119_037, 0, 0, 0)
    assert visitor_tags.mean_tags_per_image == pytest.approx(1.816, abs=1e-3)
    # exact quotient is 2.3856, which rounds to 2.386 rather than truncating to 2.385
    assert local_tags.mean_tags_per_image == pytest.approx(2.386, abs=1e-3)
    print("\nPASS criterion 4: table-ratio and mean-tag arithmetic replicated")


def test_criterion_5_point_in_polygon_oracle():
    # 287 synthetic tracts: a 17x17 grid trimmed to 287 cells, two with holes
    features = []
    for k in range(287):
        r, c = divmod(k, 17)
        x0, y0 = c * 0.02, r * 0.02
        holes = None
        if k in (40, 200):
            hx, hy = x0 + 0.005, y0 + 0.005
            holes = [[[hx, hy], [hx + 0.01, hy], [hx + 0.01, hy + 0.01], [hx, hy + 0.01], [hx, hy]]]
        ring = [[x0, y0], [x0 + 0.02, y0], [x0 + 0.02, y0 + 0.02], [x0, y0 + 0.02], [x0, y0]]
        features.append(
            {
                "type": "Feature",
                "properties": {"tract_id": f"T{k + 1:04d}"},
                "geometry": {"type": "Polygon", "coordinates": [ring] + (holes or [])},
            }
        )
    raw = json.dumps({"type": "FeatureCollection", "features": features}).encode()
    tracts = [tract_from_feature(f) for f in parse_tracts(raw)]
    index = build_spatial_index(tracts)

    rng = np.random.default_rng(99)
    n = 100_000
    lons = rng.uniform(-0.04, 0.38, size=n)
    lats = rng.uniform(-0.04, 0.38, size=n)

    got_idx = index.assign_batch(lats, lons)
    got = [index.tract_ids[i] if i >= 0 else None for i in got_idx]
    want = oracles.assign_batch_naive(lats, lons, tracts)
    mismatches = sum(1 for a, b in zip(got, want) if a != b)
    assert mismatches == 0

    # one-point batches and the naive scalar scan on a subsample
    for i in rng.choice(n, size=3000, replace=False):
        lat, lon = float(lats[i]), float(lons[i])
        assert assign_point(lat, lon, index) == got[i]
        assert oracles.assign_tract_naive(lat, lon, tracts) == got[i]
    assigned = sum(1 for g in got if g is not None)
    print(f"\nPASS criterion 5: indexed == naive scan on {n} points ({assigned} assigned)")


def _run_to_dir(paths, out, partitions=1, normalization="per_km2"):
    from geoineq.report import emit_outputs

    cfg = PipelineConfig(
        events_path=paths["events"], tracts_path=paths["tracts"],
        normalization=normalization, seed=42,
    )
    report, internals = run_pipeline_full(cfg, partitions=partitions)
    emit_outputs(report, internals, out)
    return report, internals


def test_criterion_6_partition_merge_determinism(city_100k, tmp_path):
    _, paths = city_100k
    blobs = {}
    for k in (1, 2, 8):
        _run_to_dir(paths, tmp_path / f"k{k}", partitions=k)
        blobs[k] = {p.name: p.read_bytes() for p in sorted((tmp_path / f"k{k}").iterdir())}
    assert set(blobs[1]) == set(OUTPUT_NAMES.values())
    assert blobs[1] == blobs[2] == blobs[8]
    size = sum(map(len, blobs[1].values()))
    print(f"\nPASS criterion 6: all {len(blobs[1])} outputs byte-identical for k=1,2,8 "
          f"({size} bytes)")


def test_criterion_7_end_to_end_oracle_closure(city_100k):
    params, paths = city_100k
    gt = json.loads(Path(paths["ground_truth"]).read_text())

    cfg_raw = PipelineConfig(
        events_path=paths["events"], tracts_path=paths["tracts"], normalization="raw"
    )
    report_raw, internals = run_pipeline_full(cfg_raw)

    view = cube_view(internals.aggregates, internals.tract_ids)
    counts = {tid: view.get(tid, {}).get("all", {}).get("event_count", 0)
              for tid in internals.tract_ids}
    assert counts == gt["tract_counts"]

    labels = cohort_labels(internals.user_ids, internals.user_masks)
    labels_ok = sum(
        labels.get(uid) == (label["cohort"], label["super_local"])
        for uid, label in gt["user_labels"].items()
    )
    assert labels_ok == len(gt["user_labels"])

    count_vec = [float(gt["tract_counts"][tid]) for tid in internals.tract_ids]
    oracle_raw = oracles.index_suite_direct(count_vec)
    got_raw = report_raw["distributions"]["images"]["all"]["suite"]
    worst = 0.0
    for key in SUITE_KEYS:
        assert (got_raw[key] is None) == (oracle_raw[key] is None), key
        if oracle_raw[key] is not None:
            worst = max(worst, abs(got_raw[key] - oracle_raw[key]))
    assert worst <= 1e-12
    entropy = report_raw["concentration"]["all"]["spatial_relative_entropy"]
    oracle_entropy = oracles.relative_entropy_direct(gt["tract_counts"].values())
    worst = max(worst, abs(entropy - oracle_entropy))
    assert worst <= 1e-12

    report_dens, _ = run_pipeline_full(
        PipelineConfig(events_path=paths["events"], tracts_path=paths["tracts"])
    )
    areas = {t.tract_id: t.area_km2 for t in internals.tracts}
    dens_vec = [gt["tract_counts"][tid] / areas[tid] for tid in internals.tract_ids]
    oracle_dens = oracles.index_suite_direct(dens_vec)
    got_dens = report_dens["distributions"]["images"]["all"]["suite"]
    for key in SUITE_KEYS:
        if oracle_dens[key] is not None:
            worst = max(worst, abs(got_dens[key] - oracle_dens[key]))
    assert worst <= 1e-12
    print(
        f"\nPASS criterion 7: counts exact, {labels_ok}/{len(gt['user_labels'])} labels, "
        f"index diff {worst:.2e}"
    )


def test_criterion_8_day_night_boundary(tmp_path):
    features = [
        {
            "type": "Feature",
            "properties": {"tract_id": f"T{i}"},
            "geometry": {
                "type": "Polygon",
                "coordinates": [[[2 * i, 0], [2 * i + 1, 0], [2 * i + 1, 1], [2 * i, 1], [2 * i, 0]]],
            },
        }
        for i in range(4)
    ]
    (tmp_path / "tracts.geojson").write_text(
        json.dumps({"type": "FeatureCollection", "features": features})
    )
    stamps = ["06:59:59", "07:00:00", "18:59:59", "19:00:00"]
    want = ["night", "day", "day", "night"]
    rows = ["user_id,lat,lon,timestamp,text"]
    for i, hms in enumerate(stamps):
        rows.append(f"u{i},0.5,{2 * i}.5,2014-06-10T{hms}-04:00,x")
    (tmp_path / "events.csv").write_text("\n".join(rows) + "\n")
    cfg = PipelineConfig(
        events_path=str(tmp_path / "events.csv"),
        tracts_path=str(tmp_path / "tracts.geojson"),
        timezone="America/New_York",
    )
    _, internals = run_pipeline_full(cfg)
    view = cube_view(internals.aggregates, internals.tract_ids)
    got = []
    for i in range(4):
        st = view[f"T{i}"]["all"]
        assert st["day_count"] + st["night_count"] == 1
        got.append("day" if st["day_count"] else "night")
    assert got == want
    print(f"\nPASS criterion 8: {list(zip(stamps, got))}")


@pytest.fixture(scope="module")
def perf_measurements(city_1m, tmp_path_factory):
    from geoineq.report import emit_outputs

    _, paths = city_1m
    out = tmp_path_factory.mktemp("perf")
    cfg = PipelineConfig(
        events_path=paths["events"], tracts_path=paths["tracts"], seed=42
    )
    # noisy shared-CPU boxes: take the best of two runs
    single = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        report1, internals1 = run_pipeline_full(cfg, partitions=1)
        single = min(single, time.perf_counter() - t0)
    t0 = time.perf_counter()
    report4, internals4 = run_pipeline_full(cfg, partitions=4)
    partitioned = time.perf_counter() - t0
    emit_outputs(report1, internals1, out / "p1")
    emit_outputs(report4, internals4, out / "p4")
    return {
        "events": report1["ingest"]["events_assigned"],
        "single": single,
        "partitioned": partitioned,
        "identical": (out / "p1" / "report.json").read_bytes()
        == (out / "p4" / "report.json").read_bytes(),
    }


def test_criterion_9_single_thread_budget_and_partition_identity(perf_measurements):
    m = perf_measurements
    assert m["events"] == 1_000_000
    assert m["single"] <= 10.0, f"single-threaded 1M-event run took {m['single']:.2f}s"
    assert m["identical"], "partitioned output differs from single-threaded output"
    print(
        f"\nPASS criterion 9 (budget+identity): single {m['single']:.2f}s <= 10s; "
        f"4-partition output byte-identical"
    )


def test_criterion_9_parallel_speedup(perf_measurements):
    m = perf_measurements
    cores = len(os.sched_getaffinity(0))
    if cores < 2:
        pytest.skip(
            f"speedup clause needs >= 2 usable CPU cores, this machine has {cores}; "
            f"measured single={m['single']:.2f}s, partitioned={m['partitioned']:.2f}s"
        )
    speedup = m["single"] / m["partitioned"]
    assert speedup >= 2.0, f"speedup {speedup:.2f}x < 2x at 4 partitions"
    print(f"\nPASS criterion 9 (speedup): {speedup:.2f}x at 4 partitions")
