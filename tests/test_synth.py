import json
from pathlib import Path

import pytest

from conftest import cohort_labels, local_fields, parse_events_file
from geoineq.cohort import classify_partials, user_partials
from geoineq.errors import InvalidParams
from geoineq.ingest import ParseStats, parse_tracts
from geoineq.synth import SplitMix64, SynthParams, generate_city, write_city

SMALL = SynthParams(
    seed=11, n_tracts=25, n_users_local=20, n_users_visitor=20, n_events=900, months=5
)


class TestSplitMix64:
    def test_reference_sequence(self):
        # canonical splitmix64 outputs for seed 1234567
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(5)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ]

    def test_random_in_unit_interval(self):
        rng = SplitMix64(9)
        vals = [rng.random() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)

    def test_below_bounds(self):
        rng = SplitMix64(3)
        assert all(0 <= rng.below(7) < 7 for _ in range(500))
        with pytest.raises(ValueError):
            rng.below(0)


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        p1 = write_city(SMALL, tmp_path / "a")
        p2 = write_city(SMALL, tmp_path / "b")
        for key in p1:
            assert Path(p1[key]).read_bytes() == Path(p2[key]).read_bytes()

    def test_distinct_seeds_differ(self):
        a = generate_city(SMALL)
        b = generate_city(SynthParams(**{**SMALL.__dict__, "seed": 12}))
        assert a.events_csv != b.events_csv


@pytest.fixture(scope="module")
def city():
    return generate_city(SMALL)


def city_partials(city, tz):
    """Per-user partials of a synthetic city's events, as the pipeline
    computes them."""
    batch = parse_events_file(city.events_csv.encode())
    return user_partials(batch.user_ids, batch.epochs, local_fields(batch.epochs, tz)[2])[0]


def city_labels(city, tz):
    """{user_id: (kind, super_local)} and the dataset months, classified
    from a synthetic city's events at the default 12-day window."""
    cohorts = classify_partials([city_partials(city, tz)], 12)
    return cohort_labels(cohorts.user_ids, cohorts.masks), cohorts.dataset_months


class TestConstruction:
    def test_events_parse_cleanly(self, city):
        stats = ParseStats()
        batch = parse_events_file(city.events_csv.encode(), "csv", stats)
        assert stats.records_skipped == 0
        assert len(batch) == SMALL.n_events

    def test_tracts_parse_and_count(self, city):
        feats = parse_tracts(json.dumps(city.tracts_geojson).encode())
        assert len(feats) == SMALL.n_tracts

    def test_realized_counts_sum_to_n_events(self, city):
        assert sum(city.ground_truth["tract_counts"].values()) == SMALL.n_events

    def test_cohort_recovery(self, city):
        labels, months = city_labels(city, SMALL.tz)
        assert months == [tuple(m) for m in city.ground_truth["months"]]
        truth = city.ground_truth["user_labels"]
        assert labels == {
            uid: (label["cohort"], label["super_local"]) for uid, label in truth.items()
        }

    def test_visitor_spans_within_window(self, city):
        parts = city_partials(city, SMALL.tz)
        for uid, first, last in zip(parts.user_ids, parts.first.tolist(), parts.last.tolist()):
            span = last - first
            if uid.startswith("V"):
                assert span <= 12 * 86400
            else:
                assert span > 12 * 86400

    def test_single_month_span_still_classifies(self):
        params = SynthParams(
            seed=5, n_tracts=4, n_users_local=5, n_users_visitor=5, n_events=40, months=1
        )
        city = generate_city(params)
        labels, _ = city_labels(city, params.tz)
        for uid, label in city.ground_truth["user_labels"].items():
            assert labels[uid][0] == label["cohort"]

    def test_zipf_concentrates_on_first_tract(self):
        params = SynthParams(
            seed=2, n_tracts=30, n_users_local=10, n_users_visitor=10,
            n_events=3000, zipf_s=2.0,
        )
        counts = generate_city(params).ground_truth["tract_counts"]
        assert max(counts, key=counts.get) == "T0001"

    def test_oracle_indexes_recomputable(self, city):
        from geoineq import oracles

        counts = [float(c) for c in city.ground_truth["tract_counts"].values()]
        want = city.ground_truth["expected_indexes"]["raw"]
        got = oracles.index_suite_direct(counts)
        for key, v in want.items():
            assert got[key] == pytest.approx(v, abs=1e-12)


class TestValidation:
    def test_zero_counts_rejected(self):
        with pytest.raises(InvalidParams):
            generate_city(SynthParams(n_tracts=0))

    def test_negative_zipf_rejected(self):
        with pytest.raises(InvalidParams):
            generate_city(SynthParams(zipf_s=-1.0))

    def test_too_few_events_rejected(self):
        with pytest.raises(InvalidParams):
            generate_city(
                SynthParams(n_users_local=100, n_users_visitor=1, n_events=10, months=5)
            )

    def test_bad_day_fraction_rejected(self):
        with pytest.raises(InvalidParams):
            generate_city(SynthParams(day_fraction_local=1.5))
