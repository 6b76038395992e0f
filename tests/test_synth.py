import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import cohort_labels, local_fields, parse_events_file
from geoineq import oracles, synth
from geoineq.cohort import classify_partials, user_partials
from geoineq.errors import InvalidParams
from geoineq.ingest import ParseStats, parse_tracts
from geoineq.oracles import SplitMix64
from geoineq.synth import SynthParams, generate_city, write_city

SMALL = SynthParams(
    seed=11, n_tracts=25, n_users_local=20, n_users_visitor=20, n_events=900, months=5
)

# sha256 of SMALL's files as written by the per-draw generator
SMALL_SHA256 = {
    "tracts": "41964cfb042046d9ecdeb3a4fafc505da839d8a9533e889ffbfce0e2a0a3bde2",
    "events": "cc1e778c322a8e98bbe33b0dc70f0a99b20c3eb363aebb3af79c7cb76e295903",
    "ground_truth": "a89f08232cff6d130c525d74bde50c0673d2867e65185756a3f56f4488c59938",
}


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


def reference_files(params):
    """The city's three files with the events and their counts from the
    per-draw reference generator."""
    geojson, _ = synth._tract_grid(params.n_tracts)
    events_csv, by_cohort = oracles.synth_events_direct(params)
    return synth.city_files(synth._city(params, geojson, events_csv, by_cohort))


@st.composite
def small_params(draw):
    months = draw(st.integers(1, 4))
    n_local = draw(st.integers(1, 6))
    n_visitor = draw(st.integers(1, 6))
    mandatory = n_local * max(2, months) + n_visitor
    return SynthParams(
        seed=draw(st.integers(-(2**63), 2**64 - 1)),
        n_tracts=draw(st.integers(2, 12)),
        n_users_local=n_local,
        n_users_visitor=n_visitor,
        n_events=mandatory + draw(st.integers(0, 150)),
        zipf_s=draw(st.sampled_from([0.0, 0.5, 1.0, 2.5])),
        start_year=draw(st.integers(2012, 2016)),
        start_month=draw(st.integers(1, 12)),
        months=months,
        day_fraction_local=draw(st.sampled_from([0.0, 0.6, 1.0])),
        day_fraction_visitor=draw(st.sampled_from([0.0, 0.75, 1.0])),
        tz=draw(st.sampled_from(["America/New_York", "Australia/Sydney"])),
    )


def _inject_max(monkeypatch, positions):
    """Make the stream's draws at ``positions`` 2^64 - 1, a draw that
    ``below(n)`` rejects for every n that is not a power of two, in both
    the bulk generator and the reference."""
    top = (1 << 64) - 1
    block = synth._splitmix_block
    next_u64 = oracles.SplitMix64.next_u64

    def injected_block(seed, start, count):
        z = block(seed, start, count)
        for k in positions:
            if start <= k < start + count:
                z[k - start] = top
        return z

    drawn = itertools.count()

    def injected_next(self):
        u = next_u64(self)
        return top if next(drawn) in positions else u

    monkeypatch.setattr(synth, "_splitmix_block", injected_block)
    monkeypatch.setattr(oracles.SplitMix64, "next_u64", injected_next)


class TestBulkMatchesReference:
    @given(params=small_params(), block_draws=st.sampled_from([37, 64, 500, 1 << 20]))
    def test_byte_identical_files(self, params, block_draws):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synth, "_BLOCK_DRAWS", block_draws)
            got = synth.city_files(generate_city(params))
        assert got == reference_files(params)

    def test_rejected_draw_shifts_the_stream(self, monkeypatch):
        # draw 1 is the first local's below(7) for its last day; 2^64 - 1
        # is rejected (2^64 mod 7 = 2), so every later draw moves by one
        plain = synth.city_files(generate_city(SMALL))
        _inject_max(monkeypatch, {1})
        got = synth.city_files(generate_city(SMALL))
        assert got == reference_files(SMALL)
        assert got["events"] != plain["events"]

    @given(positions=st.sets(st.integers(0, 1200), max_size=6),
           block_draws=st.sampled_from([40, 300, 1 << 20]))
    def test_rejected_draws_anywhere(self, positions, block_draws):
        params = SynthParams(seed=3, n_tracts=6, n_users_local=3, n_users_visitor=4,
                             n_events=60, months=3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synth, "_BLOCK_DRAWS", block_draws)
            _inject_max(mp, positions)
            assert synth.city_files(generate_city(params)) == reference_files(params)

    def test_equal_keys_keep_stream_order(self):
        # night posts of two users over one month: some posts share their
        # user and second, and keep the order the stream made them in
        params = SynthParams(seed=1, n_tracts=3, n_users_local=1, n_users_visitor=1,
                             n_events=3000, months=1, day_fraction_local=0.0,
                             day_fraction_visitor=0.0)
        got = synth.city_files(generate_city(params))
        keys = [line.split(",")[0] + line.split(",")[3] for line in got["events"].splitlines()]
        assert len(set(keys)) < len(keys)
        assert got == reference_files(params)

    def test_small_city_golden_digest(self, tmp_path):
        paths = write_city(SMALL, tmp_path)
        got = {k: hashlib.sha256(Path(p).read_bytes()).hexdigest() for k, p in paths.items()}
        assert got == SMALL_SHA256


# x * 10^7 exactly halfway between two integers (x = odd / 256)
_TIES = [k / 256 for k in (1, 3, 5, 255)] + [40 + 1 / 256, -(74 + 3 / 256), -(73 + 253 / 256)]


def _product_ties() -> list[float]:
    """Floats x = m * 2^-47 in [32, 64) whose x * 10^7 lies delta * 2^-40
    from a tie: the float product, with a 2^-24 or 2^-23 spacing there,
    rounds onto the tie, so rounding the product is wrong on one side."""
    inverse = pow(5**7, -1, 2**40)  # x * 10^7 = m * 5^7 * 2^-40
    xs = []
    for delta in (1, -1, 3, -3, 1000, -1000):
        m = 2**52 + (2**39 + delta) * inverse % 2**40
        xs += [m * 2.0**-47, -m * 2.0**-47]
    return xs


_NEAR_TIES = _TIES + _product_ties()


class TestBulkPieces:
    @given(seed=st.integers(-(2**63), 2**64 - 1), start=st.integers(0, 300),
           count=st.integers(1, 40))
    def test_stream_block_matches_per_draw(self, seed, start, count):
        rng = SplitMix64(seed)
        for _ in range(start):
            rng.next_u64()
        want = [rng.next_u64() for _ in range(count)]
        assert synth._splitmix_block(seed, start, count).tolist() == want

    @given(xs=st.lists(
        st.one_of(st.floats(-200.0, 200.0), st.sampled_from(_NEAR_TIES)), min_size=1
    ))
    def test_fixed7_matches_percent_format(self, xs):
        pieces = synth._fixed7(np.array(xs))
        got = ["".join(p)[:-1] for p in zip(*(piece.tolist() for piece in pieces))]
        assert got == [f"{x:.7f}" for x in xs]

    def test_fixed7_product_ties(self):
        xs = _product_ties()
        assert all(x * 1e7 % 1 == 0.5 for x in xs)
        pieces = synth._fixed7(np.array(xs))
        got = ["".join(p)[:-1] for p in zip(*(piece.tolist() for piece in pieces))]
        assert got == [f"{x:.7f}" for x in xs]

    def test_fixed7_ties_round_to_even(self):
        heads, first4, last3 = synth._fixed7(np.array([1 / 256, 3 / 256, -0.0]))
        assert [h + f + l for h, f, l in zip(heads, first4, last3)] == [
            "0.0039062,", "0.0117188,", "-0.0000000,"
        ]


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

    def test_single_tract_rejected(self):
        with pytest.raises(InvalidParams, match="n_tracts must be >= 2"):
            generate_city(SynthParams(n_tracts=1))

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
