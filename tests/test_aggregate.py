from datetime import datetime, time, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from geoineq.aggregate import (
    CohortTractStats,
    TractAggregate,
    aggregate_batch,
    aggregate_by_tract,
    cohort_buckets,
    cohort_mask,
    day_night_split,
    merge_aggregate_maps,
    merge_aggregates,
    merge_tag_components,
    normalize_density,
    tag_summary,
    tag_summary_from_counts,
)
from geoineq.cohort import Cohort
from geoineq.errors import (
    DegenerateArea,
    EmptyCohort,
    MissingArea,
    TractIdMismatch,
)
from geoineq.ingest import GeoEvent
from geoineq.timebins import LocalClock

UTC = timezone.utc
LOCAL = Cohort("local")
VISITOR = Cohort("visitor")
SUPER = Cohort("local", super_local=True)


def ev(ts, text="", user_id="u"):
    return GeoEvent(user_id, 40.7, -74.0, ts, text)


class TestAggregateByTract:
    def test_tag_counts(self):
        base = datetime(2014, 3, 15, 12, 0, tzinfo=UTC)
        assigned = [
            (ev(base, "#a #b"), "T1", LOCAL),
            (ev(base + timedelta(hours=1), "#a"), "T1", LOCAL),
        ]
        agg = aggregate_by_tract(assigned, "UTC")["T1"]
        st_ = agg.cohorts["local"]
        assert st_.event_count == 2
        assert st_.tag_count == 3
        assert st_.unique_tags == {"a", "b"}

    def test_sunday_first_dow_and_hour_bins(self):
        # 1970-01-04 was a Sunday
        assigned = [(ev(datetime(1970, 1, 4, 10, 0, tzinfo=UTC)), "T1", VISITOR)]
        st_ = aggregate_by_tract(assigned, "UTC")["T1"].cohorts["visitor"]
        assert st_.dow_histogram[0] == 1 and sum(st_.dow_histogram) == 1
        assert st_.hour_histogram[10] == 1 and sum(st_.hour_histogram) == 1
        assert st_.month_histogram == {(1970, 1): 1}

    def test_empty_input(self):
        assert aggregate_by_tract([], "UTC") == {}

    def test_super_local_counts_in_both_buckets(self):
        assigned = [(ev(datetime(2014, 3, 15, 12, 0, tzinfo=UTC)), "T1", SUPER)]
        agg = aggregate_by_tract(assigned, "UTC")["T1"]
        assert agg.cohorts["local"].event_count == 1
        assert agg.cohorts["super_local"].event_count == 1
        assert agg.cohorts["all"].event_count == 1
        assert "visitor" not in agg.cohorts

    def test_binning_uses_display_timezone(self):
        # 02:30 UTC on Mar 16 is 22:30 on Mar 15 in New York
        assigned = [(ev(datetime(2014, 3, 16, 2, 30, tzinfo=UTC)), "T1", LOCAL)]
        st_ = aggregate_by_tract(assigned, "America/New_York")["T1"].cohorts["local"]
        assert st_.hour_histogram[22] == 1
        assert st_.night_count == 1 and st_.day_count == 0


class TestDayNight:
    @pytest.mark.parametrize(
        "hms,expect",
        [
            ((7, 0, 0), "day"),
            ((6, 59, 59), "night"),
            ((18, 59, 59), "day"),
            ((19, 0, 0), "night"),
            ((12, 0, 0), "day"),
            ((0, 0, 0), "night"),
        ],
    )
    def test_boundaries(self, hms, expect):
        assert day_night_split(time(*hms)) == expect
        assert day_night_split(datetime(2014, 3, 15, *hms, tzinfo=UTC)) == expect

    def test_invariant_day_plus_night(self):
        base = datetime(2014, 3, 15, 0, 0, tzinfo=UTC)
        assigned = [
            (ev(base + timedelta(minutes=37 * i)), "T1", LOCAL) for i in range(40)
        ]
        st_ = aggregate_by_tract(assigned, "UTC")["T1"].cohorts["local"]
        assert st_.day_count + st_.night_count == st_.event_count
        assert sum(st_.hour_histogram) == st_.event_count
        assert sum(st_.dow_histogram) == st_.event_count
        assert sum(st_.month_histogram.values()) == st_.event_count


class TestNormalizeDensity:
    def test_division(self):
        assert normalize_density({"T1": 10}, {"T1": 0.5}) == {"T1": 20.0}

    def test_zero_count_retained(self):
        out = normalize_density({"T1": 0, "T2": 4}, {"T1": 1.0, "T2": 2.0})
        assert out == {"T1": 0.0, "T2": 2.0}

    def test_zero_area_rejected(self):
        with pytest.raises(DegenerateArea):
            normalize_density({"T1": 1}, {"T1": 0.0})

    def test_missing_area(self):
        with pytest.raises(MissingArea):
            normalize_density({"T1": 1}, {})


class TestTagSummary:
    def test_hand_counts(self):
        ts = tag_summary_from_counts([0, 0, 3, 7])
        assert ts.proportion_with_tags == 0.5
        assert ts.proportion_gt5 == 0.25
        assert ts.proportion_gt10 == 0.0
        assert ts.mean_tags_per_image == 2.5
        assert ts.mean_tags_per_tagged_image == 5.0

    def test_gt5_means_six_or_more(self):
        ts = tag_summary_from_counts([5, 6, 10, 11])
        assert ts.images_gt5_tags == 3
        assert ts.images_gt10_tags == 1

    def test_all_untagged(self):
        ts = tag_summary_from_counts([0, 0])
        assert ts.mean_tags_per_tagged_image is None
        assert ts.mean_tags_per_image == 0.0

    def test_empty_cohort(self):
        with pytest.raises(EmptyCohort):
            tag_summary_from_counts([])

    def test_from_events(self):
        base = datetime(2014, 3, 15, 12, 0, tzinfo=UTC)
        events = [ev(base, "#a #b #c"), ev(base, "")]
        ts = tag_summary(events)
        assert ts.image_count == 2
        assert ts.tag_total == 3
        assert ts.images_with_tags == 1


def random_stats(rng):
    hours = [int(rng.integers(0, 5)) for _ in range(24)]
    dows = [int(rng.integers(0, 5)) for _ in range(7)]
    total = sum(hours)
    dows[0] += total - sum(dows)  # keep totals consistent
    day = int(rng.integers(0, total + 1))
    return CohortTractStats(
        event_count=total,
        tag_count=int(rng.integers(0, 40)),
        unique_tags=set(rng.choice(list("abcdefgh"), size=rng.integers(0, 6), replace=False)),
        hour_histogram=hours,
        dow_histogram=dows,
        month_histogram={(2014, int(m)): 1 for m in rng.choice(range(1, 13), 3, replace=False)},
        day_count=day,
        night_count=total - day,
    )


class TestMerge:
    def test_identity(self):
        rng = np.random.default_rng(0)
        x = TractAggregate("T1", {"local": random_stats(rng)})
        zero = TractAggregate("T1")
        assert merge_aggregates(x, zero) == x
        assert merge_aggregates(zero, x) == x

    def test_commutative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = TractAggregate("T1", {"local": random_stats(rng), "all": random_stats(rng)})
            b = TractAggregate("T1", {"visitor": random_stats(rng), "all": random_stats(rng)})
            assert merge_aggregates(a, b) == merge_aggregates(b, a)

    def test_associative(self):
        rng = np.random.default_rng(2)
        a, b, c = (TractAggregate("T1", {"all": random_stats(rng)}) for _ in range(3))
        lhs = merge_aggregates(merge_aggregates(a, b), c)
        rhs = merge_aggregates(a, merge_aggregates(b, c))
        assert lhs == rhs

    def test_unique_tags_union_vs_sum(self):
        a = TractAggregate("T1", {"all": CohortTractStats(tag_count=2, unique_tags={"a", "b"})})
        b = TractAggregate("T1", {"all": CohortTractStats(tag_count=2, unique_tags={"b", "c"})})
        m = merge_aggregates(a, b).cohorts["all"]
        assert m.unique_tags == {"a", "b", "c"}
        assert m.tag_count == 4

    def test_tract_mismatch(self):
        with pytest.raises(TractIdMismatch):
            merge_aggregates(TractAggregate("T1"), TractAggregate("T2"))


_TRACT_IDS = ("T1", "T2", "T3")
_COHORTS = [VISITOR, LOCAL, SUPER]
_BASE = datetime(2013, 1, 1, tzinfo=UTC)
_TZ = "America/New_York"
_ROWS = st.lists(
    st.tuples(
        st.integers(0, 2),  # tract
        st.integers(0, 3 * 365 * 86400),  # seconds after 2013-01-01
        st.sampled_from(
            [
                "", "#a", "#A #b", "x #c1 #c1", "no tags, here",
                # casefolding and interning: one tag spelled two ways, tags
                # run together, bare and doubled '#', dotted capital I
                "#Straße #STRASSE", "#café#2021", "##x #_ #", "#İzmir",
            ]
        ),
        st.sampled_from([0, 1, 2]),  # cohort: visitor / local / super
    ),
    max_size=60,
)


def _aggregate_rows(rows):
    """aggregate_batch over (tract, seconds after _BASE, text, cohort) rows."""
    epochs = np.array([(_BASE + timedelta(seconds=secs)).timestamp() for _, secs, _, _ in rows])
    idx = np.array([tract for tract, _, _, _ in rows], dtype=np.int64)
    masks = np.array([cohort_mask(_COHORTS[who]) for _, _, _, who in rows], dtype=np.uint8)
    clock = LocalClock(_TZ, float(epochs.min()), float(epochs.max())) if rows else None
    return aggregate_batch(_TRACT_IDS, idx, epochs, [text for _, _, text, _ in rows], masks, clock)


class TestBatchEquivalence:
    """The vectorized path must reproduce the per-event reference op."""

    @given(_ROWS)
    def test_matches_reference(self, rows):
        assigned = [
            (ev(_BASE + timedelta(seconds=secs), text), _TRACT_IDS[tract], _COHORTS[who])
            for tract, secs, text, who in rows
        ]
        assert _aggregate_rows(rows).aggregates == aggregate_by_tract(assigned, _TZ)

    @given(_ROWS, st.integers(0, 60))
    @example(  # the halves number the same tags differently
        [(0, 0, "#b #a", 1), (1, 9, "#c", 0), (0, 99, "#A", 2), (1, 7, "#C #B", 1)], 2
    )
    def test_halves_merge_to_whole(self, rows, cut):
        whole = _aggregate_rows(rows)
        a = _aggregate_rows(rows[:cut])
        b = _aggregate_rows(rows[cut:])
        assert merge_aggregate_maps(a.aggregates, b.aggregates) == whole.aggregates
        assert merge_tag_components(a.tag_components, b.tag_components) == whole.tag_components
        totals = {k: a.event_totals.get(k, 0) + b.event_totals.get(k, 0)
                  for k in a.event_totals | b.event_totals}
        assert totals == whole.event_totals


def test_cohort_buckets_mapping():
    assert cohort_buckets(VISITOR) == ("all", "visitor")
    assert cohort_buckets(LOCAL) == ("all", "local")
    assert cohort_buckets(SUPER) == ("all", "local", "super_local")
