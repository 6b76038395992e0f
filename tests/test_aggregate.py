from dataclasses import asdict
from datetime import datetime, timedelta, timezone
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from geoineq import oracles
from geoineq.aggregate import (
    CohortTractStats,
    TractAggregate,
    aggregate_batch,
    cohort_mask,
    merge_aggregate_maps,
    merge_aggregates,
    merge_tag_components,
    normalize_density,
    tag_summary_from_components,
)
from geoineq.cohort import Cohort
from geoineq.errors import (
    DegenerateArea,
    MissingArea,
    TractIdMismatch,
)
from geoineq.timebins import LocalClock

UTC = timezone.utc
LOCAL = Cohort("local")
VISITOR = Cohort("visitor")
SUPER = Cohort("local", super_local=True)


def aggregate(rows, tz="UTC"):
    """aggregate_batch over (epoch, text, tract_id, cohort) rows, the
    input of oracles.aggregate_by_tract."""
    tract_ids = sorted({tid for _, _, tid, _ in rows})
    epochs = np.array([epoch for epoch, _, _, _ in rows], dtype=np.float64)
    idx = np.array([tract_ids.index(tid) for _, _, tid, _ in rows], dtype=np.int64)
    masks = np.array([cohort_mask(c) for _, _, _, c in rows], dtype=np.uint8)
    clock = LocalClock(tz, float(epochs.min()), float(epochs.max())) if rows else None
    return aggregate_batch(tract_ids, idx, epochs, [text for _, text, _, _ in rows], masks, clock)


def row(ts, text="", tract_id="T1", cohort=LOCAL):
    return ts.timestamp(), text, tract_id, cohort


class TestAggregateByTract:
    def test_tag_counts(self):
        base = datetime(2014, 3, 15, 12, 0, tzinfo=UTC)
        rows = [row(base, "#a #b"), row(base + timedelta(hours=1), "#a")]
        st_ = aggregate(rows).aggregates["T1"].cohorts["local"]
        assert st_.event_count == 2
        assert st_.tag_count == 3
        assert st_.unique_tags == {"a", "b"}

    def test_sunday_first_dow_and_hour_bins(self):
        # 1970-01-04 was a Sunday
        rows = [row(datetime(1970, 1, 4, 10, 0, tzinfo=UTC), cohort=VISITOR)]
        st_ = aggregate(rows).aggregates["T1"].cohorts["visitor"]
        assert st_.dow_histogram[0] == 1 and sum(st_.dow_histogram) == 1
        assert st_.hour_histogram[10] == 1 and sum(st_.hour_histogram) == 1
        assert st_.month_histogram == {(1970, 1): 1}

    def test_empty_input(self):
        agg = aggregate([])
        assert (agg.aggregates, agg.tag_components, agg.event_totals) == ({}, {}, {})

    def test_super_local_counts_in_both_buckets(self):
        rows = [row(datetime(2014, 3, 15, 12, 0, tzinfo=UTC), cohort=SUPER)]
        agg = aggregate(rows).aggregates["T1"]
        assert agg.cohorts["local"].event_count == 1
        assert agg.cohorts["super_local"].event_count == 1
        assert agg.cohorts["all"].event_count == 1
        assert "visitor" not in agg.cohorts

    def test_binning_uses_display_timezone(self):
        # 02:30 UTC on Mar 16 is 22:30 on Mar 15 in New York
        rows = [row(datetime(2014, 3, 16, 2, 30, tzinfo=UTC))]
        st_ = aggregate(rows, "America/New_York").aggregates["T1"].cohorts["local"]
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
        for tz in ("UTC", "America/New_York"):
            ts = datetime(2014, 3, 15, *hms, tzinfo=ZoneInfo(tz))
            st_ = aggregate([row(ts)], tz).aggregates["T1"].cohorts["local"]
            assert (st_.day_count, st_.night_count) == ((1, 0) if expect == "day" else (0, 1))

    def test_invariant_day_plus_night(self):
        base = datetime(2014, 3, 15, 0, 0, tzinfo=UTC)
        rows = [row(base + timedelta(minutes=37 * i)) for i in range(40)]
        st_ = aggregate(rows).aggregates["T1"].cohorts["local"]
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


def tag_summary(tag_counts):
    """The summary of one event per count, each with that many tags."""
    base = datetime(2014, 3, 15, 12, 0, tzinfo=UTC)
    rows = [row(base, " ".join(f"#t{j}" for j in range(c))) for c in tag_counts]
    return tag_summary_from_components(*aggregate(rows).tag_components["all"])


class TestTagSummary:
    def test_hand_counts(self):
        ts = tag_summary([0, 0, 3, 7])
        assert ts.proportion_with_tags == 0.5
        assert ts.proportion_gt5 == 0.25
        assert ts.proportion_gt10 == 0.0
        assert ts.mean_tags_per_image == 2.5
        assert ts.mean_tags_per_tagged_image == 5.0

    def test_gt5_means_six_or_more(self):
        ts = tag_summary([5, 6, 10, 11])
        assert ts.images_gt5_tags == 3
        assert ts.images_gt10_tags == 1

    def test_all_untagged(self):
        ts = tag_summary([0, 0])
        assert ts.mean_tags_per_tagged_image is None
        assert ts.mean_tags_per_image == 0.0

    def test_from_events(self):
        base = datetime(2014, 3, 15, 12, 0, tzinfo=UTC)
        rows = [row(base, "#a #b #A"), row(base, ""), row(base, "#c", cohort=VISITOR)]
        agg = aggregate(rows)
        ts = tag_summary_from_components(*agg.tag_components["local"])
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


_BASE = int(datetime(2013, 1, 1, tzinfo=UTC).timestamp())
_TZ = "America/New_York"
_ROWS = st.lists(
    st.tuples(
        st.integers(_BASE, _BASE + 3 * 365 * 86400),  # epoch, 2013 to 2015
        st.sampled_from(
            [
                "", "#a", "#A #b", "x #c1 #c1", "no tags, here",
                # casefolding and interning: one tag spelled two ways, tags
                # run together, bare and doubled '#', dotted capital I
                "#Straße #STRASSE", "#café#2021", "##x #_ #", "#İzmir",
            ]
        ),
        st.sampled_from(["T1", "T2", "T3"]),
        st.sampled_from([VISITOR, LOCAL, SUPER]),
    ),
    max_size=60,
)


class TestBatchEquivalence:
    """The vectorized path must reproduce the per-event reference op."""

    @given(_ROWS)
    def test_matches_reference(self, rows):
        got = {tid: asdict(agg)["cohorts"] for tid, agg in aggregate(rows, _TZ).aggregates.items()}
        assert got == oracles.aggregate_by_tract(rows, _TZ)

    @given(_ROWS, st.integers(0, 60))
    @example(  # the halves number the same tags differently
        [
            (_BASE, "#b #a", "T1", LOCAL),
            (_BASE + 9, "#c", "T2", VISITOR),
            (_BASE + 99, "#A", "T1", SUPER),
            (_BASE + 7, "#C #B", "T2", LOCAL),
        ],
        2,
    )
    def test_halves_merge_to_whole(self, rows, cut):
        whole = aggregate(rows, _TZ)
        a = aggregate(rows[:cut], _TZ)
        b = aggregate(rows[cut:], _TZ)
        assert merge_aggregate_maps(a.aggregates, b.aggregates) == whole.aggregates
        assert merge_tag_components(a.tag_components, b.tag_components) == whole.tag_components
        totals = {k: a.event_totals.get(k, 0) + b.event_totals.get(k, 0)
                  for k in a.event_totals | b.event_totals}
        assert totals == whole.event_totals


def test_cohort_buckets_mapping():
    ts = datetime(2014, 3, 15, 12, 0, tzinfo=UTC)
    for cohort, buckets in [
        (VISITOR, {"all", "visitor"}),
        (LOCAL, {"all", "local"}),
        (SUPER, {"all", "local", "super_local"}),
    ]:
        agg = aggregate([row(ts, "#a", cohort=cohort)])
        assert set(agg.aggregates["T1"].cohorts) == buckets
        assert set(agg.event_totals) == set(agg.tag_components) == buckets
