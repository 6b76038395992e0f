from datetime import datetime, timedelta, timezone
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import MASK_LABELS, bucket_view, cube_view, interned_tags, local_fields, oracle_views
from geoineq import oracles
from geoineq.aggregate import (
    BUCKET_KEYS,
    aggregate_batch,
    merge_aggregate_maps,
    merge_tag_components,
    tag_summary_from_components,
)
from geoineq.errors import InternalInvariantError

UTC = timezone.utc
LOCAL = ("local", False)
VISITOR = ("visitor", False)
SUPER = ("local", True)
MASK_OF = {label: mask for mask, label in MASK_LABELS.items()}
TRACT_IDS = ("T1", "T2", "T3")
# the month numbers of 2012 to 2015, the months of every row below but
# one test's: a dataset's month axis, as classify_partials fixes it
MONTHS = range(12 * (2012 - 1970), 12 * (2016 - 1970))


def aggregate(rows, tz="UTC", months=MONTHS):
    """aggregate_batch over (epoch, text, tract_id, (kind, super_local))
    rows, the input of oracles.aggregate_by_tract, on the tracts TRACT_IDS."""
    epochs = np.array([epoch for epoch, _, _, _ in rows], dtype=np.float64)
    idx = np.array([TRACT_IDS.index(tid) for _, _, tid, _ in rows], dtype=np.int64)
    masks = np.array([MASK_OF[c] for _, _, _, c in rows], dtype=np.uint8)
    tags = interned_tags([text for _, text, _, _ in rows])
    return aggregate_batch(TRACT_IDS, idx, local_fields(epochs, tz), tags, masks, months)


def view(cube) -> dict:
    return cube_view(cube, TRACT_IDS)


def merge(*parts):
    """The cubes merged as the pipeline's parent merges them."""
    return merge_tag_components(merge_aggregate_maps(parts), parts)


def state(cube):
    """What a cube holds, with its tags decoded: the per-tract and
    per-bucket views, the shape of the month histograms and the
    tag-summary components."""
    return view(cube), bucket_view(cube, MONTHS), cube.months.shape, cube.tag_summary.tolist()


def row(ts, text="", tract_id="T1", cohort=LOCAL):
    return ts.timestamp(), text, tract_id, cohort


class TestAggregateByTract:
    def test_tag_counts(self):
        base = datetime(2014, 3, 15, 12, 0, tzinfo=UTC)
        rows = [row(base, "#a #b"), row(base + timedelta(hours=1), "#a")]
        st_ = view(aggregate(rows))["T1"]["local"]
        assert st_["event_count"] == 2
        assert st_["tag_count"] == 3
        assert st_["unique_tags"] == {"a", "b"}

    def test_sunday_first_dow_and_hour_bins(self):
        # 1970-01-04 was a Sunday, in month number 0
        rows = [row(datetime(1970, 1, 4, 10, 0, tzinfo=UTC), cohort=VISITOR)]
        cube = aggregate(rows, months=range(1))
        st_ = view(cube)["T1"]["visitor"]
        hists = bucket_view(cube, range(1))["visitor"]
        assert hists["dow_histogram"][0] == 1 and sum(hists["dow_histogram"]) == 1
        assert st_["hour_histogram"][10] == 1 and sum(st_["hour_histogram"]) == 1
        assert hists["month_histogram"] == {(1970, 1): 1}

    def test_empty_input(self):
        cube = aggregate([])
        assert view(cube) == {} and bucket_view(cube, MONTHS) == {}
        assert not cube.tag_summary.any() and cube.tag_keys.size == 0
        assert cube.dows.shape == (len(BUCKET_KEYS), 7)
        assert cube.months.shape == (len(BUCKET_KEYS), len(MONTHS))
        assert aggregate([], months=range(0)).months.shape == (len(BUCKET_KEYS), 0)

    @pytest.mark.parametrize("month", [(2011, 12), (2016, 1)])
    def test_month_off_the_axis_refused(self, month):
        rows = [row(datetime(*month, 15, 12, 0, tzinfo=UTC))]
        with pytest.raises(InternalInvariantError, match="off the month axis"):
            aggregate(rows)

    def test_super_local_counts_in_both_buckets(self):
        rows = [row(datetime(2014, 3, 15, 12, 0, tzinfo=UTC), cohort=SUPER)]
        agg = view(aggregate(rows))["T1"]
        assert agg["local"]["event_count"] == 1
        assert agg["super_local"]["event_count"] == 1
        assert agg["all"]["event_count"] == 1
        assert "visitor" not in agg

    def test_binning_uses_display_timezone(self):
        # 02:30 UTC on Mar 16 is 22:30 on Mar 15 in New York
        rows = [row(datetime(2014, 3, 16, 2, 30, tzinfo=UTC))]
        st_ = view(aggregate(rows, "America/New_York"))["T1"]["local"]
        assert st_["hour_histogram"][22] == 1
        assert st_["night_count"] == 1 and st_["day_count"] == 0


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
            st_ = view(aggregate([row(ts)], tz))["T1"]["local"]
            want = (1, 0) if expect == "day" else (0, 1)
            assert (st_["day_count"], st_["night_count"]) == want

    def test_invariant_day_plus_night(self):
        base = datetime(2014, 3, 15, 0, 0, tzinfo=UTC)
        rows = [row(base + timedelta(minutes=37 * i)) for i in range(40)]
        cube = aggregate(rows)
        st_ = view(cube)["T1"]["local"]
        hists = bucket_view(cube, MONTHS)["local"]
        assert st_["day_count"] + st_["night_count"] == st_["event_count"]
        assert sum(st_["hour_histogram"]) == st_["event_count"]
        assert sum(hists["dow_histogram"]) == st_["event_count"]
        assert sum(hists["month_histogram"].values()) == st_["event_count"]


def summary_of(cube, bucket):
    """The tag summary of one bucket, as the report assembles it."""
    b = BUCKET_KEYS.index(bucket)
    n, total = int(cube.events[b].sum()), int(cube.tags[b].sum())
    return tag_summary_from_components(n, total, *cube.tag_summary[b].tolist())


def tag_summary(tag_counts):
    """The summary of one event per count, each with that many tags."""
    base = datetime(2014, 3, 15, 12, 0, tzinfo=UTC)
    rows = [row(base, " ".join(f"#t{j}" for j in range(c))) for c in tag_counts]
    return summary_of(aggregate(rows), "all")


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
        cube = aggregate(rows)
        ts = summary_of(cube, "local")
        assert ts.image_count == 2
        assert ts.tag_total == 3
        assert ts.images_with_tags == 1


_TEXTS = ["", "#a", "#b #c", "#A #d", "x #e #e", "#f"]


def random_cube(rng):
    """The cube of a few random events in a random run of 2014's months."""
    first = int(rng.integers(1, 10))
    rows = [
        (
            datetime(2014, int(rng.integers(first, first + 3)), int(rng.integers(1, 29)),
                     int(rng.integers(0, 24)), tzinfo=UTC).timestamp(),
            _TEXTS[int(rng.integers(len(_TEXTS)))],
            TRACT_IDS[int(rng.integers(len(TRACT_IDS)))],
            (VISITOR, LOCAL, SUPER)[int(rng.integers(3))],
        )
        for _ in range(int(rng.integers(1, 12)))
    ]
    return aggregate(rows)


class TestMerge:
    def test_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = random_cube(rng)
            zero = aggregate([])
            assert state(merge(x, zero)) == state(x)
            assert state(merge(zero, x)) == state(x)

    def test_commutative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = random_cube(rng), random_cube(rng)
            assert state(merge(a, b)) == state(merge(b, a))

    def test_associative(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, b, c = (random_cube(rng) for _ in range(3))
            assert state(merge(merge(a, b), c)) == state(merge(a, merge(b, c)))
            assert state(merge(a, b, c)) == state(merge(merge(a, b), c))

    def test_unique_tags_union_vs_sum(self):
        ts = datetime(2014, 3, 15, 12, 0, tzinfo=UTC)
        a = aggregate([row(ts, "#a #b", cohort=VISITOR)])
        b = aggregate([row(ts, "#c #b", cohort=LOCAL)])
        m = view(merge(a, b))["T1"]["all"]
        assert m["unique_tags"] == {"a", "b", "c"}
        assert m["tag_count"] == 4


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
        cube = aggregate(rows, _TZ)
        got = view(cube), bucket_view(cube, MONTHS)
        assert got == oracle_views(oracles.aggregate_by_tract(rows, _TZ))

    @given(_ROWS, st.lists(st.integers(0, 60), max_size=3))
    @example(  # the halves number the same tags differently
        [
            (_BASE, "#b #a", "T1", LOCAL),
            (_BASE + 9, "#c", "T2", VISITOR),
            (_BASE + 99, "#A", "T1", SUPER),
            (_BASE + 7, "#C #B", "T2", LOCAL),
        ],
        [2],
    )
    @example(  # January and March: the halves' months are disjoint
        [
            (_BASE + 86400, "#b #a", "T1", LOCAL),
            (_BASE + 9 * 86400, "#c", "T3", VISITOR),
            (_BASE + 70 * 86400, "#A #c", "T1", SUPER),
            (_BASE + 71 * 86400, "#d #B", "T2", VISITOR),
        ],
        [2],
    )
    def test_parts_merge_to_whole(self, rows, cuts):
        """Rows cut into 1 to 4 parts, each aggregated alone, merge in one
        call to the whole batch's cube."""
        bounds = [0, *sorted(cuts), len(rows)]
        parts = [aggregate(rows[lo:hi], _TZ) for lo, hi in zip(bounds, bounds[1:])]
        assert state(merge(*parts)) == state(aggregate(rows, _TZ))


def test_cohort_buckets_mapping():
    ts = datetime(2014, 3, 15, 12, 0, tzinfo=UTC)
    for cohort, buckets in [
        (VISITOR, {"all", "visitor"}),
        (LOCAL, {"all", "local"}),
        (SUPER, {"all", "local", "super_local"}),
    ]:
        cube = aggregate([row(ts, "#a", cohort=cohort)])
        assert set(view(cube)["T1"]) == buckets
        assert {BUCKET_KEYS[b] for b in np.flatnonzero(cube.tag_summary[:, 0])} == buckets
