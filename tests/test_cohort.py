from datetime import datetime, timedelta, timezone
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geoineq import oracles
from geoineq.cohort import Cohort, classify_partials, merge_partials, user_partials

UTC = timezone.utc
T0 = datetime(2014, 3, 1, 12, 0, 0, tzinfo=UTC)


def month_num(year, month):
    return (year - 1970) * 12 + month - 1


def partials(posts, tz="UTC"):
    """user_partials over (user_id, datetime) posts."""
    epochs = np.array([ts.timestamp() for _, ts in posts], dtype=np.float64)
    return user_partials([uid for uid, _ in posts], epochs, tz)[2]


def activity(timestamps, user_id="u"):
    return partials([(user_id, t) for t in timestamps])[user_id]


def label(timestamps, window_days=12):
    labels, _ = classify_partials({"u": activity(timestamps)}, window_days)
    return labels["u"]


class TestClassify:
    def test_two_posts_20_days_apart_is_local(self):
        assert label([T0, T0 + timedelta(days=20)]).kind == "local"

    def test_posts_within_single_window_is_visitor(self):
        assert label([T0 + timedelta(days=d) for d in (3, 5, 9)]) == Cohort("visitor")

    def test_single_post_is_visitor(self):
        assert label([T0]) == Cohort("visitor")

    def test_exactly_window_apart_is_visitor(self):
        assert label([T0, T0 + timedelta(seconds=12 * 86400)]) == Cohort("visitor")

    def test_one_second_beyond_window_is_local(self):
        assert label([T0, T0 + timedelta(seconds=12 * 86400 + 1)]).kind == "local"

    def test_window_configurable(self):
        posts = [T0, T0 + timedelta(days=5)]
        assert label(posts, window_days=4).kind == "local"
        assert label(posts, window_days=12) == Cohort("visitor")

    def test_super_local_requires_local(self):
        with pytest.raises(ValueError):
            Cohort("visitor", super_local=True)


class TestActivity:
    def test_span_count_months(self):
        act = activity(
            [
                datetime(2014, 3, 1, tzinfo=UTC),
                datetime(2014, 3, 5, tzinfo=UTC),
                datetime(2014, 7, 2, tzinfo=UTC),
            ]
        )
        assert act == (
            datetime(2014, 3, 1, tzinfo=UTC).timestamp(),
            datetime(2014, 7, 2, tzinfo=UTC).timestamp(),
            3,
            (month_num(2014, 3), month_num(2014, 7)),
        )

    def test_single_post_degenerate_span(self):
        first, last, count, _ = activity([T0])
        assert first == last
        assert count == 1

    def test_empty_input(self):
        uids, codes, parts = user_partials([], np.empty(0), "UTC")
        assert (uids, codes.tolist(), parts) == ([], [], {})
        assert classify_partials({}, 12) == ({}, [])

    def test_months_use_display_timezone(self):
        # 2014-04-01T01:00Z is still March 31 in New York
        act = partials([("u", datetime(2014, 4, 1, 1, 0, tzinfo=UTC))], "America/New_York")["u"]
        assert act[3] == (month_num(2014, 3),)
        assert classify_partials({"u": act}, 12)[1] == [(2014, 3)]

    def test_merge_is_commutative_and_matches_single_pass(self):
        posts = [("u", T0 + timedelta(days=d, hours=d % 5)) for d in range(10)]
        whole = partials(posts)
        a = partials(posts[:4])
        b = partials(posts[4:])
        assert merge_partials(a, b) == whole
        assert merge_partials(b, a) == whole


class TestSuperLocal:
    # a second user's posts in March and July make the dataset months 3..7
    FRAME = [("w", datetime(2014, 3, 2, tzinfo=UTC)), ("w", datetime(2014, 7, 30, tzinfo=UTC))]

    def _label(self, months):
        posts = self.FRAME + [("u", datetime(2014, m, 15, tzinfo=UTC)) for m in months]
        labels, dataset = classify_partials(partials(posts), 12)
        assert dataset == [(2014, m) for m in range(3, 8)]
        return labels["u"]

    def test_all_months_present(self):
        assert self._label([3, 4, 5, 6, 7]) == Cohort("local", super_local=True)

    def test_missing_month(self):
        assert self._label([3, 4, 5, 7]) == Cohort("local")


@given(
    st.lists(st.integers(0, 40 * 86400), min_size=1, max_size=20),
    st.integers(0, 40 * 86400),
)
def test_adding_a_post_never_demotes_local(seconds, extra):
    base = [T0 + timedelta(seconds=s) for s in seconds]
    before = label(base)
    after = label(base + [T0 + timedelta(seconds=extra)])
    if before.kind == "local":
        assert after.kind == "local"


@given(st.lists(st.integers(0, 60 * 86400), min_size=1, max_size=24), st.integers(1, 5))
def test_partitioned_activity_merge_equals_single_pass(seconds, k):
    posts = [(f"u{i % 3}", T0 + timedelta(seconds=s)) for i, s in enumerate(seconds)]
    whole = partials(posts)
    merged: dict = {}
    size = max(1, len(posts) // k)
    for i in range(0, len(posts), size):
        merged = merge_partials(merged, partials(posts[i : i + size]))
    assert merged == whole


_ZONES = ["UTC", "America/New_York", "Asia/Kolkata", "Australia/Lord_Howe"]
# the last and the first second of each month in every zone
_MONTH_EDGES = [
    int(datetime(2014, m, 1, tzinfo=ZoneInfo(tz)).timestamp()) + d
    for m in (1, 2, 3, 4) for tz in _ZONES for d in (-1, 0)
]
_POSTS = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "d"]),
        st.one_of(
            # 2013-12-01 and on for five months, across New York's DST change
            st.integers(1385856000, 1385856000 + 150 * 86400),
            st.sampled_from(_MONTH_EDGES),
        ),
    ),
    max_size=40,
)


@given(
    _POSTS,
    st.lists(st.integers(0, 40), max_size=4),  # split points
    st.sampled_from(_ZONES),
    st.integers(1, 40),  # window_days
)
def test_labels_match_oracle_whole_and_merged(posts, cuts, tz, window_days):
    """The columnar path (partials, merge, classify) labels every user
    like the per-event reference, however the posts are split."""
    want_labels, want_months = oracles.classify_users_direct(posts, tz, window_days)

    def columnar(part):
        epochs = np.array([e for _, e in part], dtype=np.float64)
        return user_partials([u for u, _ in part], epochs, tz)[2]

    bounds = [0, *sorted(min(c, len(posts)) for c in cuts), len(posts)]
    merged: dict = {}
    for lo, hi in zip(bounds, bounds[1:]):
        merged = merge_partials(merged, columnar(posts[lo:hi]))
    for parts in (columnar(posts), merged):
        labels, months = classify_partials(parts, window_days)
        assert {u: (c.kind, c.super_local) for u, c in labels.items()} == want_labels
        assert months == want_months
