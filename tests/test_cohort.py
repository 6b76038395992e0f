from datetime import datetime, timedelta, timezone
from zoneinfo import ZoneInfo

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from conftest import cohort_labels, local_fields, user_codes
from geoineq import oracles
from geoineq.cohort import MASK_VISITOR, classify_partials, distinct, user_partials
from geoineq.timebins import month_tuple

UTC = timezone.utc
T0 = datetime(2014, 3, 1, 12, 0, 0, tzinfo=UTC)


def month_num(year, month):
    return (year - 1970) * 12 + month - 1


def partials(posts, tz="UTC"):
    """user_partials over (user_id, datetime) posts."""
    epochs = np.array([ts.timestamp() for _, ts in posts], dtype=np.float64)
    users, codes = user_codes([uid for uid, _ in posts])
    return user_partials(users, codes, epochs, local_fields(epochs, tz)[2])[0]


def activity_of(parts, user_id):
    """(first epoch, last epoch, ascending months) of one user."""
    c = parts.user_ids.index(user_id)
    months = parts.month_num[parts.month_user == c].tolist()
    return float(parts.first[c]), float(parts.last[c]), tuple(months)


def activity(timestamps, user_id="u"):
    return activity_of(partials([(user_id, t) for t in timestamps]), user_id)


def classified(parts, window_days=12):
    """({user_id: (kind, super_local)}, dataset months) of the partials."""
    cohorts = classify_partials(parts, window_days)
    return cohort_labels(cohorts.user_ids, cohorts.masks), [month_tuple(m) for m in cohorts.months]


def label(timestamps, window_days=12):
    return classified([partials([("u", t) for t in timestamps])], window_days)[0]["u"]


class TestClassify:
    def test_two_posts_20_days_apart_is_local(self):
        assert label([T0, T0 + timedelta(days=20)])[0] == "local"

    def test_posts_within_single_window_is_visitor(self):
        assert label([T0 + timedelta(days=d) for d in (3, 5, 9)]) == ("visitor", False)

    def test_single_post_is_visitor(self):
        assert label([T0]) == ("visitor", False)

    def test_exactly_window_apart_is_visitor(self):
        assert label([T0, T0 + timedelta(seconds=12 * 86400)]) == ("visitor", False)

    def test_one_second_beyond_window_is_local(self):
        assert label([T0, T0 + timedelta(seconds=12 * 86400 + 1)])[0] == "local"

    def test_window_configurable(self):
        posts = [T0, T0 + timedelta(days=5)]
        assert label(posts, window_days=4)[0] == "local"
        assert label(posts, window_days=12) == ("visitor", False)

    def test_super_local_requires_local(self):
        # "v" posts in both dataset months, but within one window
        posts = [
            ("w", datetime(2014, 3, 2, tzinfo=UTC)),
            ("w", datetime(2014, 4, 28, tzinfo=UTC)),
            ("v", datetime(2014, 3, 30, tzinfo=UTC)),
            ("v", datetime(2014, 4, 2, tzinfo=UTC)),
        ]
        cohorts = classify_partials([partials(posts)], 12)
        assert cohorts.months == range(month_num(2014, 3), month_num(2014, 5))
        assert cohorts.masks[cohorts.user_ids.index("v")] == MASK_VISITOR


class TestActivity:
    def test_span_count_months(self):
        posts = [
            datetime(2014, 3, 1, tzinfo=UTC),
            datetime(2014, 3, 5, tzinfo=UTC),
            datetime(2014, 7, 2, tzinfo=UTC),
        ]
        assert activity(posts) == (
            datetime(2014, 3, 1, tzinfo=UTC).timestamp(),
            datetime(2014, 7, 2, tzinfo=UTC).timestamp(),
            (month_num(2014, 3), month_num(2014, 7)),
        )
        # posts in two of the dataset's five months, first to last 123 days
        assert label(posts) == ("local", False)

    def test_single_post_degenerate_span(self):
        first, last, _ = activity([T0])
        assert first == last
        # a span of 0 s fits in the shortest window
        assert label([T0], window_days=1) == ("visitor", False)

    def test_empty_input(self):
        parts, codes = user_partials([], np.empty(0, np.int32), np.empty(0), np.empty(0, np.int64))
        assert (parts.user_ids, parts.first.tolist(), codes.tolist()) == ([], [], [])
        assert parts.month_user.tolist() == parts.month_num.tolist() == []
        for split in ([], [parts]):
            cohorts = classify_partials(split, 12)
            assert (cohorts.user_ids, cohorts.masks.tolist(), len(cohorts.months)) == ([], [], 0)

    def test_partials_hold_only_users_with_events(self):
        # parse coded "a" to "d"; the tract filter left events of c and a
        epochs = np.array([10.0, 20.0, 30.0])
        months = np.array([5, 5, 6])
        parts, codes = user_partials(["a", "b", "c", "d"], np.array([2, 0, 2], np.int32),
                                     epochs, months)
        assert (parts.user_ids, codes.tolist()) == (["a", "c"], [1, 0, 1])
        assert (parts.first.tolist(), parts.last.tolist()) == ([20.0, 10.0], [20.0, 30.0])
        # c's two posts are 20 s apart, inside the shortest window
        assert classified([parts], 1)[0] == {"a": ("visitor", False), "c": ("visitor", False)}
        assert (parts.month_user.tolist(), parts.month_num.tolist()) == ([0, 1, 1], [5, 5, 6])

    def test_months_use_display_timezone(self):
        # 2014-04-01T01:00Z is still March 31 in New York
        parts = partials([("u", datetime(2014, 4, 1, 1, 0, tzinfo=UTC))], "America/New_York")
        assert activity_of(parts, "u")[2] == (month_num(2014, 3),)
        months = classify_partials([parts], 12).months
        assert months == range(month_num(2014, 3), month_num(2014, 4))

    def test_merge_is_commutative_and_matches_single_pass(self):
        # each half alone spans less than the 5-day window, the whole more
        posts = [("u", T0 + timedelta(days=d, hours=d % 5)) for d in range(10)]
        a = partials(posts[:4])
        b = partials(posts[4:])
        want = classified([partials(posts)], 5)
        assert want[0] == {"u": ("local", True)}
        assert classified([a, b], 5) == want
        assert classified([b, a], 5) == want


class TestSuperLocal:
    # a second user's posts in March and July make the dataset months 3..7
    FRAME = [("w", datetime(2014, 3, 2, tzinfo=UTC)), ("w", datetime(2014, 7, 30, tzinfo=UTC))]

    def _label(self, months):
        posts = self.FRAME + [("u", datetime(2014, m, 15, tzinfo=UTC)) for m in months]
        labels, dataset = classified([partials(posts)])
        assert dataset == [(2014, m) for m in range(3, 8)]
        return labels["u"]

    def test_all_months_present(self):
        assert self._label([3, 4, 5, 6, 7]) == ("local", True)

    def test_missing_month(self):
        assert self._label([3, 4, 5, 7]) == ("local", False)


@given(
    st.lists(st.integers(0, 40 * 86400), min_size=1, max_size=20),
    st.integers(0, 40 * 86400),
)
def test_adding_a_post_never_demotes_local(seconds, extra):
    base = [T0 + timedelta(seconds=s) for s in seconds]
    before = label(base)
    after = label(base + [T0 + timedelta(seconds=extra)])
    if before[0] == "local":
        assert after[0] == "local"


@given(
    st.lists(st.integers(0, 60 * 86400), min_size=1, max_size=24),
    st.integers(1, 5),
    st.randoms(use_true_random=False),
)
def test_partitioned_activity_merge_equals_single_pass(seconds, k, rnd):
    """Classify over any split and order of partials equals classify
    over the whole, and each partial's codes name its own users."""
    posts = [(f"u{i % 3}", T0 + timedelta(seconds=s)) for i, s in enumerate(seconds)]
    size = max(1, len(posts) // k)
    parts = [partials(posts[i : i + size]) for i in range(0, len(posts), size)]
    rnd.shuffle(parts)
    assert classified(parts) == classified([partials(posts)])
    cohorts = classify_partials(parts, 12)
    for part, codes in zip(parts, cohorts.partial_codes, strict=True):
        assert [cohorts.user_ids[c] for c in codes.tolist()] == part.user_ids


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
    """The columnar path (partials, classify) labels every user like the
    per-event reference, however the posts are split."""
    want = oracles.classify_users_direct(posts, tz, window_days)

    def columnar(part):
        epochs = np.array([e for _, e in part], dtype=np.float64)
        users, codes = user_codes([u for u, _ in part])
        return user_partials(users, codes, epochs, local_fields(epochs, tz)[2])[0]

    bounds = [0, *sorted(min(c, len(posts)) for c in cuts), len(posts)]
    split = [columnar(posts[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    for parts in ([columnar(posts)], split):
        assert classified(parts, window_days) == want


@given(st.lists(st.integers(-(2**62), 2**62), max_size=50))
def test_distinct_matches_sorted_set(values):
    assert distinct(np.array(values, dtype=np.int64)).tolist() == sorted(set(values))
