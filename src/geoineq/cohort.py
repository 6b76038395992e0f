"""Visitor/local cohort classification from per-user posting spans.

A user is a local when they posted at least twice and their first and
last posts are strictly more than ``window_days`` (in seconds) apart;
everyone else is a visitor, including single-post users, whose posts
trivially fit inside any window. Super-locals are locals who posted in
every calendar month of the collection span.

A user's cohort is one ``uint8`` mask of the ``MASK_*`` bits; "all" is
implicit. This module is the only one that decides those bits.
Classification is global while events are partitioned, so it runs in two
steps over arrays: :func:`user_partials` summarises one partition's
events per distinct user from the user codes parse gave them, and
:func:`classify_partials` codes each user once over every partition's
summaries (``ingest.recode``) and reduces them to one mask per user.
It also fixes the dataset's month axis, the one every partition's
aggregate cube counts on. ``oracles.classify_users_direct`` is the
per-event reference.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .ingest import recode

MASK_VISITOR = 1
MASK_LOCAL = 2
MASK_SUPER = 4
# the report's cohort names and their bits; "all" has none
COHORT_MASKS = {"visitor": MASK_VISITOR, "local": MASK_LOCAL, "super_local": MASK_SUPER}
_SLICE = 1 << 15  # (user, month) pairs keyed per step


class UserPartials(NamedTuple):
    """One partition's activity per distinct user: ``user_ids`` in order
    of first appearance, the aligned first and last epoch, and the
    distinct (index into ``user_ids``, month number) pairs of their
    posts, month numbers counted in the display timezone."""

    user_ids: list[str]
    first: np.ndarray
    last: np.ndarray
    month_user: np.ndarray
    month_num: np.ndarray


class Cohorts(NamedTuple):
    """Every user's cohort mask, aligned with ``user_ids``, the dataset
    months as a range of month numbers (as ``LocalClock.local_fields``
    counts them), and for each classified partial the global code (index
    into ``user_ids``) of each of its users."""

    user_ids: list[str]
    masks: np.ndarray
    months: range
    partial_codes: list[np.ndarray]


def distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-d array, ascending. It sorts ``values``
    in place. Unlike a plain ``np.unique``, it never imports ``numpy.ma``
    (15-17 ms on first use in a process)."""
    values.sort()
    return values[np.concatenate(([True], values[1:] != values[:-1]))] if len(values) else values


def distinct_union(chunks: Iterable[np.ndarray]) -> np.ndarray:
    """The distinct values of all ``chunks``, ascending. Each chunk's wait
    beside the union until they outnumber it, so few are held at once."""
    union, pending = np.empty(0, dtype=np.int64), []
    for chunk in chunks:
        pending.append(distinct(chunk))
        if sum(map(len, pending)) > len(union):
            union, pending = distinct(np.concatenate((union, *pending))), []
    return distinct(np.concatenate((union, *pending)))


def _distinct_pairs(codes: np.ndarray, months: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (code, month) pairs, ordered by code, then month, as
    int32 for the parent (both fit), keyed ``_SLICE`` pairs at a time."""
    lo, hi = (int(months.min()), int(months.max())) if len(months) else (0, 0)
    span = hi - lo + 1
    keys = (codes[a:a + _SLICE].astype(np.int64) * span + (months[a:a + _SLICE] - lo)
            for a in range(0, len(codes), _SLICE))
    user, month = np.divmod(distinct_union(keys), span)
    return user.astype(np.int32), (month + lo).astype(np.int32)


def _span(codes: np.ndarray, n: int, first: np.ndarray, last: np.ndarray):
    """Per code, the smallest of its ``first`` and the largest of its ``last``."""
    lo = np.full(n, np.inf)
    hi = np.full(n, -np.inf)
    np.minimum.at(lo, codes, first)
    np.maximum.at(hi, codes, last)
    return lo, hi


def user_partials(
    users: Sequence[str], user_codes: np.ndarray, epochs: np.ndarray, month_nums: np.ndarray
) -> tuple[UserPartials, np.ndarray]:
    """Per-user activity of one partition's events, given each event's
    index into ``users`` and its local month number, and each event's
    index into the partials' ``user_ids``.

    The partials hold only users with an event here: ``users`` may name
    more (parse codes every accepted record, the tract filter comes
    later), and the codes are compacted to the ones in use, in order.
    """
    present = np.bincount(user_codes, minlength=len(users)) > 0
    codes = (np.cumsum(present, dtype=np.int32) - 1)[user_codes]
    uids = list(compress(users, present.tolist()))
    first, last = _span(codes, len(uids), epochs, epochs)
    pairs = _distinct_pairs(codes, month_nums)
    return UserPartials(uids, first, last, *pairs), codes


def classify_partials(partials: Sequence[UserPartials], window_days: int) -> Cohorts:
    """Cohort masks of every user in the partials of all partitions.

    The result does not depend on how the events were split into
    partials. The dataset months are the contiguous range between the
    earliest and latest observed month.
    """
    uids, partial_codes = recode([p.user_ids for p in partials])
    n_users = len(uids)
    if n_users == 0:
        return Cohorts([], np.empty(0, np.uint8), range(0), partial_codes)
    first, last = _span(
        np.concatenate(partial_codes),
        n_users,
        np.concatenate([p.first for p in partials]),
        np.concatenate([p.last for p in partials]),
    )
    month_user, month_num = _distinct_pairs(
        np.concatenate([c[p.month_user] for c, p in zip(partial_codes, partials)]),
        np.concatenate([p.month_num for p in partials]),
    )
    lo, hi = int(month_num.min()), int(month_num.max())
    # the comparison is strict so that exactly window_days apart is still a
    # visitor; the span is in seconds, not calendar days. One post spans 0 s,
    # so a span over the window (window_days >= 1) implies two posts
    local = last - first > window_days * 86400.0
    # a user's months lie within the dataset range, so posting in all of
    # them means as many distinct months as the range has
    every_month = np.bincount(month_user, minlength=n_users) == hi - lo + 1
    masks = np.where(local, MASK_LOCAL, MASK_VISITOR).astype(np.uint8)
    masks[local & every_month] |= MASK_SUPER
    return Cohorts(uids, masks, range(lo, hi + 1), partial_codes)
