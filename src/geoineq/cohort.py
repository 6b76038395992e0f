"""Visitor/local cohort classification from per-user posting spans.

A user is a local when they posted at least twice and their first and
last posts are strictly more than ``window_days`` (in seconds) apart;
everyone else is a visitor, including single-post users, whose posts
trivially fit inside any window. Super-locals are locals who posted in
every calendar month of the collection span.

Classification is global while events are partitioned, so it runs in
three steps: :func:`user_partials` summarises each partition's events
per user, :func:`merge_partials` folds the partitions' summaries (in any
order), and :func:`classify_partials` labels every user from the merged
summaries. ``oracles.classify_users_direct`` is the per-event reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .timebins import LocalClock, month_tuple

VISITOR = "visitor"
LOCAL = "local"

# month numbers are shifted non-negative to pack (user, month) pairs
_MONTH_SHIFT = 500_000


@dataclass(frozen=True)
class Cohort:
    kind: str  # "visitor" | "local"
    super_local: bool = False

    def __post_init__(self):
        if self.kind not in (VISITOR, LOCAL):
            raise ValueError(f"unknown cohort kind {self.kind!r}")
        if self.super_local and self.kind != LOCAL:
            raise ValueError("super_local implies local")


def spans_more_than_window(post_count: int, span_seconds: float, window_days: int) -> bool:
    """The local rule: >= 2 posts strictly more than window_days apart.

    The span is measured in seconds, not calendar days, and the
    comparison is strict so that visitor/local is an exact partition:
    exactly window_days apart is still a visitor.
    """
    return post_count >= 2 and span_seconds > window_days * 86400.0


def user_partials(
    user_ids: Sequence[str], epochs: np.ndarray, tz: str
) -> tuple[list[str], np.ndarray, dict]:
    """Per-user activity of one partition's events.

    Returns the distinct user ids in order of first appearance, each
    event's index into them, and the partials: user id -> (first epoch,
    last epoch, post count, ascending month numbers in the display
    timezone ``tz``). Partials of different partitions merge with
    :func:`merge_partials`.
    """
    n = len(user_ids)
    if n == 0:
        return [], np.empty(0, np.int64), {}
    clock = LocalClock(tz, float(epochs.min()), float(epochs.max()))
    _, _, month_nums = clock.local_fields(epochs)
    uids = list(dict.fromkeys(user_ids))
    code_of = dict(zip(uids, range(len(uids))))
    codes = np.fromiter(map(code_of.__getitem__, user_ids), dtype=np.int64, count=n)
    n_users = len(uids)
    counts = np.bincount(codes, minlength=n_users)
    order = np.argsort(codes, kind="stable")
    starts = np.searchsorted(codes[order], np.arange(n_users), side="left")
    ep_sorted = epochs[order]
    firsts = np.minimum.reduceat(ep_sorted, starts)
    lasts = np.maximum.reduceat(ep_sorted, starts)
    pairs = np.unique(codes * 1_000_000 + (month_nums + _MONTH_SHIFT))
    months_per_user: list[list[int]] = [[] for _ in range(n_users)]
    for p in pairs:
        c, m = divmod(int(p), 1_000_000)
        months_per_user[c].append(m - _MONTH_SHIFT)
    partials = {
        uids[c]: (float(firsts[c]), float(lasts[c]), int(counts[c]), tuple(months_per_user[c]))
        for c in range(n_users)
    }
    return uids, codes, partials


def merge_partials(a: dict, b: dict) -> dict:
    """(min first, max last, summed counts, union of months) per user;
    associative and commutative, so any partitioning merges alike."""
    out = dict(a)
    for uid, (mn, mx, cnt, months) in b.items():
        cur = out.get(uid)
        if cur is None:
            out[uid] = (mn, mx, cnt, months)
        else:
            out[uid] = (
                min(cur[0], mn),
                max(cur[1], mx),
                cur[2] + cnt,
                tuple(sorted(set(cur[3]) | set(months))),
            )
    return out


def classify_partials(
    partials: dict, window_days: int
) -> tuple[dict[str, Cohort], list[tuple[int, int]]]:
    """Cohort per user from merged partials, and the dataset months as
    (year, month): the contiguous range between the earliest and latest
    observed month."""
    labels: dict[str, Cohort] = {}
    if not partials:
        return labels, []
    all_months = set()
    for _, _, _, months in partials.values():
        all_months.update(months)
    dataset_nums = list(range(min(all_months), max(all_months) + 1))
    dataset_set = set(dataset_nums)
    for uid, (mn, mx, cnt, months) in partials.items():
        if spans_more_than_window(cnt, mx - mn, window_days):
            labels[uid] = Cohort(LOCAL, super_local=dataset_set <= set(months))
        else:
            labels[uid] = Cohort(VISITOR)
    return labels, [month_tuple(m) for m in dataset_nums]
