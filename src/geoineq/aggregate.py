"""Per-tract, per-cohort aggregation with an associative merge.

Aggregation is a fold: any partitioning of the event stream, aggregated
separately and merged, must equal the single-pass result. All counts are
integers and unique-tag sets are exact, so merge order cannot matter.

Each event arrives with its hashtags as ids into one casefolded
vocabulary, as parse interned them (``ingest.EventBatch``), and with its
user's cohort mask. ``cohort.COHORT_MASKS`` names the mask bits, which
this module reads and never decides. Cohort
bucket keys are "all", "visitor", "local", and "super_local"; events by
super-local users count in both "local" and "super_local".
Temporal bins use one configured display timezone: day-of-week is
Sunday-first, "day" is the local interval 07:00:00..18:59:59 inclusive
(whole seconds), everything else is "night".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .cohort import COHORT_MASKS, distinct
from .errors import DegenerateArea, MissingArea, TractIdMismatch
from .timebins import month_tuple

DAY_START_SECOND = 7 * 3600  # 07:00:00 local, inclusive
DAY_END_SECOND = 19 * 3600  # 19:00:00 local, exclusive

BUCKET_KEYS = ("all", "visitor", "local", "super_local")


@dataclass
class CohortTractStats:
    event_count: int = 0
    tag_count: int = 0
    unique_tags: set[str] = field(default_factory=set)
    hour_histogram: list[int] = field(default_factory=lambda: [0] * 24)
    dow_histogram: list[int] = field(default_factory=lambda: [0] * 7)  # Sunday-first
    month_histogram: dict[tuple[int, int], int] = field(default_factory=dict)
    day_count: int = 0
    night_count: int = 0


@dataclass
class TractAggregate:
    tract_id: str
    cohorts: dict[str, CohortTractStats] = field(default_factory=dict)

    def stats(self, key: str) -> CohortTractStats:
        st = self.cohorts.get(key)
        if st is None:
            st = self.cohorts[key] = CohortTractStats()
        return st


@dataclass(frozen=True)
class TagSummary:
    image_count: int
    tag_total: int
    images_with_tags: int
    images_gt5_tags: int  # strictly more than 5 tags, i.e. >= 6
    images_gt10_tags: int  # strictly more than 10 tags, i.e. >= 11
    mean_tags_per_image: float
    mean_tags_per_tagged_image: float | None  # None when nothing is tagged

    @property
    def proportion_with_tags(self) -> float:
        return self.images_with_tags / self.image_count

    @property
    def proportion_gt5(self) -> float:
        return self.images_gt5_tags / self.image_count

    @property
    def proportion_gt10(self) -> float:
        return self.images_gt10_tags / self.image_count


def merge_aggregates(a: TractAggregate, b: TractAggregate) -> TractAggregate:
    """Componentwise sum of counts/histograms, union of unique tags."""
    if a.tract_id != b.tract_id:
        raise TractIdMismatch(f"{a.tract_id!r} vs {b.tract_id!r}")
    out = TractAggregate(a.tract_id)
    for key in sorted(set(a.cohorts) | set(b.cohorts)):
        sa = a.cohorts.get(key)
        sb = b.cohorts.get(key)
        if sa is None or sb is None:
            src = sa if sa is not None else sb
            out.cohorts[key] = CohortTractStats(
                src.event_count,
                src.tag_count,
                set(src.unique_tags),
                list(src.hour_histogram),
                list(src.dow_histogram),
                dict(src.month_histogram),
                src.day_count,
                src.night_count,
            )
            continue
        months = dict(sa.month_histogram)
        for m, c in sb.month_histogram.items():
            months[m] = months.get(m, 0) + c
        out.cohorts[key] = CohortTractStats(
            sa.event_count + sb.event_count,
            sa.tag_count + sb.tag_count,
            sa.unique_tags | sb.unique_tags,
            [x + y for x, y in zip(sa.hour_histogram, sb.hour_histogram)],
            [x + y for x, y in zip(sa.dow_histogram, sb.dow_histogram)],
            months,
            sa.day_count + sb.day_count,
            sa.night_count + sb.night_count,
        )
    return out


def merge_aggregate_maps(
    a: dict[str, TractAggregate], b: dict[str, TractAggregate]
) -> dict[str, TractAggregate]:
    out = dict(a)
    for tid, agg in b.items():
        cur = out.get(tid)
        out[tid] = agg if cur is None else merge_aggregates(cur, agg)
    return out


def normalize_density(
    counts: Mapping[str, float], areas: Mapping[str, float]
) -> dict[str, float]:
    """count / area_km2 per tract; zero-count tracts stay in with 0.0.

    Empty tracts must remain visible to the inequality indexes, so they
    are never dropped here.
    """
    out: dict[str, float] = {}
    for tid, count in counts.items():
        area = areas.get(tid)
        if area is None:
            raise MissingArea(tid)
        if area <= 0:
            raise DegenerateArea(f"tract {tid}: area {area}")
        out[tid] = count / area
    return out


def tag_summary_from_components(
    n: int, total: int, with_tags: int, gt5: int, gt10: int
) -> TagSummary:
    """Assemble a TagSummary from pre-summed components (image count,
    tag total, tagged/gt5/gt10 image counts); partition-merge friendly."""
    return TagSummary(
        image_count=n,
        tag_total=total,
        images_with_tags=with_tags,
        images_gt5_tags=gt5,
        images_gt10_tags=gt10,
        mean_tags_per_image=total / n,
        mean_tags_per_tagged_image=(total / with_tags) if with_tags else None,
    )


# --- batch (array) path -----------------------------------------------------


@dataclass
class BatchAggregation:
    """Output of the array path: aggregates plus the summable pieces the
    report needs (tag-summary components and per-bucket event totals)."""

    aggregates: dict[str, TractAggregate]
    tag_components: dict[str, tuple[int, int, int, int, int]]
    event_totals: dict[str, int]


def merge_tag_components(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, comp in b.items():
        cur = out.get(key)
        out[key] = comp if cur is None else tuple(x + y for x, y in zip(cur, comp))
    return out


def aggregate_batch(
    tract_ids: Sequence[str],
    tract_idx: np.ndarray,
    local: tuple[np.ndarray, np.ndarray, np.ndarray],
    tags: tuple[np.ndarray, np.ndarray, Sequence[str]],
    masks: np.ndarray,
) -> BatchAggregation:
    """Per-tract aggregates of one batch of events, in array operations.

    ``oracles.aggregate_by_tract`` is the per-event reference.

    ``tract_idx`` indexes into ``tract_ids`` (every event already
    assigned), ``local`` is ``LocalClock.local_fields`` of the events'
    epochs, ``tags`` is the events' interned hashtags as ``EventBatch``
    holds them (tag count per event, tag id per occurrence, vocabulary),
    and ``masks`` holds each event's cohort mask.
    """
    n_tracts = len(tract_ids)
    out: dict[str, TractAggregate] = {}
    tag_components: dict[str, tuple[int, int, int, int, int]] = {}
    event_totals: dict[str, int] = {}
    sod, dow, month_num = local
    hour = sod // 3600
    is_day = ((sod >= DAY_START_SECOND) & (sod < DAY_END_SECOND)).astype(np.int64)
    uniq_months, month_code = np.unique(month_num, return_inverse=True)
    n_months = len(uniq_months)
    month_keys = [month_tuple(m) for m in uniq_months]

    tag_counts, tag_ids, vocab = tags
    n_vocab = len(vocab)
    # the distinct (tract, tag, cohort mask) triples of the occurrences, as
    # the int64 keys (tract * 8 + mask) * n_vocab + tag, ordered by tract
    event_keys = (tract_idx.astype(np.int64, copy=False) * 8 + masks) * n_vocab
    keys = np.repeat(event_keys, tag_counts)
    keys += tag_ids
    triple_tract, rest = np.divmod(distinct(keys), 8 * n_vocab)  # empty when n_vocab is 0
    triple_mask, triple_tag = np.divmod(rest, n_vocab)

    for key in BUCKET_KEYS:
        bit = COHORT_MASKS.get(key)
        if bit is None:
            idx = tract_idx
            sel = slice(None)
            pair_tract, pair_tag = triple_tract, triple_tag
        else:
            sel = (masks & bit) != 0
            idx = tract_idx[sel]
            in_bucket = (triple_mask & bit) != 0
            pair_tract, pair_tag = triple_tract[in_bucket], triple_tag[in_bucket]
        if idx.size == 0:
            continue
        tc = tag_counts[sel]
        tag_h = np.bincount(idx, weights=tc, minlength=n_tracts).astype(np.int64).tolist()
        # a (tract, tag) pair seen under several masks repeats; the set
        # below drops it
        pair_tags = [vocab[t] for t in pair_tag.tolist()]
        pair_bounds = np.searchsorted(pair_tract, np.arange(n_tracts + 1)).tolist()
        ev_count = np.bincount(idx, minlength=n_tracts)
        hour_h = np.bincount(idx * 24 + hour[sel], minlength=n_tracts * 24).tolist()
        dow_h = np.bincount(idx * 7 + dow[sel], minlength=n_tracts * 7).tolist()
        dn = np.bincount(idx * 2 + is_day[sel], minlength=n_tracts * 2).tolist()
        mon_h = np.bincount(
            idx * n_months + month_code[sel], minlength=n_tracts * n_months
        ).tolist()
        for ti in np.flatnonzero(ev_count).tolist():
            agg = out.get(tract_ids[ti])
            if agg is None:
                agg = out[tract_ids[ti]] = TractAggregate(tract_ids[ti])
            st = agg.stats(key)
            st.event_count = int(ev_count[ti])
            st.hour_histogram = hour_h[ti * 24 : (ti + 1) * 24]
            st.dow_histogram = dow_h[ti * 7 : (ti + 1) * 7]
            st.night_count = dn[ti * 2]
            st.day_count = dn[ti * 2 + 1]
            st.month_histogram = {
                month_keys[m]: c
                for m, c in enumerate(mon_h[ti * n_months : (ti + 1) * n_months])
                if c
            }
            st.tag_count = tag_h[ti]
            st.unique_tags = set(pair_tags[pair_bounds[ti] : pair_bounds[ti + 1]])
        event_totals[key] = int(idx.size)
        tag_components[key] = (
            int(idx.size),
            int(tc.sum()),
            int((tc > 0).sum()),
            int((tc >= 6).sum()),
            int((tc >= 11).sum()),
        )
    return BatchAggregation(out, tag_components, event_totals)
