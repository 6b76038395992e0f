"""Per-tract, per-cohort aggregation with an associative merge.

Aggregation is a fold: any partitioning of the event stream, aggregated
separately and merged, must equal the single-pass result. All counts are
integers and unique-tag sets are exact, so merge order cannot matter.

Each event carries its user's cohort mask. ``cohort.COHORT_MASKS``
names the bits, which this module reads and never decides. Cohort
bucket keys are "all", "visitor", "local", and "super_local"; events by
super-local users count in both "local" and "super_local".
Temporal bins use one configured display timezone: day-of-week is
Sunday-first, "day" is the local interval 07:00:00..18:59:59 inclusive
(whole seconds), everything else is "night".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .cohort import COHORT_MASKS
from .errors import DegenerateArea, MissingArea, TractIdMismatch
from .ingest import TAG_PATTERN
from .timebins import month_tuple

DAY_START_SECOND = 7 * 3600  # 07:00:00 local, inclusive
DAY_END_SECOND = 19 * 3600  # 19:00:00 local, exclusive

BUCKET_KEYS = ("all", "visitor", "local", "super_local")

# Texts per hashtag-extraction chunk. It bounds the per-text tag lists
# alive at once, and keeping them below the interpreter's young-generation
# GC threshold (700 allocations by default) means extraction triggers
# almost no collections.
_TAG_CHUNK = 512


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


def _intern_tags(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Every event's hashtags as dense integer ids.

    Returns the per-event tag counts, the id of every tag occurrence in
    event order, and the casefolded vocabulary the ids index (in order
    of first appearance). Casefolding and interning run once per
    distinct raw tag, not per occurrence.
    """
    vocab: dict[str, int] = {}  # casefolded tag -> id
    id_of: dict[str, int] = {}  # raw tag -> id
    counts = [np.empty(0, dtype=np.int64)]
    ids = [np.empty(0, dtype=np.int64)]
    findall = TAG_PATTERN.findall
    for start in range(0, len(texts), _TAG_CHUNK):
        found = list(map(findall, texts[start : start + _TAG_CHUNK]))
        flat = list(chain.from_iterable(found))
        for raw in dict.fromkeys(flat):
            if raw not in id_of:
                id_of[raw] = vocab.setdefault(raw.casefold(), len(vocab))
        counts.append(np.fromiter(map(len, found), dtype=np.int64, count=len(found)))
        ids.append(np.fromiter(map(id_of.__getitem__, flat), dtype=np.int64, count=len(flat)))
    return np.concatenate(counts), np.concatenate(ids), list(vocab)


def aggregate_batch(
    tract_ids: Sequence[str],
    tract_idx: np.ndarray,
    local: tuple[np.ndarray, np.ndarray, np.ndarray],
    texts: Sequence[str],
    masks: np.ndarray,
) -> BatchAggregation:
    """Per-tract aggregates of one batch of events, in array operations.

    ``oracles.aggregate_by_tract`` is the per-event reference.

    ``tract_idx`` indexes into ``tract_ids`` (every event already
    assigned), ``local`` is ``LocalClock.local_fields`` of the events'
    epochs, and ``masks`` holds each event's cohort mask.
    """
    n = len(tract_idx)
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

    tag_counts, tag_ids, vocab = _intern_tags(texts)
    n_vocab = len(vocab)
    tag_owner = np.repeat(np.arange(n), tag_counts)
    tag_tract = tract_idx[tag_owner]
    tag_masks = masks[tag_owner]
    # distinct (tract, tag, cohort mask) triples, ordered by tract, then tag
    triples = np.unique((tag_tract * n_vocab + tag_ids) * 8 + tag_masks)
    triple_pair = triples >> 3
    triple_mask = triples & 7

    for key in BUCKET_KEYS:
        bit = COHORT_MASKS.get(key)
        if bit is None:
            idx = tract_idx
            sel = tag_sel = slice(None)
        else:
            sel = (masks & bit) != 0
            tag_sel = (tag_masks & bit) != 0
            idx = tract_idx[sel]
        if idx.size == 0:
            continue
        tag_h = np.bincount(tag_tract[tag_sel], minlength=n_tracts).tolist()
        # a pair seen under several masks repeats; the set below drops it
        pairs = triple_pair if bit is None else triple_pair[(triple_mask & bit) != 0]
        pair_tract, pair_tag = np.divmod(pairs, n_vocab)  # empty when n_vocab is 0
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
        tc = tag_counts[sel]
        event_totals[key] = int(idx.size)
        tag_components[key] = (
            int(idx.size),
            int(tc.sum()),
            int((tc > 0).sum()),
            int((tc >= 6).sum()),
            int((tc >= 11).sum()),
        )
    return BatchAggregation(out, tag_components, event_totals)
