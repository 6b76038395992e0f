"""Per-tract, per-cohort aggregation as one data cube.

Every number the report needs is a count per cohort bucket: a data cube
(Gray et al., 1997) holding only the group-bys the outputs read. Hour
histograms and hashtag occurrences are also per tract; day-of-week and
month histograms are not, since only their sums over tracts are read.
The axes are fixed before any event is counted: the tracts, the bins of
hour and day of week, the dataset's month axis, which
``cohort.classify_partials`` decides, and the run's tag vocabulary,
which the parent makes from every partition's; it sends each partition
its cohort masks, the month axis and its tags' codes in that vocabulary.
Any partitioning of the event stream, aggregated separately and merged,
must equal the single-pass result. In one call each,
:func:`merge_aggregate_maps` adds every partition's counts and
:func:`merge_tag_components` unions their (bucket, tract, tag) keys.

Each event arrives with its hashtags as ids into the partition's
casefolded vocabulary, as parse interned them (``ingest.EventBatch``),
with the table from those ids to the run's codes, and with its user's
cohort mask. ``cohort.COHORT_MASKS`` names the mask bits, which
this module reads and never decides. Cohort
bucket keys are "all", "visitor", "local", and "super_local"; events by
super-local users count in both "local" and "super_local".
Temporal bins use one configured display timezone: day-of-week is
Sunday-first, "day" is the local interval 07:00:00..18:59:59 inclusive
(whole seconds), everything else is "night".
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .cohort import COHORT_MASKS, distinct, distinct_union
from .errors import InternalInvariantError

DAY_HOURS = slice(7, 19)  # 07:00:00 local inclusive to 19:00:00 exclusive

BUCKET_KEYS = ("all", "visitor", "local", "super_local")
_N_MASKS = 8  # cohort masks have three bits
_SLICE = 1 << 15  # events counted per step
# _IN_BUCKET[b, m] is 1 when an event whose user has cohort mask m counts
# in bucket BUCKET_KEYS[b]
_IN_BUCKET = np.array(
    [[bit is None or m & bit != 0 for m in range(_N_MASKS)]
     for bit in map(COHORT_MASKS.get, BUCKET_KEYS)],
    dtype=np.int64,
)


class TractCube(NamedTuple):
    """Counts per bucket, buckets in ``BUCKET_KEYS`` order. ``hours``
    (local hour bins) and ``tags`` are per (bucket, tract); ``dows``
    (Sunday-first day of week) and ``months`` (local month on the
    dataset's month axis, see ``cohort.Cohorts.months``) are per bucket,
    summed over tracts. ``tag_summary`` holds per bucket the images with
    more than 0, 5 and 10 tags, the :func:`tag_summary_from_components`
    components that ``events`` and ``tags`` do not.
    ``tag_keys`` are the distinct (bucket, tract, tag) triples, ascending,
    as ``tag * tags.size + bucket * n_tracts + tract``, tags by their
    codes in the run's vocabulary ``vocab``, which a partition's cube
    does without and :func:`merge_tag_components` fills in."""

    hours: np.ndarray
    dows: np.ndarray
    months: np.ndarray
    tags: np.ndarray  # hashtag occurrences
    tag_summary: np.ndarray
    tag_keys: np.ndarray
    vocab: Sequence[str] = ()

    @property
    def events(self) -> np.ndarray:
        return self.hours.sum(axis=-1)

    @property
    def day(self) -> np.ndarray:
        return self.hours[..., DAY_HOURS].sum(axis=-1)

    @property
    def night(self) -> np.ndarray:
        return self.events - self.day

    @property
    def unique_tags(self) -> np.ndarray:
        """The number of distinct tags per (bucket, tract)."""
        cells = self.tag_keys % self.tags.size
        return np.bincount(cells, minlength=self.tags.size).reshape(self.tags.shape)


def merge_aggregate_maps(parts: Sequence[TractCube]) -> TractCube:
    """The first of ``parts`` with the counts of them all added into
    int64, one part or many; every cube must have the same axes. A
    partition's counts come as int32, which :func:`aggregate_batch`
    makes sure they fit. The tag keys stay the first cube's."""
    fields = ("hours", "dows", "months", "tags", "tag_summary")
    return parts[0]._replace(**{f: sum((getattr(p, f) for p in parts), np.int64(0))
                                for f in fields})


def merge_tag_components(cube: TractCube, parts: Sequence[TractCube],
                         vocab: Sequence[str]) -> TractCube:
    """``cube`` with the union of the (bucket, tract, tag) keys of
    ``parts`` and ``vocab``, the run's tag vocabulary that every part
    codes its tags in: one concatenation and one sort. Every cube must
    have the same tracts."""
    return cube._replace(tag_keys=distinct(np.concatenate([p.tag_keys for p in parts])),
                         vocab=vocab)


def aggregate_batch(
    tract_ids: Sequence[str],
    tract_idx: np.ndarray,
    local: tuple[np.ndarray, np.ndarray, np.ndarray],
    tags: tuple[np.ndarray, np.ndarray, np.ndarray],
    masks: np.ndarray,
    months: range,
) -> TractCube:
    """The cube of one batch of events, on the month axis ``months``,
    a range of month numbers that holds every event's month, its counts
    int32. ``oracles.aggregate_by_tract`` is the per-event reference.

    ``tract_idx`` indexes into ``tract_ids`` (every event already
    assigned), ``local`` is ``LocalClock.local_fields`` of the events'
    epochs, ``tags`` is the events' hashtags as ``EventBatch`` interned
    them (tag count per event, tag id per occurrence) and each tag id's
    code in the run's vocabulary, and ``masks`` holds each event's cohort
    mask. Each event is counted in its (mask, tract) cell, or for day of
    week and month in its mask, and ``_IN_BUCKET`` sums masks into
    buckets. Events are counted ``_SLICE`` at a time and the counts
    added, so the temporaries stay a slice long whatever the batch size.
    No count exceeds the batch's events or tag occurrences, and a batch
    with 2**31 of either is refused, so every count fits in int32.
    """
    n_tracts = len(tract_ids)
    n_cells = _N_MASKS * n_tracts
    sod, dow, month_num = local
    if len(month_num) and not (months.start <= month_num.min() <= month_num.max() < months.stop):
        raise InternalInvariantError(f"an event's month lies off the month axis {months}")
    tag_counts, tag_ids, codes = tags
    tag_base = codes.astype(np.int64) * n_cells  # tag id -> its run code * n_cells
    if max(len(masks), len(tag_ids)) > np.iinfo(np.int32).max:
        raise InternalInvariantError("a batch's counts overflow int32")
    # the cube's counts per mask, in its field order: per (mask, tract)
    # cell the hour histogram; per mask the day-of-week and month
    # histograms; per cell the hashtag occurrences; per mask images with
    # >0, >5 and >10 tags
    counts_per_mask = [np.zeros((_N_MASKS, *shape), dtype=np.int64)
                       for shape in ((n_tracts, 24), (7,), (len(months),), (n_tracts,), (3,))]
    hours, dows, month_hist, tag_totals, summary = counts_per_mask

    def add(acc: np.ndarray, keys: np.ndarray, weights=None) -> None:
        # acc's flat entry i gains the (weighted) count of key i
        counts = np.bincount(keys, weights, minlength=acc.size)
        acc += counts.reshape(acc.shape).astype(np.int64, copy=False)

    def slices():
        # adds each slice's counts and yields its occurrences' (tag, cell)
        # pairs as int64 keys tag * n_cells + cell, tags in run codes
        tag_end = 0
        for a in range(0, len(masks), _SLICE):
            part = slice(a, a + _SLICE)
            counts = tag_counts[part]
            tag_start, tag_end = tag_end, tag_end + int(counts.sum())
            mask = masks[part].astype(np.int64)
            cell = mask * n_tracts + tract_idx[part]
            add(hours, cell * 24 + sod[part] // 3600)
            add(tag_totals, cell, counts)
            add(dows, mask * 7 + dow[part])
            add(month_hist, mask * len(months) + (month_num[part] - months.start))
            for col, weights in enumerate((counts > 0, counts >= 6, counts >= 11)):
                add(summary[:, col], mask, weights)
            keys = np.repeat(cell, counts)
            keys += tag_base[tag_ids[tag_start:tag_end]]
            yield keys

    pairs = distinct_union(slices())
    # a pair counts in every bucket of its cell's mask
    pair_tag, pair_cell = np.divmod(pairs, n_cells)
    pair_mask, pair_tract = np.divmod(pair_cell, n_tracts)
    bucket, pair = np.nonzero(_IN_BUCKET[:, pair_mask])
    tag_keys = pair_tag[pair] * (len(BUCKET_KEYS) * n_tracts) + bucket * n_tracts + pair_tract[pair]

    # each count's mask axis summed into the buckets
    buckets = (np.tensordot(_IN_BUCKET, c, 1).astype(np.int32) for c in counts_per_mask)
    return TractCube(*buckets, tag_keys=distinct(tag_keys))


class TagSummary(NamedTuple):
    """The tag summary of one bucket; its fields are the report's, in order."""

    image_count: int
    tag_total: int
    images_with_tags: int
    images_gt5_tags: int  # strictly more than 5 tags, i.e. >= 6
    images_gt10_tags: int  # strictly more than 10 tags, i.e. >= 11
    proportion_with_tags: float
    proportion_gt5: float
    proportion_gt10: float
    mean_tags_per_image: float
    mean_tags_per_tagged_image: float | None  # None when nothing is tagged


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
        proportion_with_tags=with_tags / n,
        proportion_gt5=gt5 / n,
        proportion_gt10=gt10 / n,
        mean_tags_per_image=total / n,
        mean_tags_per_tagged_image=(total / with_tags) if with_tags else None,
    )
