"""Vectorized wall-clock binning for one IANA timezone.

A timezone's UTC offset is a step function of absolute time. We probe
it at the ends of every six-hour step that holds an event, bisect each
change down to the exact second, and binning millions of epochs becomes
a searchsorted plus integer arithmetic, a slice of epochs at a time into
int32 bins. Time that holds no event is never probed, so a stray record
centuries away costs one step's probes, not a scan of the centuries
between.
Histogram conventions: day-of-week is Sunday-first (Sunday = bin 0),
hours are local 0..23, months are local (year, month).
"""

from __future__ import annotations

from datetime import datetime
from zoneinfo import ZoneInfo

import numpy as np

from .cohort import distinct_union

_PROBE_STEP = 6 * 3600  # assumed: no zone changes its offset twice within one step
_SLICE = 1 << 15  # epochs binned per step


def _offset_at(tz: ZoneInfo, epoch: int) -> int:
    return int(datetime.fromtimestamp(epoch, tz).utcoffset().total_seconds())


class LocalClock:
    """UTC-offset lookup table for a timezone at the given epochs.

    Its domain is the instants ingest keeps, from 0001-01-02T00:00:00Z up
    to, not including, 9999-12-31T00:00:00Z: the steps that hold them
    start and end inside it, so every probe's local time is a
    ``datetime``."""

    def __init__(self, tz: str | ZoneInfo, epochs: np.ndarray):
        self.tz = ZoneInfo(tz) if isinstance(tz, str) else tz
        epochs = np.asarray(epochs, dtype=np.float64)
        # the six-hour steps that hold an epoch, found a slice at a time
        steps = distinct_union(epochs[a:a + _SLICE] // _PROBE_STEP
                               for a in range(0, len(epochs), _SLICE))
        table = []  # (epoch, offset from then on): each step's start, each change
        end = end_offset = None  # the previous step's end and its offset
        for s in steps.astype(np.int64).tolist():
            a, b = s * _PROBE_STEP, (s + 1) * _PROBE_STEP
            off_a = end_offset if a == end else _offset_at(self.tz, a)
            end, end_offset = b, _offset_at(self.tz, b)
            table.append((a, off_a))
            if end_offset != off_a:
                # bisect the change point down to the second, keeping
                # offset(a) == off_a != offset(b)
                while b - a > 1:
                    m = (a + b) // 2
                    a, b = (m, b) if _offset_at(self.tz, m) == off_a else (a, m)
                table.append((b, end_offset))
        self._starts, self._offsets = np.array(table, dtype=np.int64).reshape(-1, 2).T.copy()

    def local_fields(self, epochs: np.ndarray):
        """Per-epoch local bins: (second_of_day, dow Sunday-first 0..6,
        months-since-1970-01) as int32 arrays, for epochs the clock was
        built on.

        Epochs are binned ``_SLICE`` at a time into the three arrays, so
        the int64 temporaries stay a slice long whatever the batch size.
        """
        epochs = np.asarray(epochs, dtype=np.float64)
        sod, dow, month_num = (np.empty(len(epochs), dtype=np.int32) for _ in range(3))
        for a in range(0, len(epochs), _SLICE):
            part = slice(a, a + _SLICE)
            ep = np.floor(epochs[part]).astype(np.int64)
            row = np.searchsorted(self._starts, ep, side="right") - 1
            loc = ep + self._offsets[np.clip(row, 0, len(self._offsets) - 1)]
            day = loc // 86400
            sod[part] = loc - day * 86400
            dow[part] = (day + 4) % 7  # 1970-01-01 is a Thursday -> Sunday-first bin 4
            month_num[part] = loc.astype("datetime64[s]").astype("datetime64[M]").astype(np.int64)
        return sod, dow, month_num


def month_tuple(month_num: int) -> tuple[int, int]:
    y, m = divmod(int(month_num), 12)
    return (1970 + y, m + 1)
