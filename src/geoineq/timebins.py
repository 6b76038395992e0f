"""Vectorized wall-clock binning for one IANA timezone.

A timezone's UTC offset is a step function of absolute time. We sample
it every six hours across the data span, bisect each change down to the
exact second, and binning millions of epochs becomes a searchsorted plus
integer arithmetic, a slice of epochs at a time into int32 bins.
Histogram conventions: day-of-week is Sunday-first (Sunday = bin 0),
hours are local 0..23, months are local (year, month).
"""

from __future__ import annotations

from datetime import datetime, timezone
from zoneinfo import ZoneInfo

import numpy as np

_PROBE_STEP = 6 * 3600
_MARGIN = 2 * 86400
# the epochs datetime can hold, one day inside its range: no UTC offset
# reaches a day, so every probe's local time is a datetime too
_PROBE_MIN = int(datetime.min.replace(tzinfo=timezone.utc).timestamp()) + 86400
_PROBE_MAX = int(datetime.max.replace(tzinfo=timezone.utc).timestamp()) - 86400
_SLICE = 1 << 15  # epochs binned per step


def _offset_at(tz: ZoneInfo, epoch: int) -> int:
    return int(datetime.fromtimestamp(epoch, tz).utcoffset().total_seconds())


class LocalClock:
    """UTC-offset lookup table for a timezone over a fixed epoch range."""

    def __init__(self, tz: str | ZoneInfo, t_min: float, t_max: float):
        self.tz = ZoneInfo(tz) if isinstance(tz, str) else tz
        lo = max(int(np.floor(t_min)) - _MARGIN, _PROBE_MIN)
        hi = min(int(np.ceil(t_max)) + _MARGIN, _PROBE_MAX)
        starts = [lo]
        offsets = [_offset_at(self.tz, lo)]
        t = lo
        while t < hi:
            nxt = min(t + _PROBE_STEP, hi)
            off = _offset_at(self.tz, nxt)
            if off != offsets[-1]:
                # bisect the change point down to the second
                a, b = t, nxt  # offset(a) == offsets[-1], offset(b) == off
                while b - a > 1:
                    m = (a + b) // 2
                    if _offset_at(self.tz, m) == offsets[-1]:
                        a = m
                    else:
                        b = m
                starts.append(b)
                offsets.append(off)
            t = nxt
        self._starts = np.array(starts, dtype=np.int64)
        self._offsets = np.array(offsets, dtype=np.int64)

    def offsets(self, epochs: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._starts, epochs, side="right") - 1
        return self._offsets[np.clip(idx, 0, len(self._offsets) - 1)]

    def local_fields(self, epochs: np.ndarray):
        """Per-epoch local bins: (second_of_day, dow Sunday-first 0..6,
        months-since-1970-01) as int32 arrays.

        Epochs are binned ``_SLICE`` at a time into the three arrays, so
        the int64 temporaries stay a slice long whatever the batch size.
        """
        epochs = np.asarray(epochs, dtype=np.float64)
        sod, dow, month_num = (np.empty(len(epochs), dtype=np.int32) for _ in range(3))
        for a in range(0, len(epochs), _SLICE):
            part = slice(a, a + _SLICE)
            ep = np.floor(epochs[part]).astype(np.int64)
            loc = ep + self.offsets(ep)
            day = loc // 86400
            sod[part] = loc - day * 86400
            dow[part] = (day + 4) % 7  # 1970-01-01 is a Thursday -> Sunday-first bin 4
            month_num[part] = loc.astype("datetime64[s]").astype("datetime64[M]").astype(np.int64)
        return sod, dow, month_num


def month_tuple(month_num: int) -> tuple[int, int]:
    y, m = divmod(int(month_num), 12)
    return (1970 + y, m + 1)
