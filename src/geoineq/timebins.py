"""Vectorized wall-clock binning for one IANA timezone.

A timezone's UTC offset is a step function of absolute time. We sample
it every six hours across the data span, bisect each change down to the
exact second, and binning millions of epochs becomes a searchsorted plus
integer arithmetic. Histogram conventions: day-of-week is Sunday-first
(Sunday = bin 0), hours are local 0..23, months are local (year, month).
"""

from __future__ import annotations

from datetime import datetime
from zoneinfo import ZoneInfo

import numpy as np

_PROBE_STEP = 6 * 3600
_MARGIN = 2 * 86400


def _offset_at(tz: ZoneInfo, epoch: int) -> int:
    return int(datetime.fromtimestamp(epoch, tz).utcoffset().total_seconds())


class LocalClock:
    """UTC-offset lookup table for a timezone over a fixed epoch range."""

    def __init__(self, tz: str | ZoneInfo, t_min: float, t_max: float):
        self.tz = ZoneInfo(tz) if isinstance(tz, str) else tz
        lo = int(np.floor(t_min)) - _MARGIN
        hi = int(np.ceil(t_max)) + _MARGIN
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
        months-since-1970-01) as int64 arrays."""
        ep = np.floor(np.asarray(epochs, dtype=np.float64)).astype(np.int64)
        loc = ep + self.offsets(ep)
        day = loc // 86400
        sod = loc - day * 86400
        dow = (day + 4) % 7  # 1970-01-01 is a Thursday -> Sunday-first bin 4
        month_num = loc.astype("datetime64[s]").astype("datetime64[M]").astype(np.int64)
        return sod, dow, month_num


def month_tuple(month_num: int) -> tuple[int, int]:
    y, m = divmod(int(month_num), 12)
    return (1970 + y, m + 1)
