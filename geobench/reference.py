"""The reference job: fixed work timed right before every CLI run, so
that a run's time can be given relative to the host's speed at that
moment.

    python3 geobench/reference.py

Like a ``geoineq run`` it is a fresh interpreter that imports numpy,
parses CSV-like lines in Python, counts into a dict and bins with
numpy, but it imports nothing from ``geoineq``, so a change to the
program never moves it. It takes about 0.3 s on a 2-core Xeon VM and
prints a checksum, which is the same on every run.
"""

import random

import numpy as np

N_LINES = 20_000


def main() -> str:
    rng = random.Random(0)
    lines = [
        f"U{rng.randrange(99_999):05d},{rng.uniform(40, 41):.6f},{rng.uniform(-74, -73):.6f},"
        f"2014-03-{rng.randrange(1, 29):02d}T{rng.randrange(24):02d}:00:00-05:00,#tag{rng.randrange(50)} text"
        for _ in range(N_LINES)
    ]
    users: dict[str, int] = {}
    lat, lon, day = [], [], []
    for line in lines:
        uid, a, b, ts, _ = line.split(",", 4)
        users[uid] = users.get(uid, 0) + 1
        lat.append(float(a))
        lon.append(float(b))
        day.append(int(ts[8:10]))
    cell = (np.floor((np.array(lat) - 40) * 50) * 50 + np.floor((np.array(lon) + 74) * 50)).astype(np.int64)
    order = np.argsort(cell, kind="stable")
    counts = np.bincount(cell, minlength=2500) + np.bincount(np.array(day), minlength=2500)
    return f"{len(users)} {int(counts.sum())} {int(order[0])}"


if __name__ == "__main__":
    print(main())
