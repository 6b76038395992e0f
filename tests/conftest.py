import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from geoineq.aggregate import BUCKET_KEYS
from geoineq.cohort import MASK_LOCAL, MASK_SUPER, MASK_VISITOR
from geoineq.ingest import (
    Codes,
    TagIds,
    _intern_tags,
    intern_codes,
    parse_event_batch,
    partition_byte_ranges,
    read_byte_range,
)
from geoineq.metrics import Distribution
from geoineq.timebins import LocalClock, month_tuple

# the sandbox CPU is noisy; wall-clock deadlines just flake here
settings.register_profile(
    "noisy-box",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("noisy-box")


# every cohort mask classification gives, as the (kind, super_local)
# label that oracles.classify_users_direct returns
MASK_LABELS = {
    MASK_VISITOR: ("visitor", False),
    MASK_LOCAL: ("local", False),
    MASK_LOCAL | MASK_SUPER: ("local", True),
}


def cohort_labels(user_ids, masks) -> dict:
    """{user_id: (kind, super_local)} from aligned ids and cohort masks."""
    return {uid: MASK_LABELS[m] for uid, m in zip(user_ids, masks.tolist())}


def user_codes(user_ids):
    """(distinct user ids, each id's code) as a parsed batch holds them."""
    code_of = Codes()
    codes = intern_codes(user_ids, code_of)
    return list(code_of), codes


def interned_tags(texts):
    """The texts' hashtags as a parsed batch holds them:
    (tag count per text, tag id per occurrence, vocabulary)."""
    tag_id_of = TagIds()
    counts, ids = _intern_tags(texts, tag_id_of)
    return counts, ids, list(tag_id_of.vocab)


def distribution(values, label: str = "") -> Distribution:
    """A Distribution of the values, its units named u0001, u0002, ..."""
    vals = tuple(float(v) for v in values)
    return Distribution(tuple(f"u{i + 1:04d}" for i in range(len(vals))), vals, label)


def assign_point(lat, lon, index):
    """The id of the tract that ``index.assign_batch`` gives the one
    point, or None."""
    i = int(index.assign_batch(np.array([lat], dtype=float), np.array([lon], dtype=float))[0])
    return index.tract_ids[i] if i >= 0 else None


def batch_user_ids(batch) -> list[str]:
    """Each event's user id, decoded from the batch's codes."""
    return [batch.users[c] for c in batch.user_codes.tolist()]


def batch_hashtags(batch) -> list[list[str]]:
    """Each event's casefolded hashtags in order, decoded from the
    batch's tag ids."""
    ids = batch.tag_ids.tolist()
    ends = np.cumsum(batch.tag_counts).tolist()
    return [[batch.tags[t] for t in ids[a:b]] for a, b in zip([0, *ends], ends)]


def cube_view(cube, tract_ids) -> dict:
    """{tract_id: {bucket: stats}} of an aggregate cube, in the shape of
    oracles.aggregate_by_tract less the weekday and month histograms
    (see :func:`bucket_view`): only the tracts and buckets with events,
    and each bucket's distinct tags as a set."""
    tag_sets: dict[int, set[str]] = {}
    cells, tags = np.divmod(cube.tag_keys, max(len(cube.vocab), 1))
    for cell, tag in zip(cells.tolist(), tags.tolist()):
        tag_sets.setdefault(cell, set()).add(cube.vocab[tag])
    events, tag_counts, hours, day, night = (
        a.tolist() for a in (cube.events, cube.tags, cube.hours, cube.day, cube.night)
    )
    out: dict = {}
    for b, bucket in enumerate(BUCKET_KEYS):
        for t, tid in enumerate(tract_ids):
            if not events[b][t]:
                continue
            out.setdefault(tid, {})[bucket] = {
                "event_count": events[b][t],
                "tag_count": tag_counts[b][t],
                "unique_tags": tag_sets.get(b * len(tract_ids) + t, set()),
                "hour_histogram": hours[b][t],
                "day_count": day[b][t],
                "night_count": night[b][t],
            }
    return out


def bucket_view(cube, months) -> dict:
    """{bucket: histograms} of an aggregate cube on the month axis
    ``months``: each bucket with events, its weekday histogram and its
    months with a count, summed over tracts."""
    return {
        bucket: {
            "dow_histogram": dows,
            "month_histogram": {month_tuple(m): n for m, n in zip(months, month_hist) if n},
        }
        for bucket, dows, month_hist, n in zip(
            BUCKET_KEYS, cube.dows.tolist(), cube.months.tolist(), cube.events.sum(axis=1).tolist()
        )
        if n
    }


def oracle_views(by_tract: dict) -> tuple[dict, dict]:
    """oracles.aggregate_by_tract's result as (:func:`cube_view`,
    :func:`bucket_view`) show a cube: the weekday and month histograms
    taken out of each tract's stats and summed per bucket over tracts."""
    tracts: dict = {}
    buckets: dict = {}
    for tid, per_bucket in by_tract.items():
        for bucket, stats in per_bucket.items():
            stats = dict(stats)
            dows, month_hist = stats.pop("dow_histogram"), stats.pop("month_histogram")
            tracts.setdefault(tid, {})[bucket] = stats
            acc = buckets.setdefault(bucket, {"dow_histogram": [0] * 7, "month_histogram": {}})
            acc["dow_histogram"] = [x + y for x, y in zip(acc["dow_histogram"], dows)]
            for month, n in month_hist.items():
                acc["month_histogram"][month] = acc["month_histogram"].get(month, 0) + n
    return tracts, buckets


def local_fields(epochs, tz):
    """Local time bins of epochs from one clock built on them, as a
    partition job computes them: (second of day, day of week, month)."""
    return LocalClock(tz, epochs).local_fields(epochs)


def square_feature(tract_id, x0, y0, size=1.0, props=None, holes=None):
    ring = [[x0, y0], [x0 + size, y0], [x0 + size, y0 + size], [x0, y0 + size], [x0, y0]]
    properties = {"tract_id": tract_id}
    if props:
        properties.update(props)
    return {
        "type": "Feature",
        "properties": properties,
        "geometry": {"type": "Polygon", "coordinates": [ring] + (holes or [])},
    }


def feature_collection(features) -> bytes:
    return json.dumps({"type": "FeatureCollection", "features": features}).encode()


def events_csv(rows) -> bytes:
    return ("user_id,lat,lon,timestamp,text\n" + "\n".join(rows) + "\n").encode()


def parse_events_file(data: bytes, fmt: str = "csv", stats=None):
    """Parse a whole event file, header included, through the ingest
    stage ``run`` uses: the header check and body range of
    partition_byte_ranges at k=1, read_byte_range, parse_event_batch."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"events.{fmt}"
        path.write_bytes(data)
        (byte_range,) = partition_byte_ranges(path, 1, fmt)
        return parse_event_batch(read_byte_range(path, byte_range), fmt, stats)


def parse_body(data: bytes, fmt: str = "csv", stats=None):
    """Parse a headerless event body: the one byte range of a file that
    holds just its bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "body"
        path.write_bytes(data)
        return parse_event_batch(read_byte_range(path, (0, len(data))), fmt, stats)


@pytest.fixture
def unit_square_tracts() -> bytes:
    return feature_collection([square_feature("T1", 0.0, 0.0)])
