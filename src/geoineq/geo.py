"""Tract geometry: areas, containment, and a banded spatial index.

Containment uses the even-odd (ray-casting) rule over every ring of a
tract, so holes subtract without caring about ring orientation. When a
point lies in more than one tract (shared edges, sloppy data), the
lexicographically smallest tract_id wins; counts must be reproducible,
so ties cannot depend on input order.

``SpatialIndex`` prunes in two levels, both built once:

* a uniform grid over the tract bounding boxes gives a point's candidate
  tracts (those of its cell whose bbox holds it);
* each tract's bbox height is cut into as many latitude bands as the
  tract has non-horizontal edges, and each band lists every edge whose
  latitude span touches it, so a point tests only its band's edges.

Both levels are exact. A point's cell and band and an edge's or a bbox's
cell and band range come from one expression, ``clip((v - lo) * inv,
0, n - 1)`` truncated to an integer. Float rounding never reverses an
order, so an edge whose span holds the point's latitude is always in the
point's band, and a bbox holding the point always covers its cell; no
epsilon is needed. Horizontal edges never straddle a latitude and are
left out. The crossing test runs per (point, edge) with the same
operations as a scan over every edge, so indexed assignment answers like
``oracles.assign_batch_naive``, bit for bit.

A GeoJSON feature becomes a :class:`Tract` in one call,
:func:`tract_from_feature`, which checks its geometry. Each ring is held
as one float64 ``(n, 2)`` array of its positions, the form that areas,
the spatial index and the choropleth all read, unconverted. A ring of
two Python floats per position is converted while ``ingest.parse_tracts``
decodes the file, by :func:`rings_to_arrays`, its ``json.loads`` object
hook, so the decode never builds a tree of Python floats for the whole
file; ``tract_from_feature`` then checks only its length and closure.
Any other ring reaches it as a list and is read or refused there, with
the same messages.

Memory: a ring holds 16 bytes per vertex and no Python object per
vertex; areas and bounding boxes are computed on it with numpy, the sums
in vertex order. ``assign_batch`` takes points in blocks of
``_POINT_BLOCK``, and a block in slices whose worst-case count of
(point, tract, edge) tests stays under ``_PAIR_BUDGET``. Besides its int32 result, its
temporaries are O(block + budget + largest band), whatever the batch
size or the tracts' vertex counts.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterable

import numpy as np

from .errors import (
    DegeneratePolygon,
    DuplicateTractId,
    EmptyTractSet,
    NonPolygonGeometry,
    UnclosedRing,
)

EARTH_RADIUS_KM = 6371.0
AREA_EPS_KM2 = 1e-12
_DEG = math.pi / 180.0

# Worst-case (candidate pair, edge) tests per assign_batch slice. It
# bounds the slice's transient arrays (tens of bytes per test), whatever
# the number of points or the tracts' vertex counts.
_PAIR_BUDGET = 1 << 16

# Points per assign_batch block: it bounds the per-point temporaries
# (a few words each) whatever the batch size.
_POINT_BLOCK = 1 << 15

Ring = np.ndarray  # float64 (x, y) positions, shape (n, 2), closed
Polygon = tuple[Ring, ...]  # exterior ring first, holes after


class Tract:
    """One tract; it equals only itself, as its rings are arrays."""

    __slots__ = ("tract_id", "polygons", "bbox", "area_km2", "properties", "geometry_type")

    def __init__(
        self,
        tract_id: str,
        polygons: tuple[Polygon, ...],
        bbox: tuple[float, float, float, float],  # (min_lon, min_lat, max_lon, max_lat)
        area_km2: float,
        # the source feature's properties and geometry type, for the choropleth
        properties: dict | None = None,
        geometry_type: str = "MultiPolygon",
    ):
        self.tract_id, self.polygons, self.bbox, self.area_km2 = tract_id, polygons, bbox, area_km2
        self.properties = {} if properties is None else properties
        self.geometry_type = geometry_type

    @property
    def rings(self):
        for poly in self.polygons:
            yield from poly


def _sum_in_order(values: np.ndarray) -> float:
    """``values`` added one after another from 0.0, as a Python loop adds
    them (``np.cumsum`` is sequential; ``np.sum`` adds pairwise, which
    would move the last bits of an area)."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def polygon_area_km2(polygons: Iterable[Polygon]) -> float:
    """Shoelace area in km² under a local equirectangular projection.

    All rings are projected about the mean latitude of their vertices
    (x = R·lon_rad·cos(mean_lat), y = R·lat_rad, R = 6371 km); per
    polygon the exterior ring counts positive and hole areas subtract.
    City-scale tracts are small enough that the flat-map error is
    negligible; geodesic area is intentionally out of scope.

    Each sum runs in vertex order, so the area is bit for bit that of
    the plain loop over positions.
    """
    # closing duplicates excluded from the mean
    lats = [ring[:-1, 1] for poly in polygons for ring in poly]
    n_pts = sum(map(len, lats))
    if n_pts == 0:
        raise DegeneratePolygon("polygon with no vertices")
    mean_lat = _sum_in_order(np.concatenate(lats)) / n_pts
    kx = EARTH_RADIUS_KM * _DEG * math.cos(mean_lat * _DEG)
    ky = EARTH_RADIUS_KM * _DEG
    total = 0.0
    for poly in polygons:
        for ring_idx, ring in enumerate(poly):
            x, y = ring[:, 0], ring[:, 1]
            s = _sum_in_order(x[:-1] * y[1:] - x[1:] * y[:-1])
            ring_area = abs(s) * 0.5 * kx * ky
            total += ring_area if ring_idx == 0 else -ring_area
    if total <= AREA_EPS_KM2:
        raise DegeneratePolygon(f"area {total} km² is not positive")
    return total


def _ring_array(ring) -> Ring | None:
    """The positions of a ring as a float64 ``(n, 2)`` array when every
    position is a list of exactly two Python floats, else None; it never
    raises. jsonio writes such an array as it writes the list, so a
    ring it accepts reads and prints the same in either form. Any other
    ring (ints, an altitude, a value that is not a number) is left for
    :func:`_validate_ring` to read or refuse."""
    if (
        type(ring) is not list
        or set(map(type, ring)) != {list}
        or set(map(len, ring)) != {2}
        or set(map(type, chain.from_iterable(ring))) != {float}
    ):
        return None
    return np.array(ring, dtype=np.float64)


def rings_to_arrays(obj: dict) -> dict:
    """``json.loads`` object hook: in an object whose ``geometry`` is a
    Polygon or a MultiPolygon (a feature), each ring that
    :func:`_ring_array` accepts becomes its array. An object's members
    decode before it, so a feature's coordinate lists die here, one
    feature at a time. It never raises: a ring it leaves as a list is
    read or refused by :func:`tract_from_feature`."""
    geom = obj.get("geometry")
    if type(geom) is not dict or type(coords := geom.get("coordinates")) is not list:
        return obj
    gtype = geom.get("type")
    polygons = [coords] if gtype == "Polygon" else coords if gtype == "MultiPolygon" else []
    for rings in polygons:
        if type(rings) is list:
            for i, ring in enumerate(rings):
                pts = _ring_array(ring)
                if pts is not None:
                    rings[i] = pts
    return obj


def _validate_ring(tract_id: str, ring) -> Ring:
    """The ring's (x, y) positions as a float64 ``(n, 2)`` array, refused
    with the tract's id if it has fewer than 4 positions or is not
    closed. A ring that ``ingest.parse_tracts`` left as a list is read
    here: every value of a position must be a JSON number, and a
    string, a boolean or null is refused, not converted. Values past
    the second (an altitude) are checked but not kept."""
    if not isinstance(ring, (list, tuple, np.ndarray)) or len(ring) < 4:
        raise UnclosedRing(f"tract {tract_id}: ring with < 4 points")
    pts = ring if isinstance(ring, np.ndarray) else _list_ring_array(tract_id, ring)
    # NaN equals NaN here: JSON's NaN is one object, which the closing
    # position repeats (such a ring is refused later, by tract_from_feature)
    first, last = pts[0], pts[-1]
    if not ((first == last) | (np.isnan(first) & np.isnan(last))).all():
        raise UnclosedRing(f"tract {tract_id}: ring not closed")
    return pts


def _list_ring_array(tract_id: str, ring) -> Ring:
    """A ring that ``_ring_array`` did not take, read (ints, altitudes) or
    refused with the tract's id."""
    malformed = f"tract {tract_id}: malformed coordinates"
    try:
        kinds = set(map(type, chain.from_iterable(ring)))
    except TypeError:  # a position that is not a list
        raise NonPolygonGeometry(malformed) from None
    if not kinds <= {int, float}:
        bad = next(v for p in ring for v in p if type(v) not in (int, float))
        raise NonPolygonGeometry(f"tract {tract_id}: coordinate {bad!r} is not a number")
    try:
        pts = np.array(ring, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # not all [x, y]: read one by one
        pts = None
    if pts is None or pts.shape[1] != 2:
        try:
            pts = np.array([(p[0], p[1]) for p in ring], dtype=np.float64)
        except (IndexError, KeyError, OverflowError):  # a short position, a huge integer
            raise NonPolygonGeometry(malformed) from None
    return pts


def tract_from_feature(feature: dict) -> Tract:
    """The tract of one GeoJSON feature as ``ingest.parse_tracts`` returns
    it, its geometry checked and its bbox and area attached. Rings that
    the parse already made arrays are checked for length and closure;
    rings still lists (or a feature built in Python) get every check.

    A Polygon or a MultiPolygon is accepted, and a MultiPolygon becomes
    one tract with several polygon parts. An ``area_km2`` property in the
    source file overrides computation (authoritative areas, e.g.
    published census figures, beat our local projection).
    """
    properties = feature["properties"]
    tid = str(properties["tract_id"])
    geom = feature.get("geometry")
    gtype = geom.get("type") if isinstance(geom, dict) else None
    if gtype == "Polygon":
        parts = [geom.get("coordinates")]
    elif gtype == "MultiPolygon":
        parts = geom.get("coordinates") or []
    else:
        raise NonPolygonGeometry(f"tract {tid}: geometry type {gtype!r}")
    if not isinstance(parts, list):
        raise NonPolygonGeometry(f"tract {tid}: malformed coordinates")
    if not parts:
        raise NonPolygonGeometry(f"tract {tid}: empty MultiPolygon")
    polygons = []
    for rings in parts:
        if not rings:
            raise NonPolygonGeometry(f"tract {tid}: polygon without rings")
        if not isinstance(rings, list):
            raise NonPolygonGeometry(f"tract {tid}: malformed coordinates")
        polygons.append(tuple(_validate_ring(tid, r) for r in rings))
    pts = np.concatenate([ring for poly in polygons for ring in poly])
    lo, hi = pts.min(axis=0).tolist(), pts.max(axis=0).tolist()
    bbox = (lo[0], lo[1], hi[0], hi[1])
    override = properties.get("area_km2")
    try:
        area = polygon_area_km2(polygons) if override is None else float(override)
    except DegeneratePolygon as e:
        raise DegeneratePolygon(f"tract {tid}: {e}") from None
    except (TypeError, ValueError):  # a provided value that is not a number
        area = math.nan
    # a NaN vertex makes the computed area NaN, and NaN passes no comparison
    if not math.isfinite(area) or area <= AREA_EPS_KM2:
        what = f"computed area_km2 {area!r}" if override is None else f"area_km2 {override!r}"
        raise DegeneratePolygon(f"tract {tid}: {what} is not a finite positive number")
    # a stated area hides a non-finite vertex from that check; min and max
    # pass NaN on, so the bbox is finite only when every vertex is
    if not all(map(math.isfinite, bbox)):
        raise DegeneratePolygon(f"tract {tid}: non-finite coordinate")
    return Tract(tid, tuple(polygons), bbox, area, properties, gtype)


def _inverse(n, extent):
    """``n / extent``, or 0 where that is not finite (a flat extent, or one
    so thin that the quotient overflows, puts every value in bin 0)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = np.true_divide(n, extent)
    return np.where(np.isfinite(inv), inv, 0.0)


def _bin(v, lo, inv, n):
    """Bin of ``v`` among ``n`` equal bins from ``lo``. Monotone in ``v``:
    rounding never reverses an order, so v <= w gives bin(v) <= bin(w)."""
    return np.clip((v - lo) * inv, 0, n - 1).astype(np.int64)


def _ragged(starts, counts):
    """``(owner, position)``: for each i in turn, ``position`` runs over
    ``starts[i] .. starts[i] + counts[i] - 1`` and ``owner`` is i."""
    ends = np.cumsum(counts)
    owner = np.repeat(np.arange(len(counts)), counts)
    position = np.arange(int(ends[-1]) if len(ends) else 0)
    position += np.repeat(starts - ends + counts, counts)
    return owner, position


def _csr_ptr(keys, n):
    """Row pointers of a CSR table whose entries have row ``keys``."""
    return np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=n))))


class SpatialIndex:
    """Immutable two-level index over a tract set.

    Tracts are held in ascending tract_id order and every candidate list
    is too, so taking a point's first containing candidate realizes the
    smallest-id tie-break. ``band_ptr``/``band_edges`` is the latitude
    band table: tract t owns the ``_nb[t]`` bands from ``_band_base[t]``
    on, and band b lists ``band_edges[band_ptr[b]:band_ptr[b + 1]]``,
    indices into the edge arrays, which hold each tract's non-horizontal
    edges in ring order.
    """

    def __init__(self, tracts: Iterable[Tract]):
        ordered = sorted(tracts, key=lambda t: t.tract_id)
        if not ordered:
            raise EmptyTractSet("cannot index an empty tract set")
        ids = [t.tract_id for t in ordered]
        if len(set(ids)) != len(ids):
            raise DuplicateTractId("duplicate tract_id in index input")
        self.tracts: tuple[Tract, ...] = tuple(ordered)
        self.tract_ids: tuple[str, ...] = tuple(ids)
        n_tracts = len(ordered)

        bbox = np.array([t.bbox for t in ordered], dtype=np.float64)
        self._minx, self._miny, self._maxx, self._maxy = (bbox[:, k].copy() for k in range(4))

        # edges, tract by tract in ring order; horizontal ones never
        # straddle a latitude and are left out
        rings = [(ti, v) for ti, t in enumerate(ordered) for v in t.rings]
        seg = np.concatenate([np.hstack((v[:-1], v[1:])) for _, v in rings])
        etr = np.repeat(
            np.array([ti for ti, _ in rings], dtype=np.int64), [len(v) - 1 for _, v in rings]
        )
        keep = seg[:, 1] != seg[:, 3]
        seg, etr = seg[keep], etr[keep]
        self._ex1 = seg[:, 0].copy()
        self._ey1 = seg[:, 1].copy()
        self._ey2 = seg[:, 3].copy()
        self._edx = seg[:, 2] - seg[:, 0]
        self._edy = seg[:, 3] - seg[:, 1]

        self._env = (
            float(self._minx.min()),
            float(self._miny.min()),
            float(self._maxx.max()),
            float(self._maxy.max()),
        )
        x0, y0, x1, y1 = self._env
        g = max(1, 2 * int(math.ceil(math.sqrt(n_tracts))))
        self._g = g
        self._inv_w = float(_inverse(g, x1 - x0))
        self._inv_h = float(_inverse(g, y1 - y0))

        # grid: cell -> tracts whose bbox touches it, ascending per cell
        cx0 = _bin(self._minx, x0, self._inv_w, g)
        cy0 = _bin(self._miny, y0, self._inv_h, g)
        wx = _bin(self._maxx, x0, self._inv_w, g) - cx0 + 1
        wy = _bin(self._maxy, y0, self._inv_h, g) - cy0 + 1
        tr, k = _ragged(np.zeros(n_tracts, dtype=np.int64), wx * wy)
        cells = (cy0[tr] + k // wx[tr]) * g + cx0[tr] + k % wx[tr]
        self._cell_tracts = tr[np.argsort(cells, kind="stable")]
        self._cell_ptr = _csr_ptr(cells, g * g)

        # bands: as many per tract as it has edges; each edge is listed in
        # every band its latitude span touches
        self._nb = np.maximum(np.bincount(etr, minlength=n_tracts), 1)
        self._inv_b = _inverse(self._nb, self._maxy - self._miny)
        band_base = np.concatenate(([0], np.cumsum(self._nb)))
        self._band_base = band_base[:-1]
        lo = self._bands(etr, np.minimum(self._ey1, self._ey2))
        hi = self._bands(etr, np.maximum(self._ey1, self._ey2))
        edge, band = _ragged(lo, hi - lo + 1)
        self.band_edges = edge[np.argsort(band, kind="stable")]
        self.band_ptr = _csr_ptr(band, int(band_base[-1]))

        # worst-case (pair, edge) tests of a point in each cell: one per
        # candidate tract plus the tract's longest band
        longest = np.maximum.reduceat(np.diff(self.band_ptr), self._band_base)
        cost = np.bincount(cells, weights=1 + longest[tr], minlength=g * g)
        self._cell_cost = cost.astype(np.int64)

    def _bands(self, tr: np.ndarray, lat: np.ndarray) -> np.ndarray:
        """Global band of each latitude within tract ``tr``: the one
        expression for points and for edge endpoints alike."""
        return self._band_base[tr] + _bin(lat, self._miny[tr], self._inv_b[tr], self._nb[tr])

    def assign_batch(self, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
        """Index into ``self.tracts`` per point, or -1 for no tract, as
        int32.

        Points go ``_POINT_BLOCK`` at a time, and within a block in slices
        whose worst-case (pair, edge) test count stays under
        ``_PAIR_BUDGET``; a point that alone exceeds it is a slice.
        """
        res = np.full(len(lats), -1, dtype=np.int32)
        for a in range(0, len(lats), _POINT_BLOCK):
            block = slice(a, a + _POINT_BLOCK)
            self._assign_block(lats[block], lons[block], res[block])
        return res

    def _assign_block(self, lats, lons, res) -> None:
        x0, y0, x1, y1 = self._env
        pts = np.nonzero((lons >= x0) & (lons <= x1) & (lats >= y0) & (lats <= y1))[0]
        if pts.size == 0:
            return
        g = self._g
        cell = _bin(lats[pts], y0, self._inv_h, g) * g + _bin(lons[pts], x0, self._inv_w, g)
        cost = np.cumsum(self._cell_cost[cell])
        start = 0
        while start < pts.size:
            spent = cost[start - 1] if start else 0
            stop = max(int(np.searchsorted(cost, spent + _PAIR_BUDGET, side="right")), start + 1)
            self._assign_slice(lats, lons, pts[start:stop], cell[start:stop], res)
            start = stop

    def _assign_slice(self, lats, lons, pts, cell, res) -> None:
        # (point, candidate tract) pairs, by point, then by tract index
        cell_start = self._cell_ptr[cell]
        pair_pt, pos = _ragged(cell_start, self._cell_ptr[cell + 1] - cell_start)
        tr = self._cell_tracts[pos]
        px = lons[pts][pair_pt]
        py = lats[pts][pair_pt]
        in_bbox = np.nonzero(
            (px >= self._minx[tr]) & (px <= self._maxx[tr])
            & (py >= self._miny[tr]) & (py <= self._maxy[tr])
        )[0]
        pair_pt, tr, px, py = pair_pt[in_bbox], tr[in_bbox], px[in_bbox], py[in_bbox]

        # (pair, edge) over the pair's band; the crossing test is the
        # even-odd one, operation for operation
        band = self._bands(tr, py)
        band_start = self.band_ptr[band]
        pair, pos = _ragged(band_start, self.band_ptr[band + 1] - band_start)
        edge = self.band_edges[pos]
        y = py[pair]
        y1 = self._ey1[edge]
        straddle = np.nonzero((y1 > y) != (self._ey2[edge] > y))[0]
        pair, edge, y, y1 = pair[straddle], edge[straddle], y[straddle], y1[straddle]
        xint = self._edx[edge] * (y - y1) / self._edy[edge] + self._ex1[edge]
        crossing = px[pair] < xint
        inside = np.bincount(pair[crossing], minlength=tr.size) % 2 == 1

        # each point's first containing pair holds its smallest tract index
        hit_pt, hit_tr = pair_pt[inside], tr[inside]
        lead = np.ones(hit_pt.size, dtype=bool)
        lead[1:] = hit_pt[1:] != hit_pt[:-1]
        res[pts[hit_pt[lead]]] = hit_tr[lead]


def build_spatial_index(tracts: Iterable[Tract]) -> SpatialIndex:
    return SpatialIndex(tracts)
