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

Memory: ``assign_batch`` takes points in slices whose worst-case count
of (point, tract, edge) tests stays under ``_PAIR_BUDGET``. Besides a
few words per point, its temporaries are O(budget + largest band),
whatever the batch size or the tracts' vertex counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DegeneratePolygon, DuplicateTractId, EmptyTractSet
from .ingest import Polygon, RawTractFeature

EARTH_RADIUS_KM = 6371.0
AREA_EPS_KM2 = 1e-12
_DEG = math.pi / 180.0

# Worst-case (candidate pair, edge) tests per assign_batch slice. It
# bounds the slice's transient arrays (tens of bytes per test), whatever
# the number of points or the tracts' vertex counts.
_PAIR_BUDGET = 1 << 16


@dataclass(frozen=True)
class Tract:
    tract_id: str
    polygons: tuple[Polygon, ...]
    bbox: tuple[float, float, float, float]  # (min_lon, min_lat, max_lon, max_lat)
    area_km2: float

    @property
    def rings(self):
        for poly in self.polygons:
            yield from poly


def _normalize_polygons(rings_or_polygons) -> tuple[Polygon, ...]:
    """Accept either one polygon (a sequence of rings) or a sequence of
    polygons; return the nested form."""
    first = rings_or_polygons[0]
    try:
        float(first[0][0])
        return (tuple(tuple((float(x), float(y)) for x, y in r) for r in rings_or_polygons),)
    except (TypeError, ValueError):
        return tuple(
            tuple(tuple((float(x), float(y)) for x, y in r) for r in poly)
            for poly in rings_or_polygons
        )


def polygon_area_km2(rings_or_polygons) -> float:
    """Shoelace area in km² under a local equirectangular projection.

    All rings are projected about the mean latitude of their vertices
    (x = R·lon_rad·cos(mean_lat), y = R·lat_rad, R = 6371 km); per
    polygon the exterior ring counts positive and hole areas subtract.
    City-scale tracts are small enough that the flat-map error is
    negligible; geodesic area is intentionally out of scope.
    """
    polygons = _normalize_polygons(rings_or_polygons)
    lat_sum = 0.0
    n_pts = 0
    for poly in polygons:
        for ring in poly:
            for _, y in ring[:-1]:  # closing duplicate excluded from the mean
                lat_sum += y
                n_pts += 1
    if n_pts == 0:
        raise DegeneratePolygon("polygon with no vertices")
    mean_lat = lat_sum / n_pts
    kx = EARTH_RADIUS_KM * _DEG * math.cos(mean_lat * _DEG)
    ky = EARTH_RADIUS_KM * _DEG
    total = 0.0
    for poly in polygons:
        for ring_idx, ring in enumerate(poly):
            s = 0.0
            for i in range(len(ring) - 1):
                x1, y1 = ring[i]
                x2, y2 = ring[i + 1]
                s += x1 * y2 - x2 * y1
            ring_area = abs(s) * 0.5 * kx * ky
            total += ring_area if ring_idx == 0 else -ring_area
    if total <= AREA_EPS_KM2:
        raise DegeneratePolygon(f"area {total} km² is not positive")
    return total


def tract_from_feature(feature: RawTractFeature) -> Tract:
    """Attach bbox and area to a parsed tract.

    An ``area_km2`` property in the source file overrides computation
    (authoritative areas, e.g. published census figures, beat our local
    projection).
    """
    xs: list[float] = []
    ys: list[float] = []
    for ring in feature.rings:
        for x, y in ring:
            xs.append(x)
            ys.append(y)
    bbox = (min(xs), min(ys), max(xs), max(ys))
    override = feature.properties.get("area_km2")
    if override is not None:
        area = float(override)
        if area <= AREA_EPS_KM2:
            raise DegeneratePolygon(
                f"tract {feature.tract_id}: provided area_km2 {area} not positive"
            )
    else:
        try:
            area = polygon_area_km2(feature.polygons)
        except DegeneratePolygon as e:
            raise DegeneratePolygon(f"tract {feature.tract_id}: {e}") from None
    return Tract(feature.tract_id, feature.polygons, bbox, area)


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
        segs, seg_tract = [], []
        for ti, t in enumerate(ordered):
            for ring in t.rings:
                v = np.asarray(ring, dtype=np.float64).reshape(-1, 2)
                segs.append(np.hstack((v[:-1], v[1:])))
                seg_tract.append(np.full(len(v) - 1, ti, dtype=np.int64))
        seg = np.concatenate(segs)
        etr = np.concatenate(seg_tract)
        bad = ~np.isfinite(bbox).all(axis=1)
        bad[etr[~np.isfinite(seg).all(axis=1)]] = True
        if bad.any():
            raise DegeneratePolygon(f"tract {ids[int(np.argmax(bad))]}: non-finite coordinate")
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
        """Index into ``self.tracts`` per point, or -1 for no tract.

        Points go in slices whose worst-case (pair, edge) test count stays
        under ``_PAIR_BUDGET``; a point that alone exceeds it is a slice.
        """
        res = np.full(len(lats), -1, dtype=np.int64)
        x0, y0, x1, y1 = self._env
        pts = np.nonzero((lons >= x0) & (lons <= x1) & (lats >= y0) & (lats <= y1))[0]
        if pts.size == 0:
            return res
        g = self._g
        cell = _bin(lats[pts], y0, self._inv_h, g) * g + _bin(lons[pts], x0, self._inv_w, g)
        cost = np.cumsum(self._cell_cost[cell])
        start = 0
        while start < pts.size:
            spent = cost[start - 1] if start else 0
            stop = max(int(np.searchsorted(cost, spent + _PAIR_BUDGET, side="right")), start + 1)
            self._assign_slice(lats, lons, pts[start:stop], cell[start:stop], res)
            start = stop
        return res

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


def assign_tract(lat: float, lon: float, index: SpatialIndex) -> str | None:
    """Tract containing the point, or None; smallest tract_id on ties."""
    i = int(index.assign_batch(np.array([lat], dtype=float), np.array([lon], dtype=float))[0])
    return index.tract_ids[i] if i >= 0 else None
