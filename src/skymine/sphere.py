"""Spherical geometry and spatial search: unit-vector coordinates, cone and
convex-polygon regions, declination zones, the fixed-radius search on sorted
cell keys that every radius query in the package uses, and the symmetric
fixed-radius neighbors join built on it.

All internal geometry lives in unit-vector space to avoid pole/RA-wrap
singularities; angles cross the API boundary in degrees or arcseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

ARCSEC_PER_DEG = 3600.0


def radec_to_unit(ra_deg, dec_deg) -> np.ndarray:
    """Convert RA/Dec (degrees) to unit vectors, shape (..., 3)."""
    ra = np.asarray(ra_deg, dtype=np.float64)
    dec = np.asarray(dec_deg, dtype=np.float64)
    if np.any(dec < -90.0) or np.any(dec > 90.0):
        raise ValidationError("dec outside [-90, 90]")
    ra_r = np.radians(ra)
    dec_r = np.radians(dec)
    cos_dec = np.cos(dec_r)
    return np.stack([cos_dec * np.cos(ra_r), cos_dec * np.sin(ra_r), np.sin(dec_r)], axis=-1)


def unit_to_radec(vec) -> tuple[np.ndarray, np.ndarray]:
    """Convert unit vectors back to (RA, Dec) in degrees, RA in [0, 360)."""
    v = np.asarray(vec, dtype=np.float64)
    ra = np.degrees(np.arctan2(v[..., 1], v[..., 0])) % 360.0
    dec = np.degrees(np.arctan2(v[..., 2], np.hypot(v[..., 0], v[..., 1])))
    return ra, dec


def angle_between(u, v) -> np.ndarray:
    """Great-circle angle (radians) between unit vectors; atan2 of cross/dot
    magnitudes, stable near 0 and pi. Broadcasts."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    cross = np.cross(u, v)
    sin_a = np.sqrt(np.einsum("...i,...i->...", cross, cross))
    cos_a = np.einsum("...i,...i->...", u, v)
    return np.arctan2(sin_a, cos_a)


def row_dots(u, v) -> np.ndarray:
    """Dot product of each pair of rows (last axis) of u and v, bit for bit
    `u[i] @ v[i]`, so `np.sqrt(row_dots(u, u))` is `np.linalg.norm` of each
    row: a stack of 1xd @ dx1 products runs the same dot kernel as one
    row's; einsum does not."""
    return np.matmul(u[..., None, :], v[..., :, None])[..., 0, 0]


def chord_for_angle(theta_rad: float) -> float:
    """Euclidean chord length subtending a given angle on the unit sphere."""
    return 2.0 * np.sin(0.5 * theta_rad)


# ---------------------------------------------------------------------------
# regions

def _plane_dots(points, normal) -> np.ndarray:
    """(x*nx + y*ny) + z*nz for each point, elementwise in that fixed order,
    so a point's value does not depend on the other points of the call, as
    a BLAS product's rounding can."""
    p = np.asarray(points, dtype=np.float64)
    return (p[..., 0] * normal[0] + p[..., 1] * normal[1]) + p[..., 2] * normal[2]


@dataclass(frozen=True)
class Cone:
    """Spherical cap: all points within `radius` radians of `center`."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=np.float64)
        if c.shape != (3,) or abs(c @ c - 1.0) > 1e-9:
            raise ValidationError("cone center must be a 3-d unit vector")
        object.__setattr__(self, "center", c)
        if not 0.0 <= self.radius <= np.pi:
            raise ValidationError("cone radius must be in [0, pi]")

    def contains(self, points: np.ndarray) -> np.ndarray:
        return _plane_dots(points, self.center) >= np.cos(self.radius)


@dataclass(frozen=True)
class ConvexPolygon:
    """Intersection of halfspaces: p inside iff normal.p >= offset for all."""

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        n = np.atleast_2d(np.asarray(self.normals, dtype=np.float64))
        off = np.atleast_1d(np.asarray(self.offsets, dtype=np.float64))
        if n.shape[1] != 3 or len(n) != len(off) or len(n) == 0:
            raise ValidationError("polygon needs matching (K,3) normals and K offsets")
        if not (np.all(np.isfinite(n)) and np.all(np.isfinite(off))):
            raise ValidationError("halfspace normals and offsets must be finite")
        norms = np.linalg.norm(n, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValidationError("halfspace normals must be unit vectors")
        if np.any(np.abs(off) > 1.0):
            raise ValidationError("halfspace offsets must lie in [-1, 1]")
        object.__setattr__(self, "normals", n)
        object.__setattr__(self, "offsets", off)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Tested one halfspace at a time, each point on its own."""
        inside = np.ones(np.shape(points)[:-1], dtype=bool)
        for normal, offset in zip(self.normals, self.offsets):
            inside &= _plane_dots(points, normal) >= offset
        return inside


Region = Cone | ConvexPolygon


def cone_from_radec(ra_deg: float, dec_deg: float, radius_deg: float) -> Cone:
    return Cone(radec_to_unit(ra_deg, dec_deg), np.radians(radius_deg))


def load_polygon(path) -> ConvexPolygon:
    """Read a polygon file: one `nx ny nz offset` halfspace per line, four
    finite numbers, `#` comments."""
    normals, offsets = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            try:
                values = [float(x) for x in body.split()]
            except ValueError:
                values = []
            if len(values) != 4 or not all(map(math.isfinite, values)):
                raise ValidationError(f"{path}:{lineno}: expected 'nx ny nz offset', "
                                      f"four finite numbers, got {body!r}")
            normals.append(values[:3])
            offsets.append(values[3])
    return ConvexPolygon(np.asarray(normals), np.asarray(offsets))


# Outward margin (degrees) on every declination bound, far above the
# rounding of the bound itself: a bound that rounds onto a zone edge must not
# drop the zone below it.
DEC_BOUND_PAD = 1e-7
# The containment tests compare a dot product that rounds by a few 1e-16.
# Each cap's cosine is lowered by this much before arccos, so the bound holds
# every point such a test admits, which for a zero-radius cap is every point
# within about 1.5e-8 rad of its centre.
_DOT_SLACK = 1e-15


def region_dec_bounds(region: Region) -> tuple[float, float]:
    """[dec_min, dec_max] (degrees) holding every point `region.contains`
    admits, widened by DEC_BOUND_PAD and clipped to [-90, 90]; used for zone
    pre-filtering. dec_min > dec_max when the region is empty.

    A halfspace n.p >= o is a cap of radius arccos(o/|n|) around n/|n|, and
    the cap's points lie within that radius of its centre in declination. A
    cone is one such cap; a polygon's band is the intersection of its caps'
    bands. The bound is exact for RA/Dec boxes.
    """
    if isinstance(region, Cone):
        normals, offsets = region.center[None, :], np.cos([region.radius])
    else:
        normals, offsets = region.normals, region.offsets
    _, centre_dec = unit_to_radec(normals)
    r = _widened_radii(normals, offsets)
    return (max(-90.0, float(np.max(centre_dec - r)) - DEC_BOUND_PAD),
            min(90.0, float(np.min(centre_dec + r)) + DEC_BOUND_PAD))


def _widened_radii(normals, offsets) -> np.ndarray:
    """The radius (degrees) of each cap n.p >= o around n/|n|, arccos(o/|n|),
    with the cosine lowered by _DOT_SLACK first."""
    cos_r = offsets / np.sqrt(row_dots(normals, normals)) - _DOT_SLACK
    return np.degrees(np.arccos(np.clip(cos_r, -1.0, 1.0)))


def cone_ra_window(cone: Cone) -> tuple[float, float] | None:
    """(ra0, w) in degrees: every point `cone.contains` admits lies within w
    of ra0 in RA, the circular distance; None when the cap reaches a pole,
    where RA takes every value.

    The cap is widened as in `region_dec_bounds`, to radius r'. When
    |dec0| + r' < 90 - DEC_BOUND_PAD no pole is inside, and the cap's points
    lie within arcsin(sin r' / cos dec0) of its centre's RA. The sine ratio
    is raised by 1e-15, over its rounding, before the arcsin, whose slope is
    unbounded as the ratio nears 1; w is widened by DEC_BOUND_PAD.
    """
    ra0, dec0 = unit_to_radec(cone.center)
    r = float(_widened_radii(cone.center[None, :], np.cos([cone.radius]))[0])
    if abs(float(dec0)) + r >= 90.0 - DEC_BOUND_PAD:
        return None
    ratio = min(1.0, np.sin(np.radians(r)) / np.cos(np.radians(dec0)) + 1e-15)
    return float(ra0), float(np.degrees(np.arcsin(ratio))) + DEC_BOUND_PAD


def in_ra_window(ra, ra0: float, w: float) -> np.ndarray:
    """RA within w of ra0, circularly. An RA stored outside [0, 360), at
    ra0 + d + 360k with |d| <= w and k != 0, lies at least 360 - w from ra0,
    so it is kept too. The difference is made absolute in place: a second
    temporary as large as a whole zone band costs page faults."""
    d = np.subtract(ra, ra0)
    np.abs(d, out=d)
    return (d <= w) | (d >= 360.0 - w)


# ---------------------------------------------------------------------------
# zones

def n_zones(zone_height_deg: float) -> int:
    if zone_height_deg <= 0:
        raise ValidationError("zone_height must be > 0")
    return int(np.ceil(180.0 / zone_height_deg))

def zone_of(dec_deg, zone_height_deg: float) -> np.ndarray:
    """Constant-height declination band id: floor((dec+90)/height), with the
    north pole clamped into the last band."""
    nz = n_zones(zone_height_deg)
    dec = np.asarray(dec_deg, dtype=np.float64)
    if np.any(dec < -90.0) or np.any(dec > 90.0):
        raise ValidationError("dec outside [-90, 90]")
    z = np.floor((dec + 90.0) / zone_height_deg).astype(np.int64)
    return np.minimum(z, nz - 1)


# ---------------------------------------------------------------------------
# fixed-radius search on sorted cell keys
#
# Every fixed-radius question in the package (the master cross-match, the
# neighbors join, the trigger and mover pair generation) buckets unit vectors
# in cubic cells of a chosen edge, keyed by floor(v / edge) per axis, and
# takes as candidates the points in the 27 cells around each query. With
# edge >= the search chord, every point within the chord of a query is a
# candidate; the caller applies its own exact distance cut. This is the Zones
# design of Gray, Szalay et al. (arXiv cs/0408031), in 3-d. The cost is a
# sort of the keys and one of the queries, 9 column and 18 range binary
# searches per query, and the candidates, about 27 cells' worth per query.

# |v| <= 1 and edge >= 1e-9, so |key| <= 1e9 + 2 < 2^30: shifted keys fit in
# 31 bits and two of them in one int64.
_KEY_SHIFT = 1 << 30


def cell_keys(v: np.ndarray, edge: float) -> np.ndarray:
    """Integer cell key floor(v / edge) per axis of unit vectors v, (N, 3).
    `edge` must be at least 1e-9."""
    return np.floor(v / edge).astype(np.int64)


def _column_sort(keys: np.ndarray):
    """(distinct (x, y) columns in order, the rows in (x, y, z) order with
    ties in row order, their sorted codes rank(x, y) * 2^31 + z). A quicksort
    of the codes and a sort of (run of equal codes, row) numbers give the
    stable order in about half the time of a stable argsort."""
    col = (keys[:, 0] + _KEY_SHIFT) << 31 | (keys[:, 1] + _KEY_SHIFT)
    cols, rank = np.unique(col, return_inverse=True)
    code = rank.astype(np.int64) << 31 | (keys[:, 2] + _KEY_SHIFT)
    order = np.argsort(code)
    code = code[order]
    run = np.cumsum(np.concatenate(([0], code[1:] != code[:-1])))
    return cols, np.sort(run * len(keys) + order) % len(keys), code


def cell_pairs(keys: np.ndarray, query: np.ndarray):
    """(query row, key row) for every key within 1 cell of a query on every
    axis, i.e. the keys in the 27 cells around each query, by column offset
    (dx, dy), then query key, then key (x, y, z), ties by row.

    One `searchsorted` on the distinct key columns finds all 9 neighbouring
    columns of every query, and one pair of `searchsorted`s on the codes
    finds each column's z range [z-1, z+1].
    """
    if not len(keys) or not len(query):
        return np.empty(0, np.int64), np.empty(0, np.int64)
    cols, order, code = _column_sort(keys)
    qorder = _column_sort(query)[1]
    query = query[qorder]
    # needles (dx, dy, query): hits come out offset-major, each offset sorted
    d = np.arange(-1, 2) + _KEY_SHIFT
    c = ((query[:, 0] + d[:, None, None]) << 31 | (query[:, 1] + d[:, None])).ravel()
    r = np.minimum(np.searchsorted(cols, c), len(cols) - 1)
    hit = np.flatnonzero(cols[r] == c)
    q = hit % len(query)
    z = r[hit] << 31 | (query[q, 2] + _KEY_SHIFT)
    lo = np.searchsorted(code, z - 1)
    n = np.searchsorted(code, z + 1, side="right") - lo
    start = np.repeat(lo - (np.cumsum(n) - n), n)
    return qorder[np.repeat(q, n)], order[start + np.arange(n.sum())]


# ---------------------------------------------------------------------------
# neighbors join

def neighbors_join(ids, ra_deg, dec_deg, theta_max_arcsec: float):
    """Symmetric table of ordered pairs (a, b), a != b, separated by at most
    theta_max (closed boundary, in the chord metric). Duplicate positions
    pair at separation 0. The table is sorted by (id_a, id_b).

    Returns (structured array [id_a, id_b, separation_arcsec],
    distance_evaluations), the second being the number of candidate pairs
    whose distance was computed. Ids are unsigned 64-bit, as the store keeps
    det_id and master_id.
    """
    if theta_max_arcsec <= 0:
        raise ValidationError("theta_max must be > 0")
    ids = np.asarray(ids, dtype=np.uint64)
    unit = radec_to_unit(ra_deg, dec_deg)
    chord = chord_for_angle(np.radians(theta_max_arcsec / ARCSEC_PER_DEG))
    keys = cell_keys(unit, max(chord, 1e-9))
    q, t = cell_pairs(keys, keys)
    diff = unit[t] - unit[q]
    d2 = np.einsum("ij,ij->i", diff, diff)
    near = (d2 <= chord * chord) & (q != t)
    q, t = q[near], t[near]
    table = np.zeros(len(q), dtype=[("id_a", "<u8"), ("id_b", "<u8"),
                                    ("separation_arcsec", "<f8")])
    table["id_a"] = ids[q]
    table["id_b"] = ids[t]
    table["separation_arcsec"] = np.degrees(angle_between(unit[q], unit[t])) * ARCSEC_PER_DEG
    # repeated ids tie on (id_a, id_b); separation breaks those ties, so the
    # bytes do not depend on the order of cell_pairs' output
    order = np.lexsort((table["separation_arcsec"], table["id_b"], table["id_a"]))
    return table.take(order), len(d2)
