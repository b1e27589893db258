"""Spherical geometry and spatial search: unit-vector coordinates, cone and
convex-polygon regions, declination zones, the fixed-radius search on sorted
cell keys that every radius query in the package uses, and the symmetric
fixed-radius neighbors join built on it.

All internal geometry lives in unit-vector space to avoid pole/RA-wrap
singularities; angles cross the API boundary in degrees or arcseconds.
"""

from __future__ import annotations

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


def angular_distance(ra1, dec1, ra2, dec2) -> float:
    """Great-circle angle (radians) between two RA/Dec positions (degrees)."""
    return float(angle_between(radec_to_unit(ra1, dec1), radec_to_unit(ra2, dec2)))


def chord_for_angle(theta_rad: float) -> float:
    """Euclidean chord length subtending a given angle on the unit sphere."""
    return 2.0 * np.sin(0.5 * theta_rad)


# ---------------------------------------------------------------------------
# regions

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
        return points @ self.center >= np.cos(self.radius)


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
        norms = np.linalg.norm(n, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValidationError("halfspace normals must be unit vectors")
        if np.any(np.abs(off) > 1.0):
            raise ValidationError("halfspace offsets must lie in [-1, 1]")
        object.__setattr__(self, "normals", n)
        object.__setattr__(self, "offsets", off)

    def contains(self, points: np.ndarray) -> np.ndarray:
        return np.all(points @ self.normals.T >= self.offsets, axis=-1)


Region = Cone | ConvexPolygon


def cone_from_radec(ra_deg: float, dec_deg: float, radius_deg: float) -> Cone:
    return Cone(radec_to_unit(ra_deg, dec_deg), np.radians(radius_deg))


def load_polygon(path) -> ConvexPolygon:
    """Read a polygon file: one `nx ny nz offset` halfspace per line,
    `#` comments."""
    normals, offsets = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 4:
                raise ValidationError(f"{path}:{lineno}: expected 'nx ny nz offset'")
            normals.append([float(x) for x in parts[:3]])
            offsets.append(float(parts[3]))
    return ConvexPolygon(np.asarray(normals), np.asarray(offsets))


def region_dec_bounds(region: Region) -> tuple[float, float]:
    """Conservative [dec_min, dec_max] (degrees) containing the region; used
    for zone pre-filtering."""
    if isinstance(region, Cone):
        _, dec = unit_to_radec(region.center)
        r = np.degrees(region.radius)
        return max(-90.0, float(dec) - r), min(90.0, float(dec) + r)
    return -90.0, 90.0


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
# design of Gray, Szalay et al. (arXiv cs/0408031), in 3-d. The cost is one
# sort of the keys, 9 column and 18 range binary searches per query, and
# the candidates themselves, about 27 cells' worth of points per query.

# |v| <= 1 and edge >= 1e-9, so |key| <= 1e9 + 2 < 2^30: shifted keys fit in
# 31 bits and two of them in one int64.
_KEY_SHIFT = 1 << 30


def cell_keys(v: np.ndarray, edge: float) -> np.ndarray:
    """Integer cell key floor(v / edge) per axis of unit vectors v, (N, 3).
    `edge` must be at least 1e-9."""
    return np.floor(v / edge).astype(np.int64)


def cell_pairs(keys: np.ndarray, query: np.ndarray):
    """(query row, key row) for every key within 1 cell of a query on every
    axis, i.e. the keys in the 27 cells around each query.

    Keys are sorted by (x, y) column, then z. Each of the 9 neighbouring
    columns of a query is found by `searchsorted` on the distinct columns,
    and its z range [z-1, z+1] by `searchsorted` on codes rank(x, y) * 2^31 + z.
    """
    if not len(keys) or not len(query):
        return np.empty(0, np.int64), np.empty(0, np.int64)
    col = (keys[:, 0] + _KEY_SHIFT) << 31 | (keys[:, 1] + _KEY_SHIFT)
    order = np.lexsort((keys[:, 2], col))
    cols, rank = np.unique(col[order], return_inverse=True)
    code = rank.astype(np.int64) << 31 | (keys[order, 2] + _KEY_SHIFT)
    # queries in key order make every search below run on sorted needles
    qorder = np.lexsort((query[:, 2], query[:, 1], query[:, 0]))
    query = query[qorder]
    qs, los, his = [], [], []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            c = (query[:, 0] + (dx + _KEY_SHIFT)) << 31 | (query[:, 1] + (dy + _KEY_SHIFT))
            r = np.minimum(np.searchsorted(cols, c), len(cols) - 1)
            q = np.flatnonzero(cols[r] == c)
            z = r[q].astype(np.int64) << 31 | (query[q, 2] + _KEY_SHIFT)
            qs.append(q)
            los.append(np.searchsorted(code, z - 1))
            his.append(np.searchsorted(code, z + 1, side="right"))
    q, lo, hi = (np.concatenate(a) for a in (qs, los, his))
    n = hi - lo
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
    return np.sort(table, order=["id_a", "id_b"]), len(d2)
