"""Partitioned detection store.

A store is a directory of fixed-width little-endian binary partition files
(`part-NNNN.det`) plus a `manifest.json` with counts, checksums, and index
summaries. Fixed 64-byte records keep sequential-scan rates meaningful and
make the format trivially seekable.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .errors import StoreIOError, ValidationError
from . import csvio, sphere

SCHEMA_VERSION = 1

DET_DTYPE = np.dtype([
    ("det_id", "<u8"),
    ("pass_id", "<u4"),
    ("mjd", "<f8"),
    ("ra", "<f8"),
    ("dec", "<f8"),
    ("flux", "<f4"),
    ("flux_err", "<f4"),
    ("flags", "<u4"),
    ("zone", "<u4"),
    ("master_id", "<u8"),
    ("pad", "<u4"),
])
RECORD_SIZE = DET_DTYPE.itemsize
assert RECORD_SIZE == 64

FIELD_NAMES = tuple(n for n in DET_DTYPE.names if n != "pad")
DET_CSV_FORMAT = "%d,%d,%.6f,%.9f,%.9f,%.6f,%.6f,%d,%d,%d"  # of FIELD_NAMES

MASTER_DTYPE = np.dtype([
    ("master_id", "<u8"),
    ("ra", "<f8"),
    ("dec", "<f8"),
    ("n_detections", "<u4"),
    ("mean_flux", "<f8"),
    ("flux_variance", "<f8"),
    ("first_mjd", "<f8"),
    ("last_mjd", "<f8"),
])
MASTER_CSV_FORMAT = "%d,%.9f,%.9f,%d,%.6f,%.6f,%.6f,%.6f"

MASTER_CLASSES = ("unclassified", "static", "variable", "transient",
                  "mover-candidate", "defect")


@dataclass
class PartitionInfo:
    name: str
    records: int
    crc32: int
    zone_histogram: dict = field(default_factory=dict)
    mjd_min: float | None = None
    mjd_max: float | None = None


@dataclass
class StoreManifest:
    schema_version: int = SCHEMA_VERSION
    record_size: int = RECORD_SIZE
    total_records: int = 0
    zone_height_deg: float | None = None
    partitions: list = field(default_factory=list)
    creation: dict = field(default_factory=dict)
    load_rate_bytes_per_s: float = 0.0
    index_overhead_fraction: float = 0.0

    def to_json(self) -> str:
        d = asdict(self)
        d["partitions"] = [asdict(p) for p in self.partitions]
        return json.dumps(d, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "StoreManifest":
        d = json.loads(text)
        parts = [PartitionInfo(**{**p, "zone_histogram": {int(k): v for k, v in p["zone_histogram"].items()}})
                 for p in d.pop("partitions")]
        m = cls(**d)
        m.partitions = parts
        return m


@dataclass
class ScanStats:
    bytes_read: int = 0
    records_scanned: int = 0
    records_matched: int = 0
    effective_rate: float = 0.0
    workers: int = 1


_MANIFEST = "manifest.json"


def read_manifest(store) -> StoreManifest:
    path = Path(store) / _MANIFEST
    try:
        return StoreManifest.from_json(path.read_text())
    except FileNotFoundError as exc:
        raise StoreIOError(f"no manifest at {path}") from exc


@contextlib.contextmanager
def _rewrite(store):
    """Replace whole files of a store together.

    `put(name, data)` writes `data` to a temp file beside `name`. When the
    block completes, each temp file is renamed over its target in the order
    it was put, so callers put `manifest.json` last. If the block raises, the
    temp files are removed and every file of the store is left as it was.
    A failure among the renames themselves can still leave a mix.
    """
    store = Path(store)
    staged = []

    def put(name: str, data: bytes) -> None:
        path, tmp = store / name, store / f".{name}.tmp"
        staged.append((tmp, path))
        try:
            with open(tmp, "wb") as f:
                f.write(data)
        except OSError as exc:
            raise StoreIOError(f"cannot write {path}: {exc}") from exc

    try:
        yield put
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise
    for tmp, path in staged:
        os.replace(tmp, path)


def _put_partition(put, info: PartitionInfo, records: np.ndarray) -> None:
    data = records.tobytes()
    put(info.name, data)
    info.records = len(records)
    info.crc32 = zlib.crc32(data)


def validate_records(records: np.ndarray) -> None:
    """Reject malformed input, reporting the first offending record ordinal."""
    if records.dtype != DET_DTYPE:
        raise ValidationError(f"records must use the {RECORD_SIZE}-byte detection layout")
    bad = np.flatnonzero(~(records["flux_err"] > 0))
    if len(bad):
        raise ValidationError(f"record {bad[0]}: flux_err must be > 0")
    bad = np.flatnonzero((records["dec"] < -90) | (records["dec"] > 90))
    if len(bad):
        raise ValidationError(f"record {bad[0]}: dec outside [-90, 90]")
    bad = np.flatnonzero(~np.isfinite(records["ra"]) | ~np.isfinite(records["mjd"]))
    if len(bad):
        raise ValidationError(f"record {bad[0]}: non-finite position or epoch")
    ids, counts = np.unique(records["det_id"], return_counts=True)
    if np.any(counts > 1):
        dup = ids[counts > 1][0]
        ordinal = np.flatnonzero(records["det_id"] == dup)[1]
        raise ValidationError(f"record {ordinal}: duplicate det_id {dup}")


def ingest_detections(records: np.ndarray, partition_count: int, out_dir) -> StoreManifest:
    """Distribute records round-robin (ordered by zone, then det_id) into
    fixed-width partition files and write the manifest."""
    if partition_count < 1:
        raise ValidationError("partition_count must be >= 1")
    records = np.asarray(records)
    validate_records(records)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StoreIOError(f"cannot create store at {out}: {exc}") from exc

    order = np.lexsort((records["det_id"], records["zone"]))
    ordered = records[order]
    manifest = StoreManifest(total_records=len(records),
                             creation={"partition_count": partition_count})
    with _rewrite(out) as put:
        t0 = time.perf_counter()
        for p in range(partition_count):
            info = PartitionInfo(name=f"part-{p:04d}.det", records=0, crc32=0)
            _put_partition(put, info, ordered[p::partition_count])
            manifest.partitions.append(info)
        wall = time.perf_counter() - t0
        manifest.load_rate_bytes_per_s = (len(records) * RECORD_SIZE / wall) if wall > 0 else 0.0
        put(_MANIFEST, manifest.to_json().encode())
    return manifest


def read_partition(store, info: PartitionInfo, verify: bool = False) -> np.ndarray:
    path = Path(store) / info.name
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise StoreIOError(f"cannot read {path}: {exc}") from exc
    if len(data) != info.records * RECORD_SIZE:
        raise StoreIOError(f"{path}: expected {info.records} records, "
                           f"got {len(data)} bytes")
    if verify and zlib.crc32(data) != info.crc32:
        raise StoreIOError(f"{path}: checksum mismatch")
    return np.frombuffer(data, dtype=DET_DTYPE)


def read_all(store, verify: bool = False) -> np.ndarray:
    manifest = read_manifest(store)
    parts = [read_partition(store, p, verify=verify) for p in manifest.partitions]
    if not parts:
        return np.empty(0, dtype=DET_DTYPE)
    return np.concatenate(parts)


def build_indexes(store, zone_height_deg: float) -> StoreManifest:
    """Populate the zone field of every record and write per-partition zone
    histograms and epoch ranges into the manifest."""
    if zone_height_deg <= 0:
        raise ValidationError("zone_height must be > 0")
    manifest = read_manifest(store)
    data_bytes = 0
    with _rewrite(store) as put:
        for info in manifest.partitions:
            recs = read_partition(store, info).copy()
            if len(recs):
                recs["zone"] = sphere.zone_of(recs["dec"], zone_height_deg)
                zones, counts = np.unique(recs["zone"], return_counts=True)
                info.zone_histogram = {int(z): int(c) for z, c in zip(zones, counts)}
                info.mjd_min = float(recs["mjd"].min())
                info.mjd_max = float(recs["mjd"].max())
            else:
                info.zone_histogram = {}
                info.mjd_min = info.mjd_max = None
            _put_partition(put, info, recs)
            data_bytes += len(recs) * RECORD_SIZE
        manifest.zone_height_deg = zone_height_deg
        index_bytes = len(json.dumps([asdict(p) for p in manifest.partitions]))
        manifest.index_overhead_fraction = index_bytes / data_bytes if data_bytes else 0.0
        put(_MANIFEST, manifest.to_json().encode())
    return manifest


# ---------------------------------------------------------------------------
# predicates

_OPS = {
    "<=": np.less_equal,
    ">=": np.greater_equal,
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    ">": np.greater,
}


def _literal(name: str, text: str) -> int | float:
    if DET_DTYPE[name].kind == "u":
        try:
            return int(text)
        except ValueError:
            pass
    return float(text)


class Predicate:
    """Conjunction of comparisons over detection fields, e.g.
    'flux>10 and pass_id<=25'; 'and' is matched in any case. 'true' and
    'false' are accepted literals. An integer literal on an integer field
    compares exactly (det_id values above 2^53 included); every other
    literal compares as float64."""

    def __init__(self, text: str):
        self.text = text.strip()
        self.clauses: list[tuple[str, str, int | float]] = []
        self.constant: bool | None = None
        body = self.text.lower()
        if body in ("true", ""):
            self.constant = True
            return
        if body == "false":
            self.constant = False
            return
        for term in re.split(r"\s+and\s+", self.text, flags=re.IGNORECASE):
            term = term.strip()
            for op in ("<=", ">=", "==", "!=", "<", ">"):
                if op in term:
                    name, _, value = term.partition(op)
                    name = name.strip()
                    if name not in FIELD_NAMES:
                        raise ValidationError(f"unknown field {name!r} in predicate")
                    try:
                        self.clauses.append((name, op, _literal(name, value)))
                    except ValueError as exc:
                        raise ValidationError(f"bad comparison value in {term!r}") from exc
                    break
            else:
                raise ValidationError(f"cannot parse predicate term {term!r}")

    def mask(self, records: np.ndarray) -> np.ndarray:
        if self.constant is not None:
            return np.full(len(records), self.constant, dtype=bool)
        m = np.ones(len(records), dtype=bool)
        for name, op, value in self.clauses:
            m &= _OPS[op](records[name], value)
        return m


# ---------------------------------------------------------------------------
# parallel sequential scan

def _scan_partition(store, info, predicate, region, zone_range):
    recs = read_partition(store, info)
    mask = predicate.mask(recs)
    if region is not None:
        cand = mask.copy()
        if zone_range is not None:
            z_lo, z_hi = zone_range
            cand &= (recs["zone"] >= z_lo) & (recs["zone"] <= z_hi)
        rows = np.flatnonzero(cand)
        if len(rows):
            unit = sphere.radec_to_unit(recs["ra"][rows], recs["dec"][rows])
            inside = region.contains(unit)
            mask = np.zeros(len(recs), dtype=bool)
            mask[rows[inside]] = True
        else:
            mask = np.zeros(len(recs), dtype=bool)
    return recs[mask], len(recs)


def scan(store, predicate: Predicate | str, region=None, workers: int = 1):
    """Full sequential scan with predicate pushdown and optional region
    filter. Results are ordered by (partition, offset) so the output is
    identical regardless of worker count.
    """
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    if isinstance(predicate, str):
        predicate = Predicate(predicate)
    manifest = read_manifest(store)
    zone_range = None
    if region is not None and manifest.zone_height_deg:
        dec_lo, dec_hi = sphere.region_dec_bounds(region)
        zone_range = (int(sphere.zone_of(dec_lo, manifest.zone_height_deg)),
                      int(sphere.zone_of(dec_hi, manifest.zone_height_deg)))
    t0 = time.perf_counter()
    if workers == 1:
        results = [_scan_partition(store, info, predicate, region, zone_range)
                   for info in manifest.partitions]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_scan_partition, store, info, predicate,
                                   region, zone_range)
                       for info in manifest.partitions]
            results = [f.result() for f in futures]
    wall = time.perf_counter() - t0
    matched = (np.concatenate([r for r, _ in results])
               if results else np.empty(0, dtype=DET_DTYPE))
    scanned = sum(n for _, n in results)
    stats = ScanStats(
        bytes_read=scanned * RECORD_SIZE,
        records_scanned=scanned,
        records_matched=len(matched),
        effective_rate=(scanned * RECORD_SIZE / wall) if wall > 0 else 0.0,
        workers=workers,
    )
    return matched, stats


# ---------------------------------------------------------------------------
# master/summary cross-match
#
# The rule: detections in (pass_id, mjd, det_id) order either join the nearest
# master within the match chord (the lowest master index among those within
# 1e-9 of the nearest distance) or found a new master. A master's position is
# the normalized sum of its member unit vectors; a new master sits at its first
# detection. Candidates are the masters in the 27 cells around a detection,
# with cells of edge max(chord, 1e-9) keyed by floor(v / edge) per axis, found
# by the sorted cell-key search of `sphere.cell_pairs`.
#
# Each pass is matched as one batch against the master positions frozen at
# its start. Within a pass, a detection e can change what another detection
# d sees only by founding a master in d's 27 cells or by moving one into or
# out of them. e founds at its own cell. e joins a master in its own 27
# cells and pulls it along the arc toward e, so the master ends within
# sqrt(best) + 1e-9 <= 2 * edge of e: within 3 cells of e's key, allowing
# for floor() rounding. So e and d can interact only if their keys are
# within 1 + 3 = 4 cells on every axis (Chebyshev distance), and only then
# can both join one master. Detections with another detection of the pass
# within 4 cells form the conflict set and run the rule one at a time, in
# order, against the current state; the others are independent of each
# other and of the conflict set.

_CONFLICT_CELLS = 4
_NO_MASTER = np.iinfo(np.int64).max


def _master_state(size: int) -> dict:
    """Columns of the masters being built, with room for `size` of them."""
    return {
        "sum": np.zeros((size, 3)),                # unnormalized member sum
        "pos": np.zeros((size, 3)),                # position the matcher sees
        "key": np.zeros((size, 3), dtype=np.int64),  # cell key of pos
        "n": np.zeros(size, dtype=np.int64),
        "flux_sum": np.zeros(size),
        "flux_sq": np.zeros(size),
        "first": np.zeros(size),
        "last": np.zeros(size),
    }


def _near_pairs(keys: np.ndarray):
    """(later row, earlier row) for every two rows whose keys are within
    _CONFLICT_CELLS cells on every axis. Such rows sit in the same or
    adjacent coarse cells of 4 cells' edge."""
    q, t = sphere.cell_pairs(keys >> 2, keys >> 2)
    near = (t < q) & (np.abs(keys[q] - keys[t]).max(axis=1) <= _CONFLICT_CELLS)
    return q[near], t[near]


def _nearest(pos: np.ndarray, v: np.ndarray, q: np.ndarray, t: np.ndarray,
             chord: float) -> np.ndarray:
    """The master the rule picks for each row of v among its candidate pairs
    (q, t): the lowest index within 1e-9 of the nearest distance, or -1
    when the nearest lies beyond the chord."""
    diff = pos[t] - v[q]
    d2 = np.einsum("ij,ij->i", diff, diff)
    best = np.full(len(v), np.inf)
    np.minimum.at(best, q, d2)
    tie = np.sqrt(d2) <= np.sqrt(best[q]) + 1e-9
    pick = np.full(len(v), _NO_MASTER)
    np.minimum.at(pick, q[tie], t[tie])
    return np.where(best <= chord * chord, pick, -1)


def _found(state, ids, v, flux, mjd, edge):
    """Start the masters `ids` at one detection each. 0.0 + flux keeps the
    sign of a running sum that starts at 0.0 (-0.0 becomes 0.0)."""
    state["sum"][ids] = v
    state["pos"][ids] = v
    state["key"][ids] = sphere.cell_keys(v, edge)
    state["n"][ids] = 1
    state["flux_sum"][ids] = 0.0 + flux
    state["flux_sq"][ids] = 0.0 + flux * flux
    state["first"][ids] = mjd
    state["last"][ids] = mjd


def _join(state, ids, v, flux, mjd, edge):
    """Add one detection to each of the distinct masters `ids`."""
    s = state["sum"][ids] + v
    pos = s / np.sqrt(sphere.row_dots(s, s))[:, None]
    state["sum"][ids] = s
    state["pos"][ids] = pos
    state["key"][ids] = sphere.cell_keys(pos, edge)
    state["n"][ids] += 1
    state["flux_sum"][ids] += flux
    state["flux_sq"][ids] += flux * flux
    state["first"][ids] = np.minimum(state["first"][ids], mjd)
    state["last"][ids] = np.maximum(state["last"][ids], mjd)


def build_master(store, match_radius_arcsec: float):
    """Cross-match detections into masters, one pass at a time (the rule and
    the batching are described above).

    Writes `masters.csv` into the store, assigns `master_id` on every record,
    and returns the master table as a structured array.
    """
    if match_radius_arcsec <= 0:
        raise ValidationError("match_radius must be > 0")
    records = read_all(store)
    manifest = read_manifest(store)
    order = np.lexsort((records["det_id"], records["mjd"], records["pass_id"]))
    unit = sphere.radec_to_unit(records["ra"], records["dec"])
    radius_rad = np.radians(match_radius_arcsec / sphere.ARCSEC_PER_DEG)
    chord = sphere.chord_for_angle(radius_rad)
    edge = max(chord, 1e-9)
    keys = sphere.cell_keys(unit, edge)
    flux = records["flux"].astype(np.float64)
    mjd = records["mjd"]

    state = _master_state(0)
    n_masters = 0
    assignment = np.zeros(len(records), dtype=np.uint64)
    bounds = np.flatnonzero(np.diff(records["pass_id"][order])) + 1
    for rows in np.split(order, bounds):
        if len(state["n"]) < n_masters + len(rows):
            grown = _master_state(max(2 * len(state["n"]), n_masters + len(rows)))
            for name, col in grown.items():
                col[:n_masters] = state[name][:n_masters]
            state = grown
        v, k, pflux, pmjd = unit[rows], keys[rows], flux[rows], mjd[rows]
        q, t = sphere.cell_pairs(state["key"][:n_masters], k)
        match = _nearest(state["pos"], v, q, t, chord)
        later, earlier = _near_pairs(k)
        conflict = np.zeros(len(rows), dtype=bool)
        conflict[later] = conflict[earlier] = True
        founded = (match < 0) & ~conflict
        joined = (match >= 0) & ~conflict

        # The conflict set runs first, in order. A row's candidates are its
        # frozen ones plus the masters its earlier conflict neighbours
        # founded or moved (nothing else near it changed), at their current
        # cells. A new master's index counts every master founded earlier
        # in the pass, the batch's founders included.
        sel = np.flatnonzero(conflict[q])
        sel = sel[np.argsort(q[sel], kind="stable")]
        fq, ft = q[sel], t[sel]
        sel = np.argsort(later, kind="stable")
        nl, ne = later[sel], earlier[sel]
        idx = np.flatnonzero(conflict)
        spans = zip(idx.tolist(),
                     np.searchsorted(fq, idx).tolist(), np.searchsorted(fq, idx, "right").tolist(),
                     np.searchsorted(nl, idx).tolist(), np.searchsorted(nl, idx, "right").tolist())
        founded_before = np.cumsum(founded)
        conflict_founded = np.zeros(len(rows), dtype=bool)
        n_new = 0
        for i, f_lo, f_hi, n_lo, n_hi in spans:
            cand = np.concatenate((ft[f_lo:f_hi], match[ne[n_lo:n_hi]]))
            cand = cand[(np.abs(state["key"][cand] - k[i]) <= 1).all(axis=1)]
            one = slice(i, i + 1)
            m = _nearest(state["pos"], v[one], np.zeros(len(cand), np.int64), cand, chord)[0]
            if m < 0:
                m = n_masters + founded_before[i] + n_new
                n_new += 1
                conflict_founded[i] = True
                _found(state, np.array([m]), v[one], pflux[one], pmjd[one], edge)
            else:
                _join(state, np.array([m]), v[one], pflux[one], pmjd[one], edge)
            match[i] = m

        ids = n_masters + np.cumsum(founded | conflict_founded) - 1
        match[founded] = ids[founded]
        _found(state, match[founded], v[founded], pflux[founded], pmjd[founded], edge)
        _join(state, match[joined], v[joined], pflux[joined], pmjd[joined], edge)
        n_masters += int(np.count_nonzero(founded)) + n_new
        assignment[rows] = match + 1  # master_id 0 means unassigned

    st = {name: col[:n_masters] for name, col in state.items()}
    norm = np.sqrt(sphere.row_dots(st["sum"], st["sum"]))
    ra, dec = sphere.unit_to_radec(st["sum"] / norm[:, None])
    n = st["n"].astype(np.float64)
    mean = st["flux_sum"] / n
    masters = np.zeros(n_masters, dtype=MASTER_DTYPE)
    masters["master_id"] = np.arange(1, n_masters + 1)
    masters["ra"] = ra
    masters["dec"] = dec
    masters["n_detections"] = st["n"]
    masters["mean_flux"] = mean
    masters["flux_variance"] = np.maximum(st["flux_sq"] / n - mean ** 2, 0.0)
    masters["first_mjd"] = st["first"]
    masters["last_mjd"] = st["last"]

    records["master_id"] = assignment
    with _rewrite(store) as put:
        offset = 0
        for info in manifest.partitions:
            _put_partition(put, info, records[offset:offset + info.records])
            offset += info.records
        put("masters.csv", _masters_csv(masters))
        put(_MANIFEST, manifest.to_json().encode())
    return masters, assignment


def _masters_csv(masters: np.ndarray) -> bytes:
    return csvio.text(",".join(MASTER_DTYPE.names), MASTER_CSV_FORMAT, masters).encode()


def read_masters(store) -> np.ndarray:
    path = Path(store) / "masters.csv"
    try:
        return csvio.read(path.read_text(), MASTER_DTYPE)
    except OSError as exc:
        raise StoreIOError(f"no master table at {path}; run the cross-match first") from exc
    except (ValidationError, UnicodeDecodeError) as exc:
        raise StoreIOError(f"{path}: {exc}") from exc


def records_from_csv(text: str) -> np.ndarray:
    """Parse detection CSV with the header `records_to_csv_lines` writes.
    Errors name the ordinal of the first bad record."""
    return csvio.read(text, DET_DTYPE, FIELD_NAMES)


def records_to_csv_lines(records: np.ndarray):
    """Detection records as CSV lines: the header, then blocks of rows
    (`csvio.blocks`), so `"\\n".join` of them is the CSV text."""
    return csvio.blocks(",".join(FIELD_NAMES), DET_CSV_FORMAT, records[list(FIELD_NAMES)])
