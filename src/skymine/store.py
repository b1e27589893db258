"""Partitioned detection store.

A store is a directory of fixed-width little-endian binary partition files
(`part-NNNN.det`) plus a `manifest.json` with each partition's record count,
CRC-32 and per-zone record counts. Fixed 64-byte records keep
sequential-scan rates meaningful and make the format trivially seekable.
An indexed store keeps each partition in (zone, ordinal) order, so the
records of a run of zones are one byte range of the file.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import StoreIOError, ValidationError
from . import csvio, sphere

SCHEMA_VERSION = 3

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
    ("ordinal", "<u4"),  # position in the partition as `ingest` wrote it
])
RECORD_SIZE = DET_DTYPE.itemsize
assert RECORD_SIZE == 64
# The fields fill all 64 bytes with no unnamed gaps, so a record is exactly
# its 64 bytes: `take` on records, and copies of this whole-row view, move
# the same bytes that field-by-field indexing copies, in far fewer steps
# (numpy copies a structured dtype one field at a time).
_ROW = np.dtype((np.void, RECORD_SIZE))
assert sum(DET_DTYPE[name].itemsize for name in DET_DTYPE.names) == RECORD_SIZE

FIELD_NAMES = tuple(n for n in DET_DTYPE.names if n != "ordinal")
# `ordinal` is a u4, so a partition holds at most 2^32 records
MAX_PARTITION_RECORDS = 2 ** 32
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


@dataclass
class PartitionInfo:
    name: str
    records: int
    crc32: int
    zone_first: int = 0  # the zone that zone_counts[0] counts
    zone_counts: list = field(default_factory=list)  # records per zone from zone_first


@dataclass
class StoreManifest:
    schema_version: int = SCHEMA_VERSION
    record_size: int = RECORD_SIZE
    total_records: int = 0
    zone_height_deg: float | None = None
    partitions: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(dict(_fields(self), partitions=[_fields(p) for p in self.partitions]),
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "StoreManifest":
        """Parse a manifest and check it. A fault is a ValueError that says
        what is wrong."""
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not valid JSON ({exc})") from exc
        if not isinstance(d, dict):
            raise ValueError("not a JSON object")
        version = d.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(f"schema version {version!r}, expected {SCHEMA_VERSION}")
        _check_keys(d, cls, "")
        if d["record_size"] != RECORD_SIZE:
            raise ValueError(f"record_size {d['record_size']!r}, expected {RECORD_SIZE}")
        height = d["zone_height_deg"]
        if height is not None and not (type(height) in (int, float) and 0 < height < np.inf):
            raise ValueError(f"zone_height_deg {height!r} is not a positive number")
        if not isinstance(d["partitions"], list):
            raise ValueError("partitions is not a list")
        m = cls(**d)
        m.partitions = [_partition(p, i, height is not None) for i, p in enumerate(d["partitions"])]
        if len({p.name for p in m.partitions}) != len(m.partitions):
            raise ValueError("two partitions name one file")
        total = sum(p.records for p in m.partitions)
        if not (_is_count(m.total_records) and m.total_records == total):
            raise ValueError(f"total_records {m.total_records!r}, "
                             f"but the partitions hold {total}")
        return m


def _fields(obj) -> dict:
    """A dataclass's fields as a plain dict, the values not copied."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _check_keys(d: dict, cls, where: str) -> None:
    """`d` has exactly the fields of `cls` as keys. `where` starts each
    message."""
    names = [f.name for f in fields(cls)]
    for key in d:
        if key not in names:
            raise ValueError(f"{where}unknown key {key!r}")
    for key in names:
        if key not in d:
            raise ValueError(f"{where}missing key {key!r}")


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _partition(d, i: int, zoned: bool) -> PartitionInfo:
    """The checked PartitionInfo of partition `i`'s JSON object. On a zoned
    store its zone counts must sum to its records; otherwise there are
    none."""
    what = f"partition {i}"
    if not isinstance(d, dict):
        raise ValueError(f"{what} is not a JSON object")
    _check_keys(d, PartitionInfo, what + ": ")
    if not (isinstance(d["name"], str) and re.fullmatch(r"part-\d{4,}\.det", d["name"])):
        raise ValueError(f"{what}: bad file name {d['name']!r}")
    for key in ("records", "crc32", "zone_first"):
        if not _is_count(d[key]):
            raise ValueError(f"{what}: {key} {d[key]!r} is not a non-negative integer")
    counts = d["zone_counts"]
    if not (isinstance(counts, list) and set(map(type, counts)) <= {int}
            and min(counts, default=0) >= 0):
        raise ValueError(f"{what}: zone_counts is not a list of non-negative integers")
    if zoned and sum(counts) != d["records"]:
        raise ValueError(f"{what}: zone_counts sum to {sum(counts)}, "
                         f"but it holds {d['records']} records")
    if not zoned and counts:
        raise ValueError(f"{what}: zone_counts on a store without zones")
    return PartitionInfo(**d)


@dataclass
class ScanStats:
    bytes_read: int = 0
    records_scanned: int = 0
    records_matched: int = 0
    effective_rate: float = 0.0
    workers: int = 1


_MANIFEST = "manifest.json"


def read_manifest(store) -> StoreManifest:
    """The store's manifest, checked by `StoreManifest.from_json`. A missing,
    damaged or foreign manifest is a StoreIOError that names the file."""
    path = Path(store) / _MANIFEST
    try:
        return StoreManifest.from_json(path.read_text())
    except FileNotFoundError as exc:
        raise StoreIOError(f"no manifest at {path}") from exc
    except ValueError as exc:  # a failed check, bad JSON or bad UTF-8
        raise StoreIOError(f"{path}: {exc}") from exc


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
    data = memoryview(np.ascontiguousarray(records).view(np.uint8))  # a copy only if strided
    put(info.name, data)
    info.records = len(records)
    info.crc32 = zlib.crc32(data)


def join_records(parts) -> np.ndarray:
    """The detection records of `parts`, end to end, copied as whole rows."""
    if not parts:
        return np.empty(0, dtype=DET_DTYPE)
    return np.concatenate([p.view(_ROW) for p in parts]).view(DET_DTYPE)


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
    fixed-width partition files and write the manifest. Each record's
    `ordinal` is set to its position in its partition, so the partitions are
    in ordinal order until `build_indexes` sorts them by zone. Input that
    would put more than MAX_PARTITION_RECORDS records in one partition is
    refused."""
    if partition_count < 1:
        raise ValidationError("partition_count must be >= 1")
    records = np.asarray(records)
    largest = -(-len(records) // partition_count)
    if largest > MAX_PARTITION_RECORDS:
        raise ValidationError(f"a partition would hold {largest} records, more than 2^32; "
                              f"use more partitions")
    validate_records(records)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StoreIOError(f"cannot create store at {out}: {exc}") from exc

    ordered = records.take(np.lexsort((records["det_id"], records["zone"])))
    ordered["ordinal"] = np.arange(len(ordered)) // partition_count
    ordered = ordered.view(_ROW)
    manifest = StoreManifest(total_records=len(records))
    with _rewrite(out) as put:
        for p in range(partition_count):
            info = PartitionInfo(name=f"part-{p:04d}.det", records=0, crc32=0)
            _put_partition(put, info, ordered[p::partition_count])
            manifest.partitions.append(info)
        put(_MANIFEST, manifest.to_json().encode())
    return manifest


def _read_into(store, info: PartitionInfo, out: np.ndarray, verify: bool = False,
               start: int = 0) -> None:
    """Fill `out` with the partition's records from record `start` on, by
    `readinto` calls until it is full. One read() returns at most about
    2 GiB on Linux, so a large range takes several. A file that does not hold
    exactly `info.records` records, or one that ends before `out` is full,
    is an error. `verify` checks the CRC of a whole partition."""
    path = Path(store) / info.name
    buf = memoryview(out.view(np.uint8))
    size_wanted = info.records * RECORD_SIZE
    got = 0
    try:
        with open(path, "rb", buffering=0) as f:
            size = os.fstat(f.fileno()).st_size
            if size == size_wanted and start:
                f.seek(start * RECORD_SIZE)
            while size == size_wanted and got < buf.nbytes:
                k = f.readinto(buf[got:])
                if not k:
                    break
                got += k
    except OSError as exc:
        raise StoreIOError(f"cannot read {path}: {exc}") from exc
    if size != size_wanted:
        raise StoreIOError(f"{path}: expected {info.records} records, "
                           f"got {size} bytes")
    if got != buf.nbytes:
        raise StoreIOError(f"{path}: short read, {got} of {buf.nbytes} bytes")
    if verify and zlib.crc32(buf) != info.crc32:
        raise StoreIOError(f"{path}: checksum mismatch")


def read_partition(store, info: PartitionInfo, verify: bool = False) -> np.ndarray:
    """The partition's records as stored: in (zone, ordinal) order on an
    indexed store, in ordinal order otherwise."""
    out = np.empty(info.records, dtype=DET_DTYPE)
    _read_into(store, info, out, verify)
    return out


def _ordinal_order(recs: np.ndarray, path) -> np.ndarray:
    """The positions of a whole partition's records in `ordinal` order.
    Ordinals that are not a permutation of 0..n-1 are a StoreIOError naming
    the partition's file: n ordinals below n fill every slot only if no two
    are equal."""
    n = len(recs)
    ordinal = recs["ordinal"].astype(np.intp)  # contiguous: scatters twice as fast
    inv = np.full(n, -1, dtype=np.intp)
    if n and ordinal.max() < n:
        inv[ordinal] = np.arange(n)
    if n and inv.min() < 0:
        raise StoreIOError(f"{path}: record ordinals are not 0..{n - 1}")
    return inv


def _gather(recs: np.ndarray, positions: np.ndarray, out=None) -> np.ndarray:
    """`recs.take(positions)`, into `out` if given, for positions known to be
    in range: mode "clip" skips numpy's bounds check, which costs as much as
    the copy of 64-byte rows itself."""
    rows = np.take(recs.view(_ROW), positions, mode="clip",
                   out=None if out is None else out.view(_ROW))
    return rows.view(DET_DTYPE)


def _by_ordinal(recs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """`rows` of a partition in `ordinal` order. Rows and ordinals are below
    2^32, so one sort of (ordinal << 32 | row) orders them."""
    key = recs["ordinal"][rows].astype(np.uint64) << np.uint64(32) | rows.astype(np.uint64)
    return (np.sort(key) & np.uint64(0xFFFFFFFF)).astype(np.intp)


def _map(workers: int, fn, *iterables) -> list:
    """`fn` over the zipped iterables, in order, on `workers` threads; on
    the calling thread when `workers` is 1 or less."""
    if workers <= 1:
        return [fn(*args) for args in zip(*iterables)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *iterables))


def _read_partitions(store, partitions, workers: int = 1, verify: bool = False,
                     zoned: bool = False) -> np.ndarray:
    """Every record of `partitions`, each partition read straight into its
    rows of one array; with `zoned` set, each is read whole and put into
    ordinal order there."""
    ends = np.cumsum([0] + [p.records for p in partitions]).tolist()
    out = np.empty(ends[-1], dtype=DET_DTYPE)

    def read(info, lo, hi):
        if not zoned:
            _read_into(store, info, out[lo:hi], verify)
            return
        recs = read_partition(store, info, verify)
        _gather(recs, _ordinal_order(recs, Path(store) / info.name), out[lo:hi])

    _map(workers, read, partitions, ends[:-1], ends[1:])
    return out


def read_all(store, verify: bool = False) -> np.ndarray:
    """Every record of the store, partition by partition, each in ordinal
    order."""
    manifest = read_manifest(store)
    return _read_partitions(store, manifest.partitions, verify=verify,
                            zoned=manifest.zone_height_deg is not None)


def _zone_order(zone: np.ndarray, zone_first: int) -> np.ndarray:
    """The positions of a partition's records in zone order, ties kept in
    their given order: one stable argsort of zone - zone_first, in the
    smallest unsigned dtype that holds the span, which numpy sorts by radix
    sort when that is 8 or 16 bits."""
    key = zone.astype(np.int64, copy=False) - zone_first
    return np.argsort(key.astype(np.min_scalar_type(key.max(initial=0))), kind="stable")


def build_indexes(store, zone_height_deg: float) -> StoreManifest:
    """Set the zone field of every record, rewrite each partition in
    (zone, ordinal) order and write its per-zone record counts into the
    manifest. The counts' running sums are the zones' record offsets."""
    if sphere.n_zones(zone_height_deg) > 2 ** 32:  # a zone id is a <u4
        raise ValidationError(f"zone_height {zone_height_deg} deg makes more than 2^32 zones")
    manifest = read_manifest(store)
    zoned = manifest.zone_height_deg is not None
    with _rewrite(store) as put:
        for info in manifest.partitions:
            recs = read_partition(store, info)
            zone = sphere.zone_of(recs["dec"], zone_height_deg)
            recs["zone"] = zone
            info.zone_first = int(zone.min()) if len(zone) else 0
            info.zone_counts = np.bincount(zone - info.zone_first).tolist()
            if zoned:  # in the old zones' order: sort the ordinal order instead
                in_order = _ordinal_order(recs, Path(store) / info.name)
                order = in_order[_zone_order(zone[in_order], info.zone_first)]
            else:
                order = _zone_order(zone, info.zone_first)
            _put_partition(put, info, _gather(recs, order))
        manifest.zone_height_deg = zone_height_deg
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
    literal compares as float64. A NaN literal is refused; inf is a
    literal like any other."""

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
                        value = _literal(name, value)
                    except ValueError as exc:
                        raise ValidationError(f"bad comparison value in {term!r}") from exc
                    if value != value:  # NaN: every comparison but != is false
                        raise ValidationError(f"NaN comparison value in {term!r}")
                    self.clauses.append((name, op, value))
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

def _zone_rows(info: PartitionInfo, z_lo: int, z_hi: int) -> tuple[int, int]:
    """[start, stop): the records of zones z_lo..z_hi in a zone-ordered
    partition, from the running sums of its zone counts; empty when
    z_lo > z_hi."""
    a = min(max(z_lo - info.zone_first, 0), len(info.zone_counts))
    b = max(min(z_hi - info.zone_first + 1, len(info.zone_counts)), a)
    start = sum(info.zone_counts[:a])
    return start, start + sum(info.zone_counts[a:b])


# The most records one region-scan batch reads into one array (16 MiB).
_BATCH_ROWS = 2 ** 18


def _band_batches(partitions, z_lo: int, z_hi: int) -> list:
    """Each partition's band of zones z_lo..z_hi, [start, stop), and the
    range [lo, hi) that adds the record on each side of it, as (info, lo,
    start, stop, hi). They are grouped into batches of consecutive
    partitions whose ranges total at most _BATCH_ROWS records; a larger range
    is a batch of its own. A batch holds at most 2^32 / _BATCH_ROWS
    partitions, so (partition, ordinal, row) fits one uint64 sort key."""
    batches, rows = [], 0
    for info in partitions:
        start, stop = _zone_rows(info, z_lo, z_hi)
        lo, hi = max(start - 1, 0), min(stop + 1, info.records)
        if (not batches or rows + hi - lo > _BATCH_ROWS
                or len(batches[-1]) >= 2 ** 32 // _BATCH_ROWS):
            batches.append([])
            rows = 0
        batches[-1].append((info, lo, start, stop, hi))
        rows += hi - lo
    return batches


def _scan_bands(store, batch, predicate, region, zone_range, ra_window):
    """The matching records of a batch's zone bands, partition after
    partition, each in ordinal order, and how many band records there are.

    Each partition's range is read into its rows of one array, and the rest
    is done once for the whole array. A record of another zone in a band, or
    one of its zones beside it, means the manifest does not describe the
    file, which is a StoreIOError naming it. A cone with an RA window drops
    the rows outside it before any trigonometry."""
    ends = np.cumsum([0] + [hi - lo for _, lo, _, _, hi in batch])
    recs = np.empty(ends[-1], dtype=DET_DTYPE)
    for (info, lo, _, _, hi), at in zip(batch, ends.tolist()):
        _read_into(store, info, recs[at:at + hi - lo], start=lo)
    counts = [(start - lo, stop - start, hi - stop) for _, lo, start, stop, hi in batch]
    band = np.repeat(np.tile([False, True, False], len(batch)), np.ravel(counts))
    z_lo, z_hi = zone_range
    # zone - z_lo wraps below z_lo, so one unsigned test finds the band's zones
    wrong = (recs["zone"] - np.uint32(z_lo) < z_hi + 1 - z_lo) != band
    if wrong.any():
        info = batch[np.searchsorted(ends, wrong.argmax(), side="right") - 1][0]
        raise StoreIOError(f"{Path(store) / info.name}: records outside zones "
                           f"{z_lo}..{z_hi} in their byte range, or records of those zones "
                           f"next to it; the manifest does not match the partition")
    mask = band & predicate.mask(recs)
    if ra_window is not None:
        mask &= sphere.in_ra_window(recs["ra"], *ra_window)
    rows = np.flatnonzero(mask)
    rows = rows[region.contains(sphere.radec_to_unit(recs["ra"][rows], recs["dec"][rows]))]
    # One sort of (partition << 32 | ordinal) * m + j, j the position among
    # the m rows, orders them by partition, ordinal and row. The key is below
    # 2^64: a batch of p partitions has p * m <= 2^32 (see _band_batches).
    m = np.uint64(len(rows))
    part = (np.searchsorted(ends, rows, side="right") - 1).astype(np.uint64)
    key = (part << np.uint64(32) | recs["ordinal"][rows]) * m + np.arange(m, dtype=np.uint64)
    return _gather(recs, rows[np.sort(key) % max(m, 1)]), int(np.count_nonzero(band))


def _scan_partition(store, info, predicate, region, zoned):
    """The matching records of a whole partition in ordinal order, and how
    many records were read."""
    recs = read_partition(store, info)
    rows = np.flatnonzero(predicate.mask(recs))
    if region is not None:
        rows = rows[region.contains(sphere.radec_to_unit(recs["ra"][rows], recs["dec"][rows]))]
    if zoned:
        rows = _by_ordinal(recs, rows)
    return _gather(recs, rows), len(recs)


def scan(store, predicate: Predicate | str, region=None, workers: int = 1):
    """Sequential scan with predicate pushdown and an optional region
    filter. Each partition's matches come in ordinal order, partition after
    partition, so the output is the same whatever the worker count or the
    zone order of the files.

    A region scan of a zoned store reads, from each partition, only the byte
    range of the zones of `sphere.region_dec_bounds`, a batch of partitions
    into one array (`_scan_bands`), and a cone narrow enough to have
    `sphere.cone_ra_window` tests only the rows in that RA window. Any
    other scan reads each partition whole, and a constant-true scan with no
    region reads them straight into the result. `workers` threads share the
    batches or the partitions. `ScanStats` counts the records of the zone
    bands, or of the partitions read whole.
    """
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    if isinstance(predicate, str):
        predicate = Predicate(predicate)
    manifest = read_manifest(store)
    zoned = manifest.zone_height_deg is not None
    t0 = time.perf_counter()
    if region is not None and zoned:
        dec_lo, dec_hi = sphere.region_dec_bounds(region)
        z_lo = int(sphere.zone_of(dec_lo, manifest.zone_height_deg))
        z_hi = int(sphere.zone_of(dec_hi, manifest.zone_height_deg))
        zone_range = (z_lo, z_hi if dec_lo <= dec_hi else z_lo - 1)  # empty: no zone
        ra_window = sphere.cone_ra_window(region) if isinstance(region, sphere.Cone) else None
        batches = _band_batches(manifest.partitions, *zone_range)
        parts = _map(min(workers, len(batches)),
                     lambda batch: _scan_bands(store, batch, predicate, region, zone_range,
                                               ra_window), batches)
    elif region is None and predicate.constant is True:
        whole = _read_partitions(store, manifest.partitions, workers, zoned=zoned)
        parts = [(whole, len(whole))]
    else:
        parts = _map(workers, lambda info: _scan_partition(store, info, predicate, region, zoned),
                     manifest.partitions)
    matched = parts[0][0] if len(parts) == 1 else join_records([p for p, _ in parts])
    scanned = sum(n for _, n in parts)
    wall = time.perf_counter() - t0
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
# with cells of edge max(chord, 1e-9) keyed by floor(v / edge) per axis.
#
# Within a pass, a detection e can change what another detection d sees
# only by founding a master in d's 27 cells or by moving one into or out of
# them. e founds at its own cell. e joins a master in its own 27 cells and
# pulls it along the arc toward e, so the master ends within
# sqrt(best) + 1e-9 <= 2 * edge of e: within 3 cells of e's key, allowing
# for floor() rounding. So e and d can interact only if their keys are
# within 1 + 3 = 4 cells on every axis (Chebyshev distance), and only then
# can both join one master: they are conflict neighbours.
#
# A pass runs in waves. A detection's wave is one more than the latest wave
# among its earlier conflict neighbours, or 0 if it has none. Rows of one
# wave are never neighbours, so they see no change made by each other and
# join distinct masters, and no row that runs out of order with d is d's
# neighbour. So d sees what the one-at-a-time rule shows it: the masters
# within 1 cell of it at the start of the pass, plus those its earlier
# neighbours founded or joined, kept if their current key is within 1 cell.
# A new master holds slot n_masters + row until the pass ends, when the
# slots close up into ids in row order; slots order founders as ids do, so
# the lowest-index tie rule picks the same master.
#
# One `sphere.cell_pairs` search per pass, at coarse cells of 4 cells' edge
# (keys >> 2), finds both kinds of pair: masters within 1 cell of a detection
# on every axis are its candidates, detections within 4 its conflict
# neighbours. `_nearest` takes minima only, so the order of candidates is free.

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


def _cell_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Chebyshev distance in cells between rows of cell keys."""
    d = np.abs(a - b)
    return np.maximum(np.maximum(d[:, 0], d[:, 1]), d[:, 2])


def _nearest(pos: np.ndarray, v: np.ndarray, q: np.ndarray, t: np.ndarray,
             chord: float) -> np.ndarray:
    """The master the rule picks for each row of v among its candidate pairs
    (q, t): the lowest index within 1e-9 of the nearest distance, or -1
    when the nearest lies beyond the chord."""
    diff = pos.take(t, axis=0) - v.take(q, axis=0)
    d2 = np.einsum("ij,ij->i", diff, diff)
    best = np.full(len(v), np.inf)
    np.minimum.at(best, q, d2)
    tie = np.sqrt(d2) <= np.sqrt(best.take(q)) + 1e-9
    pick = np.full(len(v), _NO_MASTER)
    np.minimum.at(pick, q[tie], t[tie])
    return np.where(best <= chord * chord, pick, -1)


def _rows(a: np.ndarray) -> np.ndarray:
    """The rows of a C-contiguous (N, 3) array of 8-byte values as N 24-byte
    scalars: numpy scatters rows given so as one copy each, about twice as
    fast as through a row index array."""
    return a.view(np.dtype((np.void, 24))).reshape(-1)


def _found(state, ids, v, flux, mjd, edge):
    """Start the masters `ids` at one detection each. 0.0 + flux keeps the
    sign of a running sum that starts at 0.0 (-0.0 becomes 0.0)."""
    _rows(state["sum"])[ids] = _rows(v)
    _rows(state["pos"])[ids] = _rows(v)
    _rows(state["key"])[ids] = _rows(sphere.cell_keys(v, edge))
    state["n"][ids] = 1
    state["flux_sum"][ids] = 0.0 + flux
    state["flux_sq"][ids] = 0.0 + flux * flux
    state["first"][ids] = mjd
    state["last"][ids] = mjd


def _join(state, ids, v, flux, mjd, edge):
    """Add one detection to each of the distinct masters `ids`."""
    s = state["sum"].take(ids, axis=0) + v
    pos = s / np.sqrt(sphere.row_dots(s, s))[:, None]
    _rows(state["sum"])[ids] = _rows(s)
    _rows(state["pos"])[ids] = _rows(pos)
    _rows(state["key"])[ids] = _rows(sphere.cell_keys(pos, edge))
    state["n"][ids] += 1
    state["flux_sum"][ids] += flux
    state["flux_sq"][ids] += flux * flux
    state["first"][ids] = np.minimum(state["first"].take(ids), mjd)
    state["last"][ids] = np.maximum(state["last"].take(ids), mjd)


def build_master(store, match_radius_arcsec: float):
    """Cross-match detections into masters, one pass at a time (the rule and
    its waves are described above).

    Writes `masters.csv` into the store, assigns `master_id` on every record,
    and returns the master table as a structured array.
    """
    if match_radius_arcsec <= 0:
        raise ValidationError("match_radius must be > 0")
    manifest = read_manifest(store)
    zoned = manifest.zone_height_deg is not None
    # In ordinal order a pass's records lie close together when det_ids
    # follow the passes, as `gen` numbers them; zone order would scatter
    # every per-pass gather over the whole store.
    records = _read_partitions(store, manifest.partitions, zoned=zoned)
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
        v, k, pflux, pmjd = unit.take(rows, axis=0), keys.take(rows, axis=0), flux[rows], mjd[rows]
        both = np.concatenate((state["key"][:n_masters], k))
        q, t = sphere.cell_pairs(both >> 2, k >> 2)
        gap = _cell_gap(both.take(t, axis=0), k.take(q, axis=0))
        near = (t >= n_masters) & (t < q + n_masters) & (gap <= _CONFLICT_CELLS)
        later, earlier = q[near], t[near] - n_masters
        cand = (t < n_masters) & (gap <= 1)
        q, t = q[cand], t[cand]

        # One wave a round: the rows whose earlier neighbours are all done.
        match = np.full(len(rows), -1)
        while np.any(match < 0):
            now = match < 0
            now[later[match[earlier] < 0]] = False
            wave = np.flatnonzero(now)
            f, e = now[q], now[later]
            cq = np.concatenate((q[f], later[e]))
            ct = np.concatenate((t[f], match[earlier[e]]))
            keep = _cell_gap(state["key"].take(ct, axis=0), k.take(cq, axis=0)) <= 1
            m = _nearest(state["pos"], v, cq[keep], ct[keep], chord).take(wave)
            founds = m < 0
            m[founds] = n_masters + wave[founds]
            for sel, step in ((founds, _found), (~founds, _join)):
                r = wave[sel]
                step(state, m[sel], v.take(r, axis=0), pflux.take(r), pmjd.take(r), edge)
            match[wave] = m

        # Close the founders' slots up into ids in row order.
        slots = n_masters + np.flatnonzero(match == n_masters + np.arange(len(rows)))
        for col in state.values():
            col[n_masters:n_masters + len(slots)] = col.take(slots, axis=0)
        new = match >= n_masters
        match[new] = n_masters + np.searchsorted(slots, match[new])
        n_masters += len(slots)
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
            part = records[offset:offset + info.records]
            if zoned:  # back in (zone, ordinal) order
                part = _gather(part, _zone_order(part["zone"], info.zone_first))
            _put_partition(put, info, part)
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
