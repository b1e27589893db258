"""The three workloads: `load` (the write path), `query` (the scan path) and
`mine` (the mining commands). Each builds its inputs from the seed in
`setup`, yields warm-up ops and timed cycles of ops, and checks every op's
output against an oracle computed from the generated inputs.
"""

from __future__ import annotations

import json
import math
import shutil
import zlib
from pathlib import Path

import numpy as np

from harness import MB, Op, percentile, sha256_file

# every survey: periodic/transient/mover fractions and 0.05" position noise
SURVEY_MIX = dict(periodic_fraction=0.1, transient_fraction=0.05, mover_fraction=0.05,
                  position_noise_arcsec=0.05)


def generate(objects: int, passes: int, seed: int) -> np.ndarray:
    from skymine import skygen
    config = skygen.SurveyConfig(n_objects=objects, passes=passes, seed=seed, **SURVEY_MIX)
    return skygen.generate_survey(config)[1]


def unit_vectors(ra_deg, dec_deg) -> np.ndarray:
    ra, dec = np.radians(ra_deg), np.radians(dec_deg)
    return np.stack([np.cos(dec) * np.cos(ra), np.cos(dec) * np.sin(ra), np.sin(dec)], axis=-1)


def csv_rows(stdout: str) -> list[str]:
    """Data rows of a CSV on stdout (the header dropped)."""
    return stdout.splitlines()[1:]


def read_masters_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Workload:
    name = ""
    min_cycles = 1
    user_bytes = 0  # record bytes a user hands to the store's write path per cycle

    def __init__(self, seed: int, nproc: int):
        self.seed = seed
        self.nproc = nproc

    def setup(self, work: Path) -> None:
        """Build the inputs with the program; timed as set-up."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Benchmark-side oracles; untimed."""

    def warmup(self) -> list[Op]:
        """Untimed ops run once before timing: by default one whole cycle on
        the timed inputs, because the first call of a command on a new input
        is slower than the calls after it."""
        return self.cycle(0)

    def cycle(self, i: int) -> list[Op]:
        raise NotImplementedError

    def input_facts(self) -> dict:
        raise NotImplementedError

    def stage_metrics(self, results) -> dict:
        """The per-command figures, as {name: (value, unit)}."""
        return {}

    def digests(self) -> dict:
        return {}


def _medians(results) -> dict:
    kinds = {}
    for r in results:
        kinds.setdefault(r.kind, []).append(r.wall_s)
    return {k: percentile(v, 0.5) for k, v in kinds.items()}


# ---------------------------------------------------------------------------
# load

class Load(Workload):
    """ingest -> index -> master of a ~95k-detection CSV into a fresh store."""

    name = "load"
    min_cycles = 2  # p90 then falls among the master commands
    objects, passes, partitions = 2000, 50, 4

    def setup(self, work):
        from skymine import store
        self.work = work
        det = generate(self.objects, self.passes, self.seed)
        self.csv = work / "input.csv"
        self.csv.write_text("\n".join(store.records_to_csv_lines(det)) + "\n")
        self.det_ids = np.sort(det["det_id"])
        self.record_bytes = self.user_bytes = len(det) * store.RECORD_SIZE
        self.file_digests = None

    def cycle(self, i):
        out = self.work / "load"
        shutil.rmtree(out, ignore_errors=True)
        s, n = str(out), self.record_bytes
        return [
            Op("ingest", ["ingest", "--input", str(self.csv), "--partitions",
                          str(self.partitions), "--out", s], n, store_dir=out),
            Op("index", ["index", "--store", s, "--zone-height", "1d"], n, store_dir=out),
            Op("master", ["master", "--store", s, "--radius", "1s"], n,
               check=lambda _out: self._verify(out), store_dir=out),
        ]

    def _verify(self, out: Path) -> str | None:
        """Manifest CRCs match the partition bytes, every input record is
        stored once with a master_id, and the masters' n_detections agree
        with the assignments. Records the file digests and requires them to
        repeat on every cycle."""
        from skymine import store
        manifest = json.loads((out / "manifest.json").read_text())
        parts, digests = [], {}
        for info in manifest["partitions"]:
            data = (out / info["name"]).read_bytes()
            if zlib.crc32(data) != info["crc32"] or len(data) != info["records"] * store.RECORD_SIZE:
                return f"{info['name']}: manifest CRC or size does not match the partition"
            parts.append(np.frombuffer(data, dtype=store.DET_DTYPE))
            digests[info["name"]] = sha256_file(out / info["name"])
        recs = np.concatenate(parts)
        if not np.array_equal(np.sort(recs["det_id"]), self.det_ids):
            return "stored det_ids differ from the input CSV"
        if np.any(recs["master_id"] == 0):
            return f"{int(np.sum(recs['master_id'] == 0))} records have no master_id"
        masters = read_masters_csv(out / "masters.csv")
        n_det = masters[:, 3].astype(np.int64)
        if n_det.sum() != len(recs):
            return f"masters' n_detections sum to {n_det.sum()}, not {len(recs)}"
        if not np.array_equal(masters[:, 0].astype(np.int64), np.arange(1, len(masters) + 1)):
            return "master ids are not 1..M"
        counts = np.bincount(recs["master_id"].astype(np.int64), minlength=len(masters) + 1)
        if len(counts) != len(masters) + 1 or not np.array_equal(counts[1:], n_det):
            return "record master_ids disagree with masters.csv n_detections"
        digests["masters.csv"] = sha256_file(out / "masters.csv")
        if self.file_digests is None:
            self.file_digests = digests
        elif digests != self.file_digests:
            return "store files differ from the first cycle's"
        return None

    def input_facts(self):
        return {"records": len(self.det_ids), "bytes": self.record_bytes,
                "csv_bytes": self.csv.stat().st_size}

    def stage_metrics(self, results):
        med = _medians(results)
        mb = self.record_bytes / MB
        return {"ingest_MB_per_s": (mb / med["ingest"], "MB/s"),
                "index_MB_per_s": (mb / med["index"], "MB/s"),
                "master_det_per_s": (len(self.det_ids) / med["master"], "det/s")}

    def digests(self):
        return {"files": self.file_digests}


# ---------------------------------------------------------------------------
# query

# class: (output rows low, high, shapes in every block of 25 queries). The
# medium and wide row ranges are narrow, so a seed changes a block's work
# little. Wide queries are all predicates, so the 90th percentile, which
# falls a third of the way into them, is a pure CSV-formatting cost.
QUERY_CLASSES = {
    "selective": (100, 1000, ["where"] * 7 + ["cone"] * 7 + ["polygon"] * 4),
    "medium": (10000, 20000, ["where", "cone", "polygon"]),
    "wide": (62000, 68000, ["where"] * 4),
}


def _gap(values: np.ndarray, k: int) -> float:
    """Halfway between the k-th and (k+1)-th smallest values: `values <= t`
    then selects k of them, and no value lies close to the threshold."""
    return float(np.mean(np.partition(values, [k - 1, k])[k - 1:k + 1]))


class Query(Workload):
    """Seeded predicate, cone and polygon scans of a ~0.96M-record zoned store.

    Every block of 25 queries holds 18 selective, 3 medium and 4 wide ones,
    in seeded order. The 14 selective predicates and cones are scan-bound and
    the fastest, so the median query is one of them; the 4 wide ones are
    bound by CSV formatting and hold the 90th percentile. Selective polygons
    (4 per block) test every record against the region today, so they sit
    with the medium queries."""

    name = "query"
    min_cycles = 4  # 100 queries, so p90 has 10 samples beyond it
    objects, passes, partitions = 20000, 50, 16

    def setup(self, work):
        from skymine import store
        self.work = work
        self.det = generate(self.objects, self.passes, self.seed)
        self.store_dir = work / "store"
        store.ingest_detections(self.det, self.partitions, self.store_dir)
        store.build_indexes(self.store_dir, 1.0)
        self.record_bytes = len(self.det) * store.RECORD_SIZE

    def prepare(self):
        # contiguous columns: the records are 64-byte structs
        self.cols = {f: np.ascontiguousarray(self.det[f]) for f in ("ra", "dec", "flux", "pass_id")}
        self.unit = unit_vectors(self.cols["ra"], self.cols["dec"])
        self.ids = self.det["det_id"].astype(np.int64)
        self.blocks = []
        self.n_polygons = 0
        self.block_rng = np.random.default_rng([self.seed, 1])

    def warmup(self):
        """One query of each kind (class and worker count): the class's first
        shape with one worker, its last with two."""
        rng = np.random.default_rng([self.seed, 2])
        return [self._query(rng, cls, shapes[0] if w == 1 else shapes[-1], w)
                for cls, (_, _, shapes) in QUERY_CLASSES.items()
                for w in sorted({1, min(2, self.nproc)})]

    def _block(self, rng) -> list[Op]:
        plan = [(cls, shape) for cls, (_, _, shapes) in QUERY_CLASSES.items() for shape in shapes]
        return [self._query(rng, cls, shape, min(int(rng.integers(1, 3)), self.nproc))
                for cls, shape in (plan[j] for j in rng.permutation(len(plan)))]

    def cycle(self, i):
        while len(self.blocks) <= i:
            self.blocks.append(self._block(self.block_rng))
        return self.blocks[i]

    def _query(self, rng, cls, shape, workers) -> Op:
        lo, hi, _ = QUERY_CLASSES[cls]
        target = int(rng.integers(lo, hi + 1))
        argv = ["query", "--store", str(self.store_dir)]
        if shape == "where":
            where, mask = self._where(rng, target)
            argv += ["--where", where]
        elif shape == "cone":
            cone, mask = self._cone(rng, target)
            argv += ["--cone", cone]
        else:
            path, mask = self._polygon(rng, target)
            argv += ["--polygon", str(path)]
        argv += ["--workers", str(workers)]
        expected = np.sort(self.ids[mask])
        return Op(f"{cls}.w{workers}", argv, self.record_bytes,
                  check=lambda out: self._check(out, expected))

    def _where(self, rng, target):
        """`flux>X`, or `pass_id<=P and flux>X`, with X between the target-th
        and next brightest flux of the rows the pass clause keeps."""
        flux, pass_id = self.cols["flux"], self.cols["pass_id"]
        if rng.random() < 0.5:
            pool = np.ones(len(flux), dtype=bool)
            prefix = ""
        else:
            per_pass = np.bincount(pass_id)
            p_min = int(np.searchsorted(np.cumsum(per_pass), 2 * target))
            p = int(rng.integers(p_min, len(per_pass)))
            pool = pass_id <= p
            prefix = f"pass_id<={p} and "
        x = repr(-_gap(-flux[pool].astype(np.float64), target))
        return prefix + f"flux>{x}", pool & (flux > float(x))

    def _cone(self, rng, target):
        """A cone around a uniform random centre, its radius halfway between
        the target-th and next nearest record."""
        ra = float(rng.uniform(0.0, 360.0))
        dec = float(np.degrees(np.arcsin(rng.uniform(-1.0, 1.0))))
        center = unit_vectors(ra, dec)
        radius = repr(float(np.degrees(np.arccos(-_gap(-(self.unit @ center), target)))))
        return (f"{ra!r}d,{dec!r}d,{radius}d",
                self.unit @ center >= np.cos(np.radians(float(radius))))

    def _polygon(self, rng, target):
        """An RA/Dec box: a declination band holding 2.5x the target, cut in
        RA so the box holds about the target."""
        dec, ra = self.cols["dec"], self.cols["ra"]
        dc = float(rng.uniform(-45.0, 45.0))
        h = _gap(np.abs(dec - dc), int(2.5 * target))
        d0, d1 = max(dc - h, -89.0), min(dc + h, 89.0)
        band = (dec >= d0) & (dec <= d1)
        r0 = float(rng.uniform(0.0, 360.0))
        r1 = r0 + _gap((ra[band] - r0) % 360.0, target)
        r0r, r1r = math.radians(r0), math.radians(r1)
        halfspaces = [(-math.sin(r0r), math.cos(r0r), 0.0, 0.0),
                      (math.sin(r1r), -math.cos(r1r), 0.0, 0.0),
                      (0.0, 0.0, 1.0, math.sin(math.radians(d0))),
                      (0.0, 0.0, -1.0, -math.sin(math.radians(d1)))]
        path = self.work / f"box-{self.n_polygons}.poly"
        self.n_polygons += 1
        path.write_text("".join(" ".join(repr(v) for v in h) + "\n" for h in halfspaces))
        normals = np.array([h[:3] for h in halfspaces])
        offsets = np.array([h[3] for h in halfspaces])
        return path, np.all(self.unit @ normals.T >= offsets, axis=-1)

    def _check(self, out, expected) -> str | None:
        rows = csv_rows(out)
        got = np.sort(np.array([int(r.split(",", 1)[0]) for r in rows], dtype=np.int64))
        if not np.array_equal(got, expected):
            return f"returned {len(got)} det_ids, the brute-force mask selects {len(expected)}"
        return None

    def input_facts(self):
        return {"records": len(self.det), "bytes": self.record_bytes,
                "file_bytes": sum(p.stat().st_size for p in self.store_dir.iterdir())}

    def stage_metrics(self, results):
        from skymine import planner, units
        walls = [r.wall_s for r in results]
        metrics = {"scan_MB_per_s": (len(results) * self.record_bytes / MB / sum(walls), "MB/s"),
                   "query_p50_ms": (percentile(walls, 0.5) * 1e3, "ms"),
                   "query_p90_ms": (percentile(walls, 0.9) * 1e3, "ms")}
        # single-worker scan-bound queries give this machine's full-scan rate
        w1 = [r.wall_s for r in results if r.kind == "selective.w1"]
        if w1:
            rate = self.record_bytes / percentile(w1, 0.5)
            spec = planner.ScanSpec(units.parse_bytes("120TB"), 30, rate, 30)
            metrics["planner_scan_rate_MB_per_s"] = (rate / MB, "MB/s")
            metrics["planner_scan_hours_120TB_30_disks"] = (
                planner.plan_scan(spec).scan_seconds / 3600.0, "h")
        return metrics


# ---------------------------------------------------------------------------
# mine

def _rows_equal(n: int, what: str):
    def check(out):
        rows = len(csv_rows(out))
        return None if rows == n else f"{rows} {what} rows, expected {n}"
    return check


def _em_finite(out):
    model = json.loads(out)
    values = np.concatenate([np.ravel(model[k]) for k in ("weights", "means", "covariances")])
    return None if np.all(np.isfinite(values)) else "EM model has non-finite parameters"


class Mine(Workload):
    """lc, classify, trigger, movers, neighbors, corr and em (exact and kd)
    over a mastered ~38k-detection store."""

    name = "mine"
    objects, passes = 1000, 40
    theta_deg = 1.0

    def setup(self, work):
        """A mastered store, plus a stream store holding the survey's next
        five passes, generated from the same seed."""
        from skymine import store
        self.dir, self.stream = work / "store", work / "stream"
        det = generate(self.objects, self.passes, self.seed)
        store.ingest_detections(det, 4, self.dir)
        store.build_indexes(self.dir, 1.0)
        store.build_master(self.dir, 1.0)
        later = generate(self.objects, self.passes + 5, self.seed)
        store.ingest_detections(later[later["pass_id"] >= self.passes], 1, self.stream)
        store.build_indexes(self.stream, 1.0)
        self.records = len(det)
        self.record_bytes = len(det) * store.RECORD_SIZE

    def prepare(self):
        """Master count, and ordered neighbor pairs by a chunked brute-force
        chord comparison."""
        masters = read_masters_csv(self.dir / "masters.csv")
        self.n_masters = len(masters)
        unit = unit_vectors(masters[:, 1], masters[:, 2])
        chord2 = (2.0 * math.sin(0.5 * math.radians(self.theta_deg))) ** 2
        pairs = 0
        for lo in range(0, len(unit), 512):
            diff = unit[lo:lo + 512, None, :] - unit[None, :, :]
            pairs += int(np.count_nonzero(np.einsum("ijk,ijk->ij", diff, diff) <= chord2))
        self.neighbor_pairs = pairs - len(unit)  # a != b

    def warmup(self):
        """One cycle, with lc and classify on a 100-step frequency grid: the
        same code paths at a tenth of the periodogram work."""
        ops = self.cycle(0)
        for op in ops[:2]:
            op.argv[-1] = "100"
        return ops

    def cycle(self, i):
        s, seed, n = str(self.dir), str(self.seed), self.record_bytes
        # EM runs a fixed 20 iterations (tol 0), so its work does not depend on
        # how fast a seed's data converges. lc and classify search 1,000
        # frequencies instead of the default 4,000, so a run holds several
        # cycles; the periodogram still dominates them.
        em = ["em", "--store", s, "--seed", seed, "--tol", "0", "--max-iter", "20"]
        return [
            Op("lc", ["lc", "--store", s, "--steps", "1000"], n,
               _rows_equal(self.n_masters, "lc")),
            Op("classify", ["classify", "--store", s, "--span-days", str(self.passes),
                            "--steps", "1000"], n, _rows_equal(self.n_masters, "classify")),
            Op("trigger", ["trigger", "--store", s, "--stream", str(self.stream)], n,
               lambda out: None if csv_rows(out) else "no alerts on the next passes"),
            Op("movers", ["movers", "--store", s], n,
               lambda out: None if out.startswith("track_id,") else "no track header"),
            Op("neighbors", ["neighbors", "--store", s, "--theta", f"{self.theta_deg * 3600:g}s"],
               n, _rows_equal(self.neighbor_pairs, "neighbors")),
            Op("corr", ["corr", "--store", s, "--seed", seed], n, _rows_equal(5, "corr")),
            Op("em_exact", em + ["--mode", "exact"], n, _em_finite),
            Op("em_kd", em + ["--mode", "kd"], n, _em_finite),
        ]

    def input_facts(self):
        return {"records": self.records, "bytes": self.record_bytes, "masters": self.n_masters}

    def stage_metrics(self, results):
        return {f"{k}_s": (v, "s") for k, v in _medians(results).items()}


WORKLOADS = {w.name: w for w in (Load, Query, Mine)}
