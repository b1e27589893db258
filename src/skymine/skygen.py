"""Deterministic synthetic survey generator.

Produces a ground-truth object catalog (static, periodic, transient, mover)
and per-pass detection streams with photometric noise, fully determined by
the seed. Geometry/parameter draws and flux-noise draws come from separate
child streams of the seed, so changing only the noise level leaves positions
and epochs untouched.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .store import DET_DTYPE, ingest_detections, join_records
from . import csvio, sphere

RNG_ALGORITHM = "numpy.random.PCG64"

KIND_STATIC = "static"
KIND_PERIODIC = "periodic"
KIND_TRANSIENT = "transient"
KIND_MOVER = "mover"

TRUTH_DTYPE = np.dtype([
    ("truth_id", "<i8"),
    ("kind", "U10"),
    ("ra", "<f8"),
    ("dec", "<f8"),
    ("base_flux", "<f8"),
    ("period_days", "<f8"),
    ("amplitude_fraction", "<f8"),
    ("phase", "<f8"),
    ("burst_epoch", "<f8"),
    ("burst_duration_days", "<f8"),
    ("motion_rate_deg_day", "<f8"),
    ("position_angle_deg", "<f8"),
])
TRUTH_CSV_FORMAT = "%d,%s,%.9f,%.9f,%.6f,%.6f,%.6f,%.6f,%.6f,%.9f,%.6f"  # fields but phase
LABEL_DTYPE = np.dtype([("det_id", "<u8"), ("truth_id", "<i8")])


@dataclass(frozen=True)
class SurveyConfig:
    n_objects: int
    passes: int
    seed: int
    cadence_days: float = 1.0
    flux_sigma_fraction: float = 0.01
    periodic_fraction: float = 0.0
    transient_fraction: float = 0.0
    mover_fraction: float = 0.0
    start_mjd: float = 59000.0
    position_noise_arcsec: float = 0.0

    def __post_init__(self):
        if self.n_objects < 0:
            raise ValidationError("n_objects must be >= 0")
        if self.passes < 1:
            raise ValidationError("passes must be >= 1")
        if not 0 < self.cadence_days < np.inf:
            raise ValidationError("cadence_days must be finite and > 0, "
                                  f"got {self.cadence_days!r}")
        for name in ("flux_sigma_fraction", "position_noise_arcsec", "periodic_fraction",
                     "transient_fraction", "mover_fraction"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:
                raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")
        fracs = (self.periodic_fraction, self.transient_fraction, self.mover_fraction)
        if sum(fracs) > 1.0 + 1e-12:
            raise ValidationError(f"kind fractions sum to {sum(fracs)}, above 1")


def _tangent_basis(unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Local east/north unit tangents at each position (N,3)."""
    x, y, z = unit[:, 0], unit[:, 1], unit[:, 2]
    r_xy = np.hypot(x, y)
    safe = np.maximum(r_xy, 1e-15)
    east = np.stack([-y / safe, x / safe, np.zeros_like(z)], axis=1)
    north = np.cross(unit, east)
    return east, north


def generate_truth(config: SurveyConfig, rng: np.random.Generator) -> np.ndarray:
    n = config.n_objects
    truth = np.zeros(n, dtype=TRUTH_DTYPE)
    truth["truth_id"] = np.arange(1, n + 1)
    # uniform on the sphere: uniform z and azimuth, rejection-free
    z = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    truth["dec"] = np.degrees(np.arcsin(z))
    truth["ra"] = np.degrees(phi) % 360.0
    truth["base_flux"] = rng.uniform(100.0, 1000.0, n)

    n_per = int(config.periodic_fraction * n)
    n_tr = int(config.transient_fraction * n)
    n_mv = int(config.mover_fraction * n)
    kinds = np.array([KIND_STATIC] * n, dtype="U10")
    kinds[:n_per] = KIND_PERIODIC
    kinds[n_per:n_per + n_tr] = KIND_TRANSIENT
    kinds[n_per + n_tr:n_per + n_tr + n_mv] = KIND_MOVER
    truth["kind"] = kinds

    span = config.passes * config.cadence_days
    per = kinds == KIND_PERIODIC
    truth["period_days"][per] = rng.uniform(0.5, 20.0, n_per)
    truth["amplitude_fraction"][per] = rng.uniform(0.2, 0.6, n_per)
    truth["phase"][per] = rng.uniform(0.0, 2.0 * np.pi, n_per)
    tr = kinds == KIND_TRANSIENT
    truth["burst_duration_days"][tr] = rng.uniform(3.0, 8.0, n_tr) * config.cadence_days
    truth["burst_epoch"][tr] = config.start_mjd + rng.uniform(0.0, span, n_tr)
    mv = kinds == KIND_MOVER
    truth["motion_rate_deg_day"][mv] = rng.uniform(0.02, 0.2, n_mv)
    truth["position_angle_deg"][mv] = rng.uniform(0.0, 360.0, n_mv)
    return truth


def generate_survey(config: SurveyConfig):
    """Returns (truth catalog, detection records, per-detection truth ids)."""
    geom_seed, flux_seed = np.random.SeedSequence(config.seed).spawn(2)
    geom_rng = np.random.Generator(np.random.PCG64(geom_seed))
    flux_rng = np.random.Generator(np.random.PCG64(flux_seed))

    truth = generate_truth(config, geom_rng)
    n = len(truth)
    unit0 = sphere.radec_to_unit(truth["ra"], truth["dec"]) if n else np.empty((0, 3))
    east, north = _tangent_basis(unit0) if n else (unit0, unit0)
    pa = np.radians(truth["position_angle_deg"])
    motion_dir = north * np.cos(pa)[:, None] + east * np.sin(pa)[:, None]
    is_mover = truth["kind"] == KIND_MOVER
    is_periodic = truth["kind"] == KIND_PERIODIC
    is_transient = truth["kind"] == KIND_TRANSIENT

    det_chunks = []
    label_chunks = []
    next_id = 1
    pos_noise_rad = np.radians(config.position_noise_arcsec / sphere.ARCSEC_PER_DEG)
    for p in range(config.passes):
        mjd = config.start_mjd + p * config.cadence_days
        emit = np.ones(n, dtype=bool)
        if is_transient.any():
            t0 = truth["burst_epoch"]
            emit[is_transient] = ((mjd >= t0[is_transient])
                                  & (mjd < (t0 + truth["burst_duration_days"])[is_transient]))
        rows = np.flatnonzero(emit)
        if not len(rows):
            continue

        # positions: movers advance along their great circle
        unit = unit0[rows].copy()
        mv_rows = rows[is_mover[rows]]
        if len(mv_rows):
            arc = np.radians(truth["motion_rate_deg_day"][mv_rows]) * (mjd - config.start_mjd)
            moved = (unit0[mv_rows] * np.cos(arc)[:, None]
                     + motion_dir[mv_rows] * np.sin(arc)[:, None])
            unit[is_mover[rows]] = moved
        if pos_noise_rad > 0:
            # small tangent-plane jitter, renormalized
            jitter = geom_rng.normal(0.0, pos_noise_rad, (len(rows), 2))
            e, nvec = _tangent_basis(unit)
            unit = unit + e * jitter[:, :1] + nvec * jitter[:, 1:]
            unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        ra, dec = sphere.unit_to_radec(unit)

        model = truth["base_flux"][rows].copy()
        per_rows = is_periodic[rows]
        if per_rows.any():
            sel = rows[per_rows]
            omega = 2.0 * np.pi / truth["period_days"][sel]
            model[per_rows] *= 1.0 + truth["amplitude_fraction"][sel] * np.sin(
                omega * (mjd - config.start_mjd) + truth["phase"][sel])
        sigma = np.maximum(config.flux_sigma_fraction, 1e-6) * np.abs(model)
        flux = model + flux_rng.normal(0.0, 1.0, len(rows)) * sigma

        chunk = np.zeros(len(rows), dtype=DET_DTYPE)
        chunk["det_id"] = np.arange(next_id, next_id + len(rows))
        next_id += len(rows)
        chunk["pass_id"] = p
        chunk["mjd"] = mjd
        chunk["ra"] = ra
        chunk["dec"] = dec
        chunk["flux"] = flux
        chunk["flux_err"] = sigma
        det_chunks.append(chunk)
        label_chunks.append(truth["truth_id"][rows])

    detections = join_records(det_chunks)
    labels = np.concatenate(label_chunks) if label_chunks else np.empty(0, dtype=np.int64)
    return truth, detections, labels


def write_survey(config: SurveyConfig, out_dir, partition_count: int = 4):
    """Generate and persist a survey: detection store, truth CSV, detection
    truth labels, and a JSON manifest echoing the configuration."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    truth, detections, labels = generate_survey(config)
    manifest = ingest_detections(detections, partition_count, out)

    names = [n for n in TRUTH_DTYPE.names if n != "phase"]
    (out / "truth.csv").write_text(csvio.text(",".join(names), TRUTH_CSV_FORMAT, truth[names]))
    label_rows = np.rec.fromarrays((detections["det_id"], labels), dtype=LABEL_DTYPE)
    (out / "labels.csv").write_text(csvio.text("det_id,truth_id", "%d,%d", label_rows))

    kinds, counts = (np.unique(truth["kind"], return_counts=True)
                     if len(truth) else (np.empty(0, dtype="U10"), np.empty(0, dtype=int)))
    survey_manifest = {
        "rng": {"algorithm": RNG_ALGORITHM, "numpy_version": np.__version__},
        "config": asdict(config),
        "n_objects": len(truth),
        "n_detections": len(detections),
        "kind_counts": {str(k): int(c) for k, c in zip(kinds, counts)},
    }
    (out / "survey.json").write_text(json.dumps(survey_manifest, indent=2))
    return truth, detections, labels, manifest

