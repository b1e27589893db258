"""Time-domain mining: light-curve model fits and classification, the
streaming transient trigger, and moving-object linking in motion-parameter
space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from .errors import ValidationError
from . import sphere
from .sphere import ARCSEC_PER_DEG


@dataclass
class LightCurve:
    master_id: int
    epochs: np.ndarray
    fluxes: np.ndarray
    flux_errs: np.ndarray

    def __post_init__(self):
        self.epochs = np.asarray(self.epochs, dtype=np.float64)
        self.fluxes = np.asarray(self.fluxes, dtype=np.float64)
        self.flux_errs = np.asarray(self.flux_errs, dtype=np.float64)
        if not (len(self.epochs) == len(self.fluxes) == len(self.flux_errs)):
            raise ValidationError("light-curve arrays must have equal length")
        if len(self.epochs) < 1:
            raise ValidationError("light curve needs at least one point")
        bad = np.flatnonzero(np.diff(self.epochs) <= 0)
        if len(bad):
            prev, cur = self.epochs[bad[0]], self.epochs[bad[0] + 1]
            where = (f"mjd {cur:.6f} repeats" if cur == prev
                     else f"mjd {cur:.6f} follows {prev:.6f}")
            raise ValidationError("light-curve epochs must strictly increase: "
                                  f"master {self.master_id}, {where}")
        if np.any(self.flux_errs <= 0):
            raise ValidationError("flux errors must be > 0")

    def __len__(self):
        return len(self.epochs)

    @classmethod
    def from_chain(cls, master_id: int, chain: np.ndarray) -> "LightCurve":
        """Light curve of one master's detection records, in `mjd` order."""
        return cls(int(master_id), chain["mjd"], chain["flux"], chain["flux_err"])


@dataclass
class LightCurveFit:
    chi2_const: float
    dof: int
    mean_flux: float
    best_frequency: float | None
    periodic_power: float
    amplitude_fraction: float
    classification: str


# classification cuts
VARIABILITY_CHI2_DOF = 3.0
PERIODIC_POWER = 0.5
TRANSIENT_SIGMA = 5.0
TRANSIENT_MIN_RUN = 3
# chains spanning less than this fraction of the survey count as bursts
TRANSIENT_SPAN_FRACTION = 0.6
# tracks faster than this rate (deg/day) get the debris-candidate flag
DEBRIS_RATE_CUT = 1.0


def _weighted_constant(lc: LightCurve):
    w = 1.0 / lc.flux_errs ** 2
    mean = float(np.sum(w * lc.fluxes) / np.sum(w))
    chi2 = float(np.sum(w * (lc.fluxes - mean) ** 2))
    return mean, chi2


def group_chains(recs: np.ndarray):
    """Split detection records into per-master chains with one sort.

    Returns (master_ids, chains): the distinct `master_id` values in
    ascending order, and for each a view of its records in `mjd` order.
    """
    recs = recs[np.lexsort((recs["mjd"], recs["master_id"]))]
    master_ids, starts = np.unique(recs["master_id"], return_index=True)
    return master_ids, np.split(recs, starts[1:])


def _trig_basis(freqs: np.ndarray, t: np.ndarray):
    """cos, sin, cos^2, sin^2 and cos*sin of 2 pi f t, one row per trial
    frequency; shared by every light curve observed at epochs t."""
    omega_t = 2.0 * np.pi * freqs[:, None] * t[None, :]
    c = np.cos(omega_t)
    s = np.sin(omega_t)
    return c, s, c * c, s * s, c * s


def _periodograms(lcs: list[LightCurve], freqs: np.ndarray):
    """Yield power and amplitude per trial frequency for light curves that
    share one epoch vector.

    The trig basis is computed once for the group. Each curve's reductions
    use the same operands and calls as a lone curve would, so results do not
    depend on how curves are grouped.
    """
    nf = len(freqs)
    basis = None
    for lc in lcs:
        w = 1.0 / lc.flux_errs ** 2
        w = w / np.sum(w)
        t = lc.epochs
        y = lc.fluxes
        ybar = np.sum(w * y)
        yy = np.sum(w * (y - ybar) ** 2)
        if yy <= 0:
            yield np.zeros(nf), np.zeros(nf)
            continue
        if basis is None:
            basis = _trig_basis(freqs, t)
        c, s, c2, s2, c_s = basis
        cbar = c @ w
        sbar = s @ w
        yc = (c * (w * y)) @ np.ones_like(t) - ybar * cbar
        ys = (s * (w * y)) @ np.ones_like(t) - ybar * sbar
        cc = c2 @ w - cbar ** 2
        ss = s2 @ w - sbar ** 2
        cs = c_s @ w - cbar * sbar
        d = cc * ss - cs ** 2
        safe = np.abs(d) > 1e-15
        # every entry is computed, but entries are independent, so the safe
        # ones equal a computation on the safe entries alone
        with np.errstate(all="ignore"):
            a = np.where(safe, (yc * ss - ys * cs) / d, 0.0)
            b = np.where(safe, (ys * cc - yc * cs) / d, 0.0)
            power = np.where(safe, (ss * yc ** 2 + cc * ys ** 2
                                    - 2.0 * cs * yc * ys) / (yy * d), 0.0)
        yield np.clip(power, 0.0, 1.0), np.hypot(a, b)


def periodogram(lc: LightCurve, freqs: np.ndarray):
    """Floating-mean single-sinusoid least-squares power on a frequency grid.

    Power is the fraction of weighted variance explained by the best-fit
    sinusoid at each trial frequency, in [0, 1]. Also returns the fitted
    amplitude per frequency.
    """
    return next(_periodograms([lc], freqs))


def _transient_shape(lc: LightCurve) -> bool:
    """True when the significant points form one contiguous run and the rest
    of the series is consistent with zero flux."""
    sig = lc.fluxes > TRANSIENT_SIGMA * lc.flux_errs
    quiet = np.abs(lc.fluxes) < 2.0 * lc.flux_errs
    if not sig.any() or not (~sig).any():
        return False
    runs = np.flatnonzero(sig)
    contiguous = runs[-1] - runs[0] + 1 == len(runs)
    return bool(contiguous and len(runs) >= TRANSIENT_MIN_RUN
                and quiet[~sig].all())


def _frequency_grid(freq_grid: tuple[float, float, int]) -> np.ndarray:
    f_min, f_max, n_steps = freq_grid
    if not (0 < f_min < f_max and n_steps >= 2):
        raise ValidationError("frequency grid must satisfy 0 < f_min < f_max, n_steps >= 2")
    return np.linspace(f_min, f_max, int(n_steps))


def _fit(lc: LightCurve, freqs: np.ndarray | None,
         spectrum: tuple[np.ndarray, np.ndarray] | None) -> LightCurveFit:
    """Constant fit plus classification; `spectrum` is the curve's (power,
    amplitude) on `freqs`, or None for curves too short to search."""
    mean, chi2 = _weighted_constant(lc)
    dof = max(len(lc) - 1, 1)
    if spectrum is None:
        cls = "static" if chi2 / dof <= VARIABILITY_CHI2_DOF else "variable"
        return LightCurveFit(chi2, len(lc) - 1, mean, None, 0.0, 0.0, cls)
    power, amp = spectrum
    best = int(np.argmax(power))
    best_frequency = float(freqs[best])
    periodic_power = float(power[best])
    amplitude_fraction = float(amp[best] / abs(mean)) if mean != 0 else 0.0

    if chi2 / dof <= VARIABILITY_CHI2_DOF:
        cls = "static"
    elif periodic_power > PERIODIC_POWER:
        cls = "variable"
    elif _transient_shape(lc):
        cls = "transient"
    else:
        cls = "variable"
    return LightCurveFit(chi2, len(lc) - 1, mean, best_frequency, periodic_power,
                         amplitude_fraction, cls)


def fit_lightcurves(lcs: list[LightCurve],
                    freq_grid: tuple[float, float, int] = (0.01, 2.0, 4000)
                    ) -> list[LightCurveFit]:
    """Fit every light curve as `fit_lightcurve` would, in input order.

    Curves of 3+ points are searched in groups that share an epoch vector,
    so the trig work is done once per distinct epoch vector, not per curve.
    """
    fits: list[LightCurveFit | None] = [None] * len(lcs)
    groups: dict[bytes, list[int]] = {}
    for i, lc in enumerate(lcs):
        if len(lc) < 3:
            fits[i] = _fit(lc, None, None)
        else:
            groups.setdefault(lc.epochs.tobytes(), []).append(i)
    freqs = _frequency_grid(freq_grid) if groups else None
    for members in groups.values():
        spectra = _periodograms([lcs[i] for i in members], freqs)
        for i, spectrum in zip(members, spectra):
            fits[i] = _fit(lcs[i], freqs, spectrum)
    return fits


def fit_lightcurve(lc: LightCurve,
                   freq_grid: tuple[float, float, int] = (0.01, 2.0, 4000)) -> LightCurveFit:
    """Weighted constant fit plus, for series of 3+ points, a floating-mean
    sinusoid search over a uniform frequency grid."""
    return fit_lightcurves([lc], freq_grid)[0]


def classify_chain(n_detections: int, flags_any: bool, lc: LightCurve | None,
                   fit: LightCurveFit | None, survey_span_days: float | None = None) -> str:
    """Classify a master's detection chain.

    Single flagged detections are defects; single clean detections are
    mover candidates (nothing else revisits a location exactly once).
    Short contiguous chains against a known survey span are transients;
    everything else falls to the light-curve fit.
    """
    if n_detections == 1:
        return "defect" if flags_any else "mover-candidate"
    if lc is None or fit is None:
        raise ValidationError("multi-detection chains need a light curve and fit")
    if survey_span_days and survey_span_days > 0 and len(lc) >= 2:
        span = float(lc.epochs[-1] - lc.epochs[0])
        if span < TRANSIENT_SPAN_FRACTION * survey_span_days:
            return "transient"
    return fit.classification


# ---------------------------------------------------------------------------
# streaming transient trigger

@dataclass
class Alert:
    kind: str               # new-source | flux-anomaly
    mjd: float
    ra: float
    dec: float
    flux: float
    deviation_sigmas: float
    nearest_master_id: int  # 0 for new-source alerts


def run_trigger(stream: np.ndarray, masters: np.ndarray, match_radius_arcsec: float,
                k_sigma: float = 5.0) -> list[Alert]:
    """Match a (mjd, zone)-ordered detection stream against the predicted
    master catalog: unmatched positions raise new-source alerts, matched
    detections with flux deviating by more than k_sigma combined errors raise
    flux-anomaly alerts. Output order is input order.

    A detection's match is the master of largest dot product (the lowest
    master index on ties); it is unmatched when that dot is below
    cos(radius).
    """
    if match_radius_arcsec <= 0:
        raise ValidationError("match_radius must be > 0")
    mjd, zone = stream["mjd"], stream["zone"]
    bad = (mjd[1:] < mjd[:-1]) | ((mjd[1:] == mjd[:-1]) & (zone[1:] < zone[:-1]))
    violations = np.flatnonzero(bad)
    if len(violations):
        raise ValidationError(
            f"stream not ordered by (mjd, zone) at record {violations[0] + 1}")

    det_unit = sphere.radec_to_unit(stream["ra"], stream["dec"])
    master_unit = sphere.radec_to_unit(masters["ra"], masters["dec"])
    radius_rad = np.radians(match_radius_arcsec / ARCSEC_PER_DEG)
    cos_limit = np.cos(radius_rad)
    # Candidates must include every master whose computed dot reaches
    # cos_limit. Rounding in the unit vectors, the dot and cos_limit moves a
    # dot by at most about 2e-15, so such a master lies within
    # sqrt(chord^2 + 4e-15) of the detection: beyond the chord near 2", and
    # up to about 6e-8 away for radii whose chord is far smaller. Cells of
    # edge max(2 chord, 1e-7) cover that distance at every radius.
    edge = max(2.0 * sphere.chord_for_angle(radius_rad), 1e-7)
    q, t = sphere.cell_pairs(sphere.cell_keys(master_unit, edge),
                             sphere.cell_keys(det_unit, edge))
    dots = np.einsum("ij,ij->i", det_unit[q], master_unit[t])
    best = np.full(len(stream), -np.inf)
    np.maximum.at(best, q, dots)
    top = dots == best[q]
    pick = np.full(len(stream), len(masters))
    np.minimum.at(pick, q[top], t[top])
    matched = best >= cos_limit

    dev = np.zeros(len(stream))
    m = masters[pick[matched]]
    err = stream["flux_err"][matched].astype(np.float64)
    combined = np.sqrt(err ** 2 + m["flux_variance"])
    combined = np.where(combined <= 0, err, combined)
    dev[matched] = np.abs(stream["flux"][matched] - m["mean_flux"]) / combined

    alerts: list[Alert] = []
    for i in np.flatnonzero(~matched | (dev > k_sigma)):
        d = stream[i]
        if matched[i]:
            alerts.append(Alert("flux-anomaly", float(d["mjd"]), float(d["ra"]),
                                float(d["dec"]), float(d["flux"]), float(dev[i]),
                                int(masters["master_id"][pick[i]])))
        else:
            alerts.append(Alert("new-source", float(d["mjd"]), float(d["ra"]),
                                float(d["dec"]), float(d["flux"]), 0.0, 0))
    return alerts


# ---------------------------------------------------------------------------
# moving-object linking

@dataclass
class MoverTrack:
    track_id: int
    det_ids: np.ndarray
    ref_mjd: float
    ra: float
    dec: float
    rate_deg_day: float
    position_angle_deg: float
    rms_arcsec: float
    debris_candidate: bool = False


def fit_motion(mjds: np.ndarray, unit: np.ndarray):
    """Fit great-circle motion at constant angular rate.

    Returns (predicted unit positions, rate deg/day, position angle deg at the
    first epoch, rms residual arcsec). Exact great-circle constant-rate input
    fits with zero residual.
    """
    mjds = np.asarray(mjds, dtype=np.float64)
    unit = np.asarray(unit, dtype=np.float64)
    # best-fit plane through the origin; full SVD so vt is 3x3 and the last
    # row is the plane normal even for two-point input
    _, _, vt = np.linalg.svd(unit, full_matrices=True)
    normal = vt[-1]
    e1 = unit[0] - (unit[0] @ normal) * normal
    n1 = np.linalg.norm(e1)
    if n1 < 1e-12:
        e1 = np.array([1.0, 0.0, 0.0]) - normal[0] * normal
        e1 /= np.linalg.norm(e1)
    else:
        e1 /= n1
    e2 = np.cross(normal, e1)
    phase = np.unwrap(np.arctan2(unit @ e2, unit @ e1))
    t = mjds - mjds[0]
    if np.ptp(t) > 0:
        omega, phi0 = np.polyfit(t, phase, 1)
    else:
        omega, phi0 = 0.0, float(np.mean(phase))
    pred_phase = phi0 + omega * t
    pred = (np.cos(pred_phase)[:, None] * e1 + np.sin(pred_phase)[:, None] * e2)
    resid = sphere.angle_between(unit, pred)
    rms_arcsec = float(np.sqrt(np.mean(resid ** 2))) * np.degrees(1.0) * ARCSEC_PER_DEG

    p0 = pred[0]
    tangent = omega * (-np.sin(pred_phase[0]) * e1 + np.cos(pred_phase[0]) * e2)
    tn = np.linalg.norm(tangent)
    if tn > 0:
        tangent /= tn
        ra0, dec0 = sphere.unit_to_radec(p0)
        east = np.array([-np.sin(np.radians(ra0)), np.cos(np.radians(ra0)), 0.0])
        north = np.cross(p0, east)
        pa = float(np.degrees(np.arctan2(tangent @ east, tangent @ north))) % 360.0
    else:
        pa = 0.0
    return pred, float(np.degrees(abs(omega))), pa, rms_arcsec


# pair comparisons that one array operation of `link_movers` makes at most,
# which bounds its memory at any rate_max
_MERGE_BATCH = 1 << 20


def link_movers(orphans: np.ndarray, rate_max_deg_day: float,
                residual_max_arcsec: float, min_track_length: int = 3) -> list[MoverTrack]:
    """Link unmatched detections into constant-motion tracks.

    Pairs across adjacent passes define (rate, position angle) candidates;
    pairs sharing a detection merge when their motion parameters agree within
    a residual-scaled tolerance; merged candidates are refit on a great
    circle and kept when the rms residual and rate pass the cuts. Tracks are
    disjoint and the result is independent of input order.
    """
    if rate_max_deg_day <= 0 or residual_max_arcsec <= 0:
        raise ValidationError("rate_max and residual_max must be > 0")
    if min_track_length < 2:
        raise ValidationError("min_track_length must be >= 2")
    if len(orphans) == 0:
        return []
    orphans = np.sort(np.asarray(orphans), order=["det_id"])
    unit = sphere.radec_to_unit(orphans["ra"], orphans["dec"])
    passes = np.unique(orphans["pass_id"])
    by_pass = {int(p): np.flatnonzero(orphans["pass_id"] == p) for p in passes}
    residual_deg = residual_max_arcsec / ARCSEC_PER_DEG

    # candidate pairs (a, b) across adjacent passes, in pass order and by
    # (a, b) within a pass pair: a detection's search angle is rate_max times
    # its longest time to a detection of the next pass, at most pi
    mjd = orphans["mjd"]
    rows_a, rows_b = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for p_lo, p_hi in zip(passes[:-1], passes[1:]):
        rows_lo, rows_hi = by_pass[int(p_lo)], by_pass[int(p_hi)]
        ahead = mjd[rows_hi].min() - mjd[rows_lo] > 0
        rows_lo = rows_lo[ahead]
        if not len(rows_lo):
            continue
        max_sep = np.minimum(np.radians(rate_max_deg_day * (mjd[rows_hi].max() - mjd[rows_lo])),
                             np.pi)
        chord = sphere.chord_for_angle(max_sep)
        edge = max(float(chord.max()), 1e-9)
        q, t = sphere.cell_pairs(sphere.cell_keys(unit[rows_hi], edge),
                                 sphere.cell_keys(unit[rows_lo], edge))
        diff = unit[rows_hi[t]] - unit[rows_lo[q]]
        near = np.einsum("ij,ij->i", diff, diff) <= chord[q] * chord[q]
        q, t = q[near], t[near]
        order = np.lexsort((t, q))
        rows_a.append(rows_lo[q[order]])
        rows_b.append(rows_hi[t[order]])
    a, b = np.concatenate(rows_a), np.concatenate(rows_b)
    dt = mjd[b] - mjd[a]
    a, b, dt = a[dt > 0], b[dt > 0], dt[dt > 0]
    sep = sphere.angle_between(unit[a], unit[b])
    rate = np.degrees(sep) / dt
    # oriented great-circle normal: constant along a track, unlike the
    # coordinate position angle
    normal = np.cross(unit[a], unit[b])
    norm = np.sqrt(sphere.row_dots(normal, normal))
    keep = (rate <= rate_max_deg_day) & (norm >= 1e-15)
    a, b, dt, sep, rate = a[keep], b[keep], dt[keep], sep[keep], rate[keep]
    normal = normal[keep] / norm[keep, None]
    if not len(a):
        return []

    # merge pairs that share a detection and have compatible motion. Each
    # pair is listed under both its detections, sorted by (detection, pair),
    # and each entry is compared with the later entries of its detection;
    # comparisons are numbered and made _MERGE_BATCH at a time.
    det = np.concatenate([a, b])
    pair = np.tile(np.arange(len(a)), 2)
    order = np.lexsort((pair, det))
    det, pair = det[order], pair[order]
    later = np.searchsorted(det, det, side="right") - np.arange(len(det)) - 1
    ends = np.cumsum(later)
    edges_i, edges_j = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for lo in range(0, int(ends[-1]), _MERGE_BATCH):
        c = np.arange(lo, min(lo + _MERGE_BATCH, int(ends[-1])))
        e = np.searchsorted(ends, c, side="right")
        ki, kj = pair[e], pair[e + 1 + c - (ends[e] - later[e])]
        rate_tol = 4.0 * residual_deg / np.minimum(dt[ki], dt[kj])
        near = np.abs(rate[ki] - rate[kj]) <= rate_tol
        ki, kj = ki[near], kj[near]
        # a position jitter of r shifts a pair's plane normal by about
        # r / separation; same orientation required
        tilt_tol = 4.0 * np.radians(residual_deg) / np.maximum(np.minimum(sep[ki], sep[kj]),
                                                               1e-12)
        aligned = (sphere.row_dots(normal[ki], normal[kj])
                   >= np.cos(np.minimum(tilt_tol, np.pi / 2)))
        edges_i.append(ki[aligned])
        edges_j.append(kj[aligned])
    ki, kj = np.concatenate(edges_i), np.concatenate(edges_j)
    n_groups, label = connected_components(
        coo_array((np.ones(len(ki)), (ki, kj)), shape=(len(a), len(a))), directed=False)

    # groups in order of (lowest detection, lowest pair), each as its
    # ascending detection rows
    first_row = np.full(n_groups, len(orphans))
    np.minimum.at(first_row, label, np.minimum(a, b))
    first_pair = np.full(n_groups, len(a))
    np.minimum.at(first_pair, label, np.arange(len(a)))
    rank = np.empty(n_groups, np.int64)
    rank[np.lexsort((first_pair, first_row))] = np.arange(n_groups)
    group, group_rows = np.divmod(np.unique(np.tile(rank[label], 2) * len(orphans)
                                            + np.concatenate([a, b])), len(orphans))

    tracks: list[MoverTrack] = []
    used = np.zeros(len(orphans), dtype=bool)
    for rows in np.split(group_rows, np.flatnonzero(np.diff(group)) + 1):
        rows = rows[~used[rows]]
        if len(rows) < min_track_length:
            continue
        rows = rows[np.argsort(mjd[rows], kind="stable")]
        pred, rate, pa, rms = fit_motion(mjd[rows], unit[rows])
        if rms > residual_max_arcsec or rate > rate_max_deg_day:
            continue
        ra0, dec0 = sphere.unit_to_radec(pred[0])
        tracks.append(MoverTrack(
            track_id=len(tracks) + 1,
            det_ids=orphans["det_id"][rows].astype(np.int64),
            ref_mjd=float(mjd[rows][0]),
            ra=float(ra0), dec=float(dec0),
            rate_deg_day=rate,
            position_angle_deg=pa,
            rms_arcsec=rms,
            debris_candidate=rate > DEBRIS_RATE_CUT,
        ))
        used[rows] = True
    return tracks
