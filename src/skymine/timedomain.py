"""Time-domain mining: light-curve model fits and classification, the
streaming transient trigger, and moving-object linking in motion-parameter
space.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from . import sphere
from .sphere import ARCSEC_PER_DEG


# classification cuts
VARIABILITY_CHI2_DOF = 3.0
PERIODIC_POWER = 0.5
TRANSIENT_SIGMA = 5.0
TRANSIENT_MIN_RUN = 3
# chains spanning less than this fraction of the survey count as bursts
TRANSIENT_SPAN_FRACTION = 0.6
# tracks faster than this rate (deg/day) get the debris-candidate flag
DEBRIS_RATE_CUT = 1.0


def group_chains(recs: np.ndarray):
    """Sort detection records into per-master chains, the form in which
    `fit_lightcurves` and `classify_chains` take them.

    Returns (recs, starts): the records sorted by (master_id, mjd), and the
    offset of each master's first record, in ascending master_id.
    """
    recs = recs.take(np.lexsort((recs["mjd"], recs["master_id"])))
    return recs, np.unique(recs["master_id"], return_index=True)[1]


def _check_chains(recs: np.ndarray) -> None:
    """Reject a chain that repeats an epoch or has a flux error not > 0,
    naming the lowest such master; within a master, a repeated epoch first."""
    master, t = recs["master_id"], recs["mjd"]
    repeats = np.flatnonzero((master[1:] == master[:-1]) & (t[1:] == t[:-1])) + 1
    bad = np.flatnonzero(recs["flux_err"] <= 0)
    if len(repeats) and not (len(bad) and master[bad[0]] < master[repeats[0]]):
        i = repeats[0]
        raise ValidationError("light-curve epochs must strictly increase: "
                              f"master {master[i]}, mjd {t[i]:.6f} repeats")
    if len(bad):
        raise ValidationError(f"flux errors must be > 0: master {master[bad[0]]}, "
                              f"mjd {t[bad[0]]:.6f}")


def _by_length(starts: np.ndarray, counts: np.ndarray, chains: np.ndarray):
    """For each length n among the chains numbered in `chains`: those of n
    records, and their record indices as the rows of a (k x n) matrix."""
    for n in np.unique(counts[chains]).tolist():
        same = chains[counts[chains] == n]
        yield same, starts[same, None] + np.arange(n)


def _constant_fits(recs: np.ndarray, starts: np.ndarray):
    """Check every chain, then fit each a weighted constant: returns each
    chain's length and the fit's mean and chi^2. The chains of one length are
    the rows of one C-contiguous matrix, whose row sums have the bits of each
    row's own np.sum; np.add.reduceat over the records' flat columns would
    not."""
    _check_chains(recs)
    counts = np.diff(starts, append=len(recs))
    mean, chi2 = np.empty(len(starts)), np.empty(len(starts))
    for chains, index in _by_length(starts, counts, np.arange(len(starts))):
        w = 1.0 / recs["flux_err"][index].astype(np.float64) ** 2
        y = recs["flux"][index].astype(np.float64)
        m = np.sum(w * y, axis=1) / np.sum(w, axis=1)
        mean[chains], chi2[chains] = m, np.sum(w * (y - m[:, None]) ** 2, axis=1)
    return counts, mean, chi2


def _static(counts: np.ndarray, chi2: np.ndarray) -> np.ndarray:
    """True where the constant fit's chi^2/dof is within the variability cut;
    such a chain is static whatever its spectrum."""
    return chi2 / np.maximum(counts - 1, 1) <= VARIABILITY_CHI2_DOF


# every matrix product in `_periodograms` has a multiple of this many rows
# and columns. OpenBLAS computes the rows and columns past such a multiple
# with other kernels, and small products with other kernels again, whose
# rounding differs; with no partial tile, a curve's results do not depend on
# which curves share its block or how many there are
_TILE = 16

# curves x grid steps that one block of `_periodograms` holds, so that its
# arrays stay about this size whatever the number of curves and, up to 4,096
# grid steps, the grid; a block holds at least _TILE curves
_PERIODOGRAM_BLOCK = 1 << 16


def _tiles(n: int) -> int:
    """n rounded up to a whole number of _TILE."""
    return -(-n // _TILE) * _TILE


def _trig_basis(freqs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """cos, sin, cos^2 - 1/2 and cos*sin of 2 pi f t for the epoch vector t,
    stacked as four (epoch x frequency) blocks, each padded with zero columns
    to whole tiles. A basis is shared by every light curve observed at its
    epochs."""
    nf = len(freqs)
    basis = np.zeros((4, len(t), _tiles(nf)))
    c, s, h, x = basis[:, :, :nf]
    omega_t = 2.0 * np.pi * freqs * t[:, None]
    np.cos(omega_t, out=c)
    np.sin(omega_t, out=s)
    np.multiply(c, c, out=h)
    h -= 0.5
    np.multiply(c, s, out=x)
    return basis


def _epoch_groups(t: np.ndarray) -> list[np.ndarray]:
    """The rows of the epoch matrix t grouped by equal epoch vectors, from
    one sort of its rows."""
    order = np.lexsort(t.T[::-1])
    t = t[order]
    return np.split(order, np.flatnonzero(np.any(t[1:] != t[:-1], axis=1)) + 1)


def _weights(recs: np.ndarray, index: np.ndarray):
    """The normalised weights and the weighted fluxes of the chains whose
    record indices are the rows of `index`, and each chain's weighted mean
    flux and variance."""
    w = 1.0 / recs["flux_err"][index].astype(np.float64) ** 2
    w /= np.sum(w, axis=1, keepdims=True)
    y = recs["flux"][index].astype(np.float64)
    wy = w * y
    ybar = np.sum(wy, axis=1)
    yy = np.sum(w * (y - ybar[:, None]) ** 2, axis=1)
    return w, wy, ybar, yy


def _spectra(sums: np.ndarray, flux_sums: np.ndarray, ybar: np.ndarray, yy: np.ndarray,
             nf: int):
    """(power, best, amplitude) of chains from their weighted sums: `sums`
    holds the (chain x frequency) products of their weights with the four
    basis blocks and `flux_sums` those of their weighted fluxes with the
    first two, both overwritten. Every array here is whole, tile columns
    too: numpy runs its fast loops only on contiguous operands."""
    cbar, sbar, cc, cs = sums
    yc, ys = flux_sums
    # centre the sums on the weighted means, in place. The weights sum to 1,
    # so sum w cos^2 = 1/2 + C and sum w sin^2 = 1/2 - C, where C is the sum
    # over the cos^2 - 1/2 block; a tile column has cc = ss = 1/2 and power
    # 0. Each step writes into an array it has done with: numpy's
    # temporaries of this size cost as much as the arithmetic.
    ybar = ybar[:, None]
    tmp = np.multiply(ybar, cbar)
    yc -= tmp
    ys -= np.multiply(ybar, sbar, out=tmp)
    cs -= np.multiply(cbar, sbar, out=tmp)
    ss = np.subtract(0.5, cc)
    ss -= np.square(sbar, out=sbar)
    cc += 0.5
    cc -= np.square(cbar, out=cbar)
    d = np.multiply(cc, ss, out=cbar)
    d -= np.square(cs, out=tmp)
    # power = (ss yc^2 + cc ys^2 - 2 cs yc ys) / (yy d)
    with np.errstate(all="ignore"):
        power = np.square(yc, out=sbar)
        power *= ss
        power += np.multiply(np.square(ys, out=tmp), cc, out=tmp)
        np.multiply(2.0, cs, out=tmp)
        tmp *= yc
        tmp *= ys
        power -= tmp
        power /= np.multiply(yy[:, None], d, out=tmp)
    # a constant curve (yy = 0) explains nothing
    safe = (np.abs(d, out=tmp) > 1e-15) & (yy[:, None] > 0)
    np.copyto(power, 0.0, where=~safe)
    np.clip(power, 0.0, 1.0, out=power)
    power = power[:, :nf]
    best = np.argmax(power, axis=1)
    at = (np.arange(len(best)), best)
    yc, ys, cc, ss, cs, d = yc[at], ys[at], cc[at], ss[at], cs[at], d[at]
    with np.errstate(all="ignore"):
        a = np.where(safe[at], (yc * ss - ys * cs) / d, 0.0)
        b = np.where(safe[at], (ys * cc - yc * cs) / d, 0.0)
    return power, best, np.hypot(a, b)


def _periodograms(recs: np.ndarray, index: np.ndarray, freqs: np.ndarray):
    """Yield (rows, power, best, amplitude) for blocks of the chains whose
    record indices are the rows of `index`, chains of one length: the
    block's row numbers in `index`, and for each of its chains the power at
    every trial frequency, the index of its maximum, and the amplitude of
    the best-fit sinusoid there. Power is the fraction of weighted variance
    that the best-fit floating-mean sinusoid explains, in [0, 1] (the
    generalised Lomb-Scargle periodogram of Zechmeister & Kuerster, A&A
    496, 577, 2009).

    Chains that share an epoch vector form a group, and the trig basis is
    computed once per group. A group's chains are taken in blocks of about
    _PERIODOGRAM_BLOCK chains x grid steps. The weights of a block's chains
    are the rows of one matrix, padded with zero rows to whole tiles, whose
    products with the basis blocks give four weighted sums of every chain at
    every frequency; the weighted fluxes' products with the cos and sin
    blocks give two more.
    """
    nf, n = len(freqs), index.shape[1]
    step = max(_TILE, _PERIODOGRAM_BLOCK // nf // _TILE * _TILE)
    t = recs["mjd"][index]
    for group in _epoch_groups(t):
        basis = _trig_basis(freqs, t[group[0]])
        for lo in range(0, len(group), step):
            block = group[lo:lo + step]
            k = len(block)
            w, wy, ybar, yy = _weights(recs, index[block])
            lhs = np.zeros((2, _tiles(k), n))
            lhs[0, :k], lhs[1, :k] = w, wy
            sums = np.matmul(lhs[0], basis)[:, :k]
            flux_sums = np.matmul(lhs[1], basis[:2])[:, :k]
            yield block, *_spectra(sums, flux_sums, ybar, yy, nf)


def _transient_shape(y: np.ndarray, err: np.ndarray) -> np.ndarray:
    """For each row of fluxes y with errors err: True when its significant
    points form one contiguous run, short of the whole row, and the rest of
    the row is consistent with zero flux."""
    sig = y > TRANSIENT_SIGMA * err
    n_sig = np.count_nonzero(sig, axis=1)
    first = np.argmax(sig, axis=1)
    last = sig.shape[1] - 1 - np.argmax(sig[:, ::-1], axis=1)
    quiet = sig | (np.abs(y) < 2.0 * err)
    return ((n_sig >= TRANSIENT_MIN_RUN) & (n_sig < sig.shape[1])
            & (last - first + 1 == n_sig) & quiet.all(axis=1))


def _search(recs: np.ndarray, starts: np.ndarray, counts: np.ndarray,
            chains: np.ndarray, freqs: np.ndarray):
    """Search the chains numbered in `chains`, each of 3+ records. Returns
    (best, power, amplitude, shape) for every chain: the index of its best
    frequency, the power and the best-fit amplitude there, and whether its
    points have a transient's shape; 0 and False for chains not searched.

    The chains of each length are searched by one `_periodograms` call,
    which does the trig work once per distinct epoch vector, not per chain.
    The result does not depend on how chains are grouped.
    """
    best = np.zeros(len(starts), np.int64)
    power, amplitude = np.zeros(len(starts)), np.zeros(len(starts))
    shape = np.zeros(len(starts), bool)
    for same, index in _by_length(starts, counts, chains):
        shape[same] = _transient_shape(recs["flux"][index].astype(np.float64),
                                       recs["flux_err"][index].astype(np.float64))
        with _grid_fits(len(freqs)):
            for rows, p, b, a in _periodograms(recs, index, freqs):
                chain = same[rows]
                best[chain], power[chain], amplitude[chain] = b, p[np.arange(len(b)), b], a
    return best, power, amplitude, shape


def _classes(static: np.ndarray, power: np.ndarray, shape: np.ndarray) -> np.ndarray:
    """Each chain's class from its fit: static by chi^2/dof, else variable if
    periodic, else transient if its points have that shape, else variable."""
    return np.select([static, power > PERIODIC_POWER, shape],
                     ["static", "variable", "transient"], "variable")


@contextlib.contextmanager
def _grid_fits(n_steps: int):
    """Turn a failed allocation of a grid-sized array (the grid, the trig
    basis or a block's sums) into a validation error naming the step count."""
    try:
        yield
    except MemoryError:
        raise ValidationError(f"a frequency grid of {n_steps} steps does not fit in "
                              "memory; use fewer --steps") from None


def _frequency_grid(freq_grid: tuple[float, float, int], t: np.ndarray) -> np.ndarray:
    """The trial frequencies, checked against the epochs t: the trig basis
    needs 2 pi f t finite for every frequency and epoch."""
    f_min, f_max, n_steps = freq_grid
    if not (0 < f_min < f_max < np.inf and n_steps >= 2):
        raise ValidationError("frequency grid must satisfy 0 < f_min < f_max < inf, "
                              "n_steps >= 2")
    with _grid_fits(int(n_steps)):
        freqs = np.linspace(f_min, f_max, int(n_steps))
    t_max = np.max(np.abs(t), initial=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        widest = 2.0 * np.pi * freqs.max() * t_max
    if not np.isfinite(widest):
        raise ValidationError(f"frequency grid overflows: 2 pi f t is not finite "
                              f"for f = {f_max:g} and t = {t_max:g}")
    return freqs


def fit_lightcurves(recs: np.ndarray, starts: np.ndarray,
                    freq_grid: tuple[float, float, int] = (0.01, 2.0, 4000)
                    ) -> np.recarray:
    """Fit every chain of records as `group_chains` returns them, in order: a
    weighted constant fit plus, for chains of 3+ points, a floating-mean
    sinusoid search over a uniform frequency grid. The grid is checked
    first, against every epoch whatever the chains, and then every chain,
    before any fit.

    Returns one record per chain: chi2_const, dof, mean_flux, best_frequency
    (NaN where no search ran), periodic_power, amplitude_fraction and
    classification.
    """
    freqs = _frequency_grid(freq_grid, recs["mjd"])
    counts, mean, chi2 = _constant_fits(recs, starts)
    searched = counts >= 3
    best, power, amplitude, shape = _search(recs, starts, counts, np.flatnonzero(searched),
                                            freqs)
    with np.errstate(divide="ignore", invalid="ignore"):
        fraction = np.where(mean != 0, amplitude / np.abs(mean), 0.0)
    return np.rec.fromarrays(
        (chi2, counts - 1, mean, np.where(searched, freqs[best], np.nan), power, fraction,
         _classes(_static(counts, chi2), power, shape)),
        names="chi2_const,dof,mean_flux,best_frequency,periodic_power,amplitude_fraction,"
              "classification")


def classify_chains(recs: np.ndarray, starts: np.ndarray,
                    freq_grid: tuple[float, float, int],
                    survey_span_days: float | None = None) -> np.ndarray:
    """Class of each chain of records as `group_chains` returns them, in
    order. The grid (against every epoch) and the span are checked first,
    whatever the chains, and then every chain, whatever its class.

    A single detection is a `defect` if flagged, else a `mover-candidate`.
    Given a survey span, a chain spanning less than TRANSIENT_SPAN_FRACTION
    of it is a `transient`. A chain static by chi^2/dof alone is `static`.
    Only the remaining chains are searched, and each takes its fit's class.
    A missing, zero or negative span finds no bursts.
    """
    freqs = _frequency_grid(freq_grid, recs["mjd"])
    if survey_span_days is not None and not np.isfinite(survey_span_days):
        raise ValidationError("survey span must be finite")
    counts, _, chi2 = _constant_fits(recs, starts)
    # epochs strictly increase, so no multi-detection chain is a burst against 0
    burst_span = (TRANSIENT_SPAN_FRACTION * survey_span_days
                  if survey_span_days and survey_span_days > 0 else 0.0)
    t = recs["mjd"]
    burst = t[starts + counts - 1] - t[starts] < burst_span
    static = _static(counts, chi2)
    _, power, _, shape = _search(recs, starts, counts,
                                 np.flatnonzero((counts >= 3) & ~burst & ~static), freqs)
    classes = np.where(burst, "transient", _classes(static, power, shape))
    single = np.where(recs["flags"][starts] != 0, "defect", "mover-candidate")
    return np.where(counts == 1, single, classes)


# ---------------------------------------------------------------------------
# streaming transient trigger

def run_trigger(stream: np.ndarray, masters: np.ndarray, match_radius_arcsec: float,
                k_sigma: float = 5.0) -> np.recarray:
    """Match a (mjd, zone)-ordered detection stream against the predicted
    master catalog: unmatched positions raise new-source alerts, matched
    detections with flux deviating by more than k_sigma combined errors raise
    flux-anomaly alerts. Output order is input order.

    Returns one record per alert: kind, the detection's mjd, ra, dec and
    flux, deviation_sigmas and nearest_master_id (both 0 for a new source).

    A detection's match is the master of largest dot product (the lowest
    master index on ties); it is unmatched when that dot is below
    cos(radius).
    """
    if not match_radius_arcsec > 0:
        raise ValidationError("match_radius must be > 0")
    if not 0 <= k_sigma < np.inf:
        raise ValidationError(f"k_sigma must be finite and >= 0, got {k_sigma!r}")
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
    nearest = np.zeros(len(stream), masters["master_id"].dtype)
    m = masters.take(pick[matched])
    err = stream["flux_err"][matched].astype(np.float64)
    combined = np.sqrt(err ** 2 + m["flux_variance"])
    combined = np.where(combined <= 0, err, combined)
    dev[matched] = np.abs(stream["flux"][matched] - m["mean_flux"]) / combined
    nearest[matched] = m["master_id"]

    alert = ~matched | (dev > k_sigma)
    hits = stream.take(np.flatnonzero(alert))
    return np.rec.fromarrays(
        (np.where(matched[alert], "flux-anomaly", "new-source"), hits["mjd"], hits["ra"],
         hits["dec"], hits["flux"], dev[alert], nearest[alert]),
        names="kind,mjd,ra,dec,flux,deviation_sigmas,nearest_master_id")


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


def _components(n: int, i: np.ndarray, j: np.ndarray) -> tuple[int, np.ndarray]:
    """The connected components of the undirected graph on nodes 0 .. n-1
    with edges (i[e], j[e]): their number, and each node's component,
    numbered in order of the components' lowest nodes.

    Each node points to a lower node of its component, or to itself (a
    root). In each round every root that an edge joins to other roots
    hooks to the lowest of them, and pointer jumping then runs until the
    pointers stop changing, so that every node points to a root again.
    Pointers only fall, so no cycle forms; the rounds end when no edge
    joins two roots, and each component's root is then its lowest node.
    """
    root = np.arange(n)
    while True:
        ri, rj = root[i], root[j]
        cross = ri != rj
        if not cross.any():
            break
        i, j, ri, rj = i[cross], j[cross], ri[cross], rj[cross]
        np.minimum.at(root, ri, rj)
        np.minimum.at(root, rj, ri)
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    roots, label = np.unique(root, return_inverse=True)
    return len(roots), label


def link_movers(orphans: np.ndarray, rate_max_deg_day: float,
                residual_max_arcsec: float, min_track_length: int = 3) -> list[MoverTrack]:
    """Link unmatched detections into constant-motion tracks.

    Pairs across adjacent passes define (rate, position angle) candidates;
    pairs sharing a detection merge when their motion parameters agree within
    a residual-scaled tolerance; merged candidates are refit on a great
    circle and kept when the rms residual and rate pass the cuts. Tracks are
    disjoint and the result is independent of input order, because det_ids
    are unique (`store.validate_records` enforces it at ingest).
    """
    # inf is allowed: no rate limit, or no residual cut
    for name, value in (("rate_max", rate_max_deg_day), ("residual_max", residual_max_arcsec)):
        if not value > 0:
            raise ValidationError(f"{name} must be > 0, got {value!r}")
    if min_track_length < 2:
        raise ValidationError("min_track_length must be >= 2")
    if len(orphans) == 0:
        return []
    orphans = np.asarray(orphans)
    orphans = orphans.take(np.argsort(orphans["det_id"], kind="stable"))
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
    # every dt > 0: `ahead` kept only rows earlier than all of the next pass
    dt = mjd[b] - mjd[a]
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
    n_groups, label = _components(len(a), ki, kj)

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

    # a group only loses rows to earlier tracks, so one that starts short
    # never becomes a track
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    sizes = np.diff(starts, append=len(group))
    long_enough = sizes >= min_track_length
    tracks: list[MoverTrack] = []
    used = np.zeros(len(orphans), dtype=bool)
    for start, size in zip(starts[long_enough].tolist(), sizes[long_enough].tolist()):
        rows = group_rows[start:start + size]
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
