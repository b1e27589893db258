from collections import namedtuple
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from skymine import skygen, sphere, store, timedomain
from skymine.errors import ValidationError


@dataclass
class Curve:
    """One light curve's points, in the form the per-curve oracles below take."""
    epochs: np.ndarray
    fluxes: np.ndarray
    flux_errs: np.ndarray

    def __len__(self):
        return len(self.epochs)


def make_lc(epochs, fluxes, errs):
    return Curve(np.asarray(epochs, float), np.asarray(fluxes, float), np.asarray(errs, float))


CHAIN_DTYPE = np.dtype([("master_id", "<u8"), ("mjd", "<f8"), ("flux", "<f8"),
                        ("flux_err", "<f8"), ("flags", "<u4")])


def records(curves, flags=0):
    """The curves as the chains of masters 0, 1, ... in list order, with the
    given flags, grouped by `group_chains`: (records, starts). Fluxes are
    float64, so that no value is rounded as the store's float32 columns
    would round it."""
    lengths = [len(lc) for lc in curves]
    recs = np.zeros(sum(lengths), CHAIN_DTYPE)
    recs["master_id"] = np.repeat(np.arange(len(curves)), lengths)
    recs["flags"] = np.repeat(np.broadcast_to(flags, len(curves)), lengths)
    for name, field in [("mjd", "epochs"), ("flux", "fluxes"), ("flux_err", "flux_errs")]:
        recs[name] = np.concatenate([np.empty(0)] + [getattr(lc, field) for lc in curves])
    return timedomain.group_chains(recs)


def fits_of(curves, freq_grid):
    """`fit_lightcurves` on the curves, in list order."""
    return timedomain.fit_lightcurves(*records(curves), freq_grid)


def fit_lightcurve(lc, freq_grid=(0.01, 2.0, 4000)):
    """One curve's fit, through `fit_lightcurves`."""
    return fits_of([lc], freq_grid)[0]


def spectra(curves, freqs):
    """Each curve's (power per frequency, best index, amplitude there), in
    list order, from one `_periodograms` call on curves of one length."""
    recs, starts = records(curves)
    index = starts[:, None] + np.arange(len(curves[0]))
    got = [None] * len(curves)
    for rows, *block in timedomain._periodograms(recs, index, freqs):
        for r, p, b, a in zip(rows.tolist(), *block, strict=True):
            got[r] = (p, int(b), float(a))
    return got


def periodogram(lc, freqs):
    """One curve's (power per frequency, best index, amplitude there),
    through the grouped kernel `fit_lightcurves` uses."""
    return spectra([lc], freqs)[0]


def sinusoid_lc(period, n=40, amp=0.4, base=100.0, sigma=1.0, seed=0, span=40.0):
    rng = np.random.Generator(np.random.PCG64(seed))
    t = np.sort(rng.uniform(0, span, n))
    model = base * (1 + amp * np.sin(2 * np.pi * t / period))
    y = model + rng.normal(0, sigma, n)
    return make_lc(t, y, np.full(n, sigma))


class TestLightCurveValidation:
    """Both entry points check every chain, in one array pass before any fit,
    and name the lowest master at fault; within a master, a repeated epoch
    comes first. Records cannot form a chain of unequal columns or of no
    points, so there is no check for either."""

    GRID = (0.01, 2.0, 100)
    OK = make_lc([0, 1, 2], [1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    REPEAT = make_lc([0, 1, 2, 4, 4], [1.0, 2.0, 3.0, 4.0, 5.0], np.ones(5))
    ZERO_ERROR = make_lc([0, 2], [1.0, 2.0], [1.0, 0.0])
    BOTH = make_lc([1, 1], [1.0, 2.0], [0.0, 1.0])

    def check(self, curves, message):
        for entry in [timedomain.fit_lightcurves, timedomain.classify_chains]:
            with pytest.raises(ValidationError, match=message):
                entry(*records(curves), self.GRID)

    def test_nonincreasing_epochs(self):
        self.check([self.REPEAT], "master 0, mjd 4.000000 repeats")

    def test_zero_errors(self):
        self.check([self.ZERO_ERROR], "flux errors must be > 0: master 0, mjd 2.000000")

    @pytest.mark.parametrize("curves, message", [
        ([OK, REPEAT, BOTH], "master 1, mjd 4.000000 repeats"),
        ([OK, BOTH, REPEAT], "master 1, mjd 1.000000 repeats"),
        ([OK, ZERO_ERROR, REPEAT], "flux errors must be > 0: master 1, mjd 2.000000"),
        ([REPEAT, ZERO_ERROR, OK], "master 0, mjd 4.000000 repeats"),
    ], ids=["repeat-before-both", "both", "error-before-repeat", "repeat-before-error"])
    def test_lowest_master_named(self, curves, message):
        self.check(curves, message)

    def test_chains_may_share_epochs(self):
        recs, starts = records([self.OK, self.OK])
        assert len(timedomain.fit_lightcurves(recs, starts, self.GRID)) == 2
        assert len(timedomain.classify_chains(recs, starts, self.GRID)) == 2


class TestFits:
    def test_constant_source_chi2(self):
        rng = np.random.Generator(np.random.PCG64(3))
        n = 200
        lc = make_lc(np.arange(n), 50 + rng.normal(0, 2.0, n), np.full(n, 2.0))
        fit = fit_lightcurve(lc)
        assert 0.5 < fit.chi2_const / fit.dof < 1.5
        assert fit.classification == "static"
        assert fit.mean_flux == pytest.approx(50.0, abs=0.5)

    def test_sinusoid_period_within_one_percent(self):
        lc = sinusoid_lc(period=2.5)
        fit = fit_lightcurve(lc)
        assert fit.classification == "variable"
        assert 1.0 / fit.best_frequency == pytest.approx(2.5, rel=0.01)
        assert fit.amplitude_fraction == pytest.approx(0.4, rel=0.1)
        assert fit.periodic_power > 0.9

    def test_two_point_curve_degenerate(self):
        fit = fit_lightcurve(make_lc([0, 1], [10.0, 10.5], [1.0, 1.0]))
        assert np.isnan(fit.best_frequency)
        assert fit.classification == "static"

    def test_single_point(self):
        fit = fit_lightcurve(make_lc([0], [10.0], [1.0]))
        assert fit.mean_flux == 10.0
        assert np.isnan(fit.best_frequency)

    def test_transient_shape(self):
        n = 30
        t = np.arange(n, dtype=float)
        flux = np.zeros(n)
        flux[10:15] = 50.0
        lc = make_lc(t, flux + 0.01, np.full(n, 1.0))
        fit = fit_lightcurve(lc)
        assert fit.classification == "transient"

    def test_flux_scaling_leaves_frequency_fixed(self):
        lc = sinusoid_lc(period=3.7, seed=5)
        scaled = make_lc(lc.epochs, 1000.0 * lc.fluxes, 1000.0 * lc.flux_errs)
        f1 = fit_lightcurve(lc)
        f2 = fit_lightcurve(scaled)
        assert f1.best_frequency == f2.best_frequency
        assert f1.periodic_power == pytest.approx(f2.periodic_power, rel=1e-9)

    def test_bad_grid(self):
        lc = sinusoid_lc(period=2.0)
        with pytest.raises(ValidationError):
            fit_lightcurve(lc, freq_grid=(2.0, 1.0, 100))

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_power_bounded(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        n = 15
        lc = make_lc(np.sort(rng.uniform(0, 10, n)) + np.arange(n) * 1e-6,
                     rng.uniform(1, 100, n), rng.uniform(0.1, 5, n))
        power, best, _ = periodogram(lc, np.linspace(0.05, 3.0, 200))
        assert np.all((power >= 0) & (power <= 1))
        assert best == np.argmax(power)

    def test_false_variable_rate_below_five_percent(self):
        flagged = 0
        for seed in range(300):
            rng = np.random.Generator(np.random.PCG64(seed))
            n = 30
            lc = make_lc(np.arange(n, dtype=float),
                         100 + rng.normal(0, 1.0, n), np.full(n, 1.0))
            if fit_lightcurve(lc).classification != "static":
                flagged += 1
        assert flagged / 300 < 0.05


# Per-curve reference: the periodogram and fit as computed one curve at a time
# before light curves were fitted in shared-epoch groups.
def oracle_periodogram(lc, freqs):
    w = 1.0 / lc.flux_errs ** 2
    w = w / np.sum(w)
    t = lc.epochs
    y = lc.fluxes
    ybar = np.sum(w * y)
    yy = np.sum(w * (y - ybar) ** 2)
    if yy <= 0:
        return np.zeros(len(freqs)), np.zeros(len(freqs))
    omega_t = 2.0 * np.pi * freqs[:, None] * t[None, :]
    c = np.cos(omega_t)
    s = np.sin(omega_t)
    cbar = c @ w
    sbar = s @ w
    yc = (c * (w * y)) @ np.ones_like(t) - ybar * cbar
    ys = (s * (w * y)) @ np.ones_like(t) - ybar * sbar
    cc = (c * c) @ w - cbar ** 2
    ss = (s * s) @ w - sbar ** 2
    cs = (c * s) @ w - cbar * sbar
    d = cc * ss - cs ** 2
    safe = np.abs(d) > 1e-15
    power = np.zeros(len(freqs))
    a = np.zeros(len(freqs))
    b = np.zeros(len(freqs))
    a[safe] = (yc[safe] * ss[safe] - ys[safe] * cs[safe]) / d[safe]
    b[safe] = (ys[safe] * cc[safe] - yc[safe] * cs[safe]) / d[safe]
    power[safe] = (ss[safe] * yc[safe] ** 2 + cc[safe] * ys[safe] ** 2
                   - 2.0 * cs[safe] * yc[safe] * ys[safe]) / (yy * d[safe])
    amp = np.hypot(a, b)
    return np.clip(power, 0.0, 1.0), amp


def oracle_transient_shape(lc):
    sig = lc.fluxes > timedomain.TRANSIENT_SIGMA * lc.flux_errs
    quiet = np.abs(lc.fluxes) < 2.0 * lc.flux_errs
    if not sig.any() or not (~sig).any():
        return False
    runs = np.flatnonzero(sig)
    contiguous = runs[-1] - runs[0] + 1 == len(runs)
    return bool(contiguous and len(runs) >= timedomain.TRANSIENT_MIN_RUN
                and quiet[~sig].all())


# a fit's fields, in the order of `fit_lightcurves`' records
Fit = namedtuple("Fit", "chi2_const dof mean_flux best_frequency periodic_power "
                        "amplitude_fraction classification")


def oracle_fit(lc, freq_grid):
    w = 1.0 / lc.flux_errs ** 2
    mean = float(np.sum(w * lc.fluxes) / np.sum(w))
    chi2 = float(np.sum(w * (lc.fluxes - mean) ** 2))
    dof = max(len(lc) - 1, 1)
    if len(lc) < 3:
        cls = "static" if chi2 / dof <= timedomain.VARIABILITY_CHI2_DOF else "variable"
        return Fit(chi2, len(lc) - 1, mean, np.nan, 0.0, 0.0, cls)
    freqs = np.linspace(freq_grid[0], freq_grid[1], int(freq_grid[2]))
    power, amp = oracle_periodogram(lc, freqs)
    best = int(np.argmax(power))
    best_frequency = float(freqs[best])
    periodic_power = float(power[best])
    amplitude_fraction = float(amp[best] / abs(mean)) if mean != 0 else 0.0
    if chi2 / dof <= timedomain.VARIABILITY_CHI2_DOF:
        cls = "static"
    elif periodic_power > timedomain.PERIODIC_POWER:
        cls = "variable"
    elif oracle_transient_shape(lc):
        cls = "transient"
    else:
        cls = "variable"
    return Fit(chi2, len(lc) - 1, mean, best_frequency, periodic_power, amplitude_fraction, cls)


def equivalence_curves():
    """Curves on shared and distinct epoch vectors, of 1, 2, 3 and many
    points, of lengths on both sides of numpy's summation blocks (8 and 128
    terms), constant ones, and ones sampled at integer days, whose design
    matrix is near singular at integer frequencies; interleaved so that input
    order differs from epoch-group order."""
    rng = np.random.Generator(np.random.PCG64(77))
    shared = np.sort(rng.uniform(0, 30, 25))
    integer_days = np.arange(12, dtype=float)
    curves = []

    def add(t, flux=None, err=None):
        n = len(t)
        flux = 100 + rng.normal(0, 3.0, n) if flux is None else flux
        err = rng.uniform(0.5, 2.0, n) if err is None else err
        curves.append(make_lc(t, flux, err))

    for k in range(6):
        add(shared)
        add(integer_days)
        add(np.sort(rng.uniform(0, 30, 4 + k)))              # distinct vector
        add(shared + 0.5 * (k + 1))                           # distinct, same length
        add(shared[: k % 3 + 1])                              # 1-, 2-, 3-point
    for n in [8, 9, 128, 129]:
        add(np.sort(rng.uniform(0, 30, n)))
    # constant flux, with weights for which the weighted variance is exactly 0
    add(shared[:16], np.full(16, 42.0), np.full(16, 1.0))
    add(integer_days, np.zeros(12), rng.uniform(0.5, 2.0, 12))
    add(shared, 100 * (1 + 0.3 * np.sin(2 * np.pi * shared / 2.7)),
        np.full(25, 1.0))                                     # periodic
    add(integer_days, 100 + 20 * np.sin(2 * np.pi * integer_days / 3.3),
        np.full(12, 1.0))                                     # singular at f = 1
    return curves


# The output contract of the batched periodogram against the per-curve
# oracle. At each grid frequency, power may differ from the oracle's by
# POWER_ABS + POWER_SINGULAR / |d|, where d = cc ss - cs^2 is the oracle's
# determinant; the amplitude at the best frequency may differ by the same
# form of bound, relative to the oracle's amplitude there. The largest moves
# measured are 0.13 of the power bound and 0.15 of the amplitude bound, over
# every searched curve of the reference store and of seeded 1,000 x 40 and
# 4,000 x 50 surveys, at 1,000 and 4,000 grid steps.
POWER_ABS, POWER_SINGULAR = 2e-11, 2e-14
AMPLITUDE_ABS, AMPLITUDE_SINGULAR = 2e-11, 2e-14


def oracle_determinant(lc, freqs):
    """d = cc ss - cs^2 per frequency, as `oracle_periodogram` computes it."""
    w = 1.0 / lc.flux_errs ** 2
    w = w / np.sum(w)
    omega_t = 2.0 * np.pi * freqs[:, None] * lc.epochs[None, :]
    c, s = np.cos(omega_t), np.sin(omega_t)
    cbar, sbar = c @ w, s @ w
    return ((c * c) @ w - cbar ** 2) * ((s * s) @ w - sbar ** 2) \
        - ((c * s) @ w - cbar * sbar) ** 2


def contract_bound(lc, freqs, absolute, singular):
    with np.errstate(divide="ignore"):
        return absolute + singular / np.abs(oracle_determinant(lc, freqs))


def check_best(lc, freqs, best, power, amplitude, scale=1.0):
    """A searched curve's best frequency index, power and amplitude / scale
    there against the oracle's spectrum, under the contract: the best
    frequency maximises the oracle's power within the power bound."""
    want_power, want_amp = oracle_periodogram(lc, freqs)
    tol = contract_bound(lc, freqs, POWER_ABS, POWER_SINGULAR)
    top = int(np.argmax(want_power))
    assert want_power[best] >= want_power[top] - tol[best] - tol[top]
    assert abs(power - want_power[best]) <= tol[best]
    rel = contract_bound(lc, freqs, AMPLITUDE_ABS, AMPLITUDE_SINGULAR)[best]
    want = want_amp[best] / scale
    assert abs(amplitude - want) <= rel * want


def check_spectra(lcs, freqs):
    """Run `_periodograms` on each epoch group of the curves of 3+ points and
    check every spectrum against the oracle under the contract; returns the
    groups."""
    groups = {}
    for lc in lcs:
        if len(lc) >= 3:
            groups.setdefault(lc.epochs.tobytes(), []).append(lc)
    for group in groups.values():
        for lc, (power, best, amp) in zip(group, spectra(group, freqs), strict=True):
            want_power, _ = oracle_periodogram(lc, freqs)
            tol = contract_bound(lc, freqs, POWER_ABS, POWER_SINGULAR)
            assert np.all(np.abs(power - want_power) <= tol)
            assert best == np.argmax(power)
            check_best(lc, freqs, best, power[best], amp)
    return groups


def crowd_curves():
    """40 curves on one 50-point epoch vector: enough to fill several blocks
    and several tiles of a block."""
    rng = np.random.Generator(np.random.PCG64(78))
    t = np.sort(rng.uniform(0, 30, 50))
    return [make_lc(t, 100 + rng.normal(0, 3.0, 50), rng.uniform(0.5, 2.0, 50))
            for _ in range(40)]


# `_PERIODOGRAM_BLOCK` values: the default, the smallest block (one tile of
# curves) and one block per group on the test grids; every group, of one
# chain or many, runs in blocks of whole tiles
BLOCK_SIZES = [timedomain._PERIODOGRAM_BLOCK, 1, 1 << 20]
each_block_size = pytest.mark.parametrize("block", BLOCK_SIZES,
                                          ids=["default", "smallest", "largest"])


class TestGroupedFitEquivalence:
    GRIDS = [(0.01, 2.0, 400), (0.5, 1.5, 201), (0.999, 1.001, 101)]

    @each_block_size
    @pytest.mark.parametrize("grid", GRIDS)
    def test_fits_within_contract(self, monkeypatch, grid, block):
        monkeypatch.setattr(timedomain, "_PERIODOGRAM_BLOCK", block)
        freqs = np.linspace(*grid)
        curves = equivalence_curves() + crowd_curves()
        fits = fits_of(curves, grid)
        assert len(fits) == len(curves)
        for lc, fit in zip(curves, fits):
            want = oracle_fit(lc, grid)
            assert (fit.chi2_const, fit.dof, fit.mean_flux, fit.classification) \
                == (want.chi2_const, want.dof, want.mean_flux, want.classification)
            if np.isnan(want.best_frequency):
                np.testing.assert_equal(fit.tolist(), tuple(want))
                continue
            best = int(np.flatnonzero(freqs == fit.best_frequency)[0])
            if fit.mean_flux == 0:
                assert fit.amplitude_fraction == want.amplitude_fraction == 0
                continue
            check_best(lc, freqs, best, fit.periodic_power, fit.amplitude_fraction,
                       abs(fit.mean_flux))

    @each_block_size
    @pytest.mark.parametrize("grid", GRIDS)
    def test_periodogram_within_contract(self, monkeypatch, grid, block):
        monkeypatch.setattr(timedomain, "_PERIODOGRAM_BLOCK", block)
        groups = check_spectra(equivalence_curves() + crowd_curves(), np.linspace(*grid))
        assert max(map(len, groups.values())) > 2 * timedomain._TILE

    def test_reference_store_within_contract(self, reference_store):
        recs, starts = timedomain.group_chains(store.read_all(reference_store))
        curves = [make_lc(c["mjd"], c["flux"], c["flux_err"]) for c in np.split(recs, starts[1:])]
        assert len(check_spectra(curves, np.linspace(0.01, 2.0, 4000))) > 1

    @pytest.mark.parametrize("grid", GRIDS)
    def test_results_independent_of_block(self, monkeypatch, grid):
        """Every curve's fit and spectrum are the same bits whatever curves
        share its group or block, also fitted alone."""
        freqs = np.linspace(*grid)
        curves = equivalence_curves() + crowd_curves()
        crowd = crowd_curves()

        def bits(group):
            return [(p.tolist(), b, a) for p, b, a in spectra(group, freqs)]

        want = fits_of(curves, grid)
        want_crowd = [bits([lc])[0] for lc in crowd]
        for block in BLOCK_SIZES + [20 * grid[2], 33 * grid[2]]:
            monkeypatch.setattr(timedomain, "_PERIODOGRAM_BLOCK", block)
            assert fits_of(curves, grid).tobytes() == want.tobytes()
            assert fits_of(curves[::-1], grid).tobytes() == want[::-1].tobytes()
            assert bits(crowd) == want_crowd
            assert bits(crowd[::-1]) == want_crowd[::-1]
        assert np.concatenate([fits_of([lc], grid) for lc in curves]).tobytes() == want.tobytes()

    @each_block_size
    @pytest.mark.parametrize("grid", GRIDS + [(0.01, 2.0, 1000), (0.01, 2.0, 4000)])
    def test_groups_of_one_length_match_alone(self, monkeypatch, grid, block):
        """Chains of one length on several epoch vectors, lone ones among
        them, searched in one `_periodograms` call: each group takes its own
        blocks, of one tile up to _TILE chains and of two at _TILE + 1, and
        every chain gets the bits it gets alone."""
        monkeypatch.setattr(timedomain, "_PERIODOGRAM_BLOCK", block)
        freqs = np.linspace(*grid)
        rng = np.random.Generator(np.random.PCG64(79))
        base = np.sort(rng.uniform(0, 30, 20))
        # pairs of vectors that differ in one epoch only: the first, a middle
        # one or the last
        vectors = [base + shift for shift in [0.0, 0.0, 0.5, 0.5, 1.0, 1.0, 1.5]]
        vectors[1][0] -= 0.25
        vectors[3][10] = (vectors[3][9] + vectors[3][10]) / 2
        vectors[5][19] += 1.0
        curves = []
        for t, size in zip(vectors, [1, 3, 1, 2, timedomain._TILE, timedomain._TILE + 1, 1]):
            curves += [make_lc(t, 100 + rng.normal(0, 3.0, 20), rng.uniform(0.5, 2.0, 20))
                       for _ in range(size)]
        assert len({lc.epochs.tobytes() for lc in curves}) == len(vectors)
        order = rng.permutation(len(curves))
        curves = [curves[i] for i in order]

        def bits(group):
            return [(p.tolist(), b, a) for p, b, a in spectra(group, freqs)]

        assert bits(curves) == [bits([lc])[0] for lc in curves]

    @pytest.mark.parametrize("n", [3, 20, 50])
    @pytest.mark.parametrize("grid", GRIDS + [(0.01, 2.0, 1000), (0.01, 2.0, 4000)])
    def test_stacked_and_block_paths_agree(self, grid, n):
        """A group of _TILE chains takes one tile, and one of _TILE + 1 two
        tiles, through the same block loop; a chain's bits are the same in
        both."""
        freqs = np.linspace(*grid)
        rng = np.random.Generator(np.random.PCG64(80))
        t = np.sort(rng.uniform(0, 30, n))
        crowd = [make_lc(t, 100 + rng.normal(0, 3.0, n), rng.uniform(0.5, 2.0, n))
                 for _ in range(timedomain._TILE + 1)]
        stacked = spectra(crowd[:-1], freqs)
        blocked = spectra(crowd, freqs)[:-1]
        assert [(p.tolist(), b, a) for p, b, a in stacked] \
            == [(p.tolist(), b, a) for p, b, a in blocked]

    def test_three_point_curve_fits_exactly(self):
        """Three points fix a floating-mean sinusoid's three parameters, so
        its power is 1 wherever d is not near singular. The values that
        round to 1 or above clip to exactly 1: the best frequency is the
        first of these ties, which rounding decides."""
        lc = make_lc([0.0, 1.3, 3.1], [10.0, 14.0, 9.0], [1.0, 0.5, 2.0])
        freqs = np.linspace(0.01, 2.0, 4000)
        power, best, _ = periodogram(lc, freqs)
        d = np.abs(oracle_determinant(lc, freqs))
        regular = d > 1e-6
        assert regular.mean() > 0.9
        assert np.all(np.abs(power[regular] - 1.0)
                      <= POWER_ABS + POWER_SINGULAR / d[regular])
        assert np.count_nonzero(power == 1.0) > 10
        assert best == np.flatnonzero(power == 1.0)[0]

    def test_grid_covers_singular_and_constant_cases(self):
        freqs = np.linspace(*self.GRIDS[1])
        curves = equivalence_curves()
        d = oracle_determinant(curves[-1], freqs)
        assert np.any(np.abs(d) <= 1e-15) and np.any(np.abs(d) > 1e-15)
        constant = [lc for lc in curves if len(lc) >= 3 and np.ptp(lc.fluxes) == 0]
        assert len(constant) == 2
        assert all(not periodogram(lc, freqs)[0].any() for lc in constant)

    def test_bad_grid_rejected_for_short_only_curves(self):
        short = [make_lc([0, 1], [1.0, 2.0], [1.0, 1.0]), make_lc([0], [1.0], [1.0])]
        for bad in [(2.0, 1.0, 10), (0.5, 1.0, 1), (0.0, 1.0, 10), (0.5, np.inf, 10)]:
            with pytest.raises(ValidationError, match="frequency grid"):
                fits_of(short, bad)
            with pytest.raises(ValidationError, match="frequency grid"):
                fits_of([], bad)
        assert np.isnan(fits_of(short, (0.5, 1.0, 2))[0].best_frequency)

    def test_group_chains_sorts_by_master_then_mjd(self):
        recs = np.zeros(6, dtype=store.DET_DTYPE)
        recs["master_id"] = [3, 1, 3, 2, 1, 3]
        recs["mjd"] = [5.0, 2.0, 1.0, 4.0, 1.0, 3.0]
        recs, starts = timedomain.group_chains(recs)
        assert recs["master_id"].tolist() == [1, 1, 2, 3, 3, 3]
        assert recs["mjd"].tolist() == [1.0, 2.0, 4.0, 1.0, 3.0, 5.0]
        assert starts.tolist() == [0, 2, 3]

    def test_repeated_epoch_names_master_and_mjd(self):
        curves = [make_lc([0], [1.0], [1.0])] * 9 + [make_lc([1, 3, 3], [1.0, 2.0, 3.0],
                                                             [1.0, 1.0, 1.0])]
        with pytest.raises(ValidationError, match="master 9, mjd 3.000000 repeats"):
            fits_of(curves, (0.01, 2.0, 100))


def oracle_classes(curves, grid, span=None, flags=0):
    """Each curve's class from the full fit of every curve, plus the
    single-detection and burst rules."""
    classes = []
    for lc, fit, flag in zip(curves, fits_of(curves, grid),
                             np.broadcast_to(flags, len(curves)).tolist()):
        if len(lc) == 1:
            classes.append("defect" if flag else "mover-candidate")
            continue
        burst = span and lc.epochs[-1] - lc.epochs[0] < timedomain.TRANSIENT_SPAN_FRACTION * span
        classes.append("transient" if burst else fit.classification)
    return classes


def classify(curves, grid, span=None, flags=0):
    """`classify_chains` on the curves as masters 0, 1, ...; returns the
    classes and the sorted numbers of the masters that `_periodograms`
    searched."""
    seen = []
    real = timedomain._periodograms

    def spy(recs, index, freqs):
        seen.extend(recs["master_id"][index[:, 0]].tolist())
        return real(recs, index, freqs)

    with mock.patch.object(timedomain, "_periodograms", spy):
        classes = timedomain.classify_chains(*records(curves, flags), grid, span)
    return classes.tolist(), sorted(seen)


class TestClassesOnly:
    """`classify_chains` searches only the chains whose class can depend on a
    spectrum: not single detections, bursts, or curves static by chi^2/dof
    alone. Every class equals the oracle's, from the full fit of every
    chain."""

    GRID = (0.01, 2.0, 200)

    def check(self, curves, span=None):
        flags = np.arange(len(curves)) % 2
        classes, seen = classify(curves, self.GRID, span, flags)
        assert classes == oracle_classes(curves, self.GRID, span, flags)
        full = fits_of(curves, self.GRID)
        static = [len(lc) >= 3 and f.chi2_const / f.dof <= timedomain.VARIABILITY_CHI2_DOF
                  for lc, f in zip(curves, full)]
        cut = timedomain.TRANSIENT_SPAN_FRACTION * span if span else -np.inf
        assert seen == [k for k, lc in enumerate(curves) if len(lc) >= 3 and not static[k]
                        and lc.epochs[-1] - lc.epochs[0] >= cut]
        return full, sum(static)

    # chi^2/dof is exactly 3 for each: the weighted mean is exactly 100 and
    # every square and sum is exact
    AT_CUT = [
        ([-1.5, 1.5, -1.5, 1.5], 1.0),
        ([-3.0, 3.0, -3.0, 3.0], 2.0),
        ([-0.75, 0.75, -0.75, 0.75], 0.5),
        ([-2.0, 1.0, -2.0, 0.0, 2.0, -1.0, 2.0], 1.0),
    ]

    @pytest.mark.parametrize("offsets, err", AT_CUT)
    @pytest.mark.parametrize("scale", [1.0 - 1e-9, 1.0, 1.0 + 1e-9])
    def test_both_sides_of_the_cut(self, offsets, err, scale):
        n = len(offsets)
        lc = make_lc(np.arange(n) * 1.7, 100.0 + scale * np.array(offsets),
                     np.full(n, err))
        full, skipped = self.check([lc])
        ratio = full[0].chi2_const / full[0].dof
        if scale == 1.0:
            assert ratio == timedomain.VARIABILITY_CHI2_DOF
        assert (ratio <= timedomain.VARIABILITY_CHI2_DOF) == (scale <= 1.0)
        assert skipped == (scale <= 1.0)

    @given(st.integers(1, 20), st.one_of(st.just(1.0), st.floats(0.5, 1.5)),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_classes_match_near_the_cut(self, n, ratio, seed):
        """Curves scaled to chi^2/dof near ratio * VARIABILITY_CHI2_DOF."""
        rng = np.random.Generator(np.random.PCG64(seed))
        t = np.sort(rng.uniform(0, 30, n)) + np.arange(n) * 1e-3
        err = rng.uniform(0.5, 2.0, n)
        w = 1.0 / err ** 2
        dev = rng.normal(0, 1, n)
        dev -= np.sum(w * dev) / np.sum(w)
        chi2 = np.sum(w * dev ** 2)
        if chi2 > 0:
            dev *= np.sqrt(timedomain.VARIABILITY_CHI2_DOF * max(n - 1, 1) * ratio / chi2)
        self.check([make_lc(t, 100.0 + dev, err)])

    def test_mixed_curves_in_one_call(self):
        curves = equivalence_curves()
        for span in [None, 20.0, 40.0]:
            _, skipped = self.check(curves, span)
            assert skipped > 0
        assert classify(curves, self.GRID, 40.0)[0].count("transient") \
            > classify(curves, self.GRID)[0].count("transient")


class TestClassifyChain:
    GRID = (0.01, 2.0, 4000)
    # a variable chain spanning 3 days: a burst against a 50-day survey
    BURST = make_lc([0, 1, 2, 3], [50, 55, 52, 48], [1, 1, 1, 1])

    def test_single_flagged_is_defect(self):
        curves = [make_lc([0], [10.0], [1.0])]
        assert classify(curves, self.GRID, flags=4) == (["defect"], [])
        assert oracle_classes(curves, self.GRID, flags=4) == ["defect"]

    def test_single_clean_is_mover_candidate(self):
        curves = [make_lc([0], [10.0], [1.0])]
        assert classify(curves, self.GRID) == (["mover-candidate"], [])
        assert oracle_classes(curves, self.GRID) == ["mover-candidate"]

    def test_short_chain_is_transient(self):
        curves = [self.BURST]
        assert classify(curves, self.GRID, 50.0)[0] == ["transient"]
        assert oracle_classes(curves, self.GRID, 50.0) == ["transient"]
        assert fit_lightcurve(self.BURST).classification != "transient"

    def test_full_span_static(self):
        n = 20
        curves = [make_lc(np.arange(n, dtype=float), np.full(n, 50.0), np.full(n, 1.0))]
        assert classify(curves, self.GRID, 20.0) == (["static"], [])
        assert oracle_classes(curves, self.GRID, 20.0) == ["static"]

    def test_burst_needs_no_fit(self):
        curves = [self.BURST]
        assert classify(curves, self.GRID, 50.0) == (["transient"], [])
        # against a 5-day span, or none, the chain is no burst and is searched
        for span in [5.0, None, 0.0, -50.0]:
            classes, seen = classify(curves, self.GRID, span)
            assert seen == [0]
            assert classes == oracle_classes(curves, self.GRID, span) == ["variable"]

    def test_one_constant_fit_per_chain(self, monkeypatch):
        """One array pass fits every chain's weighted constant, searched or
        not, and nothing fits one again."""
        fitted = []
        real = timedomain._constant_fits

        def spy(recs, starts):
            fitted.extend(recs["master_id"][starts].tolist())
            return real(recs, starts)

        monkeypatch.setattr(timedomain, "_constant_fits", spy)
        curves = equivalence_curves()
        _, seen = classify(curves, self.GRID)
        assert fitted == list(range(len(curves)))
        assert 0 < len(seen) < len(curves)

    def test_bad_grid_rejected_whatever_the_chains(self):
        for curves in [[], [make_lc([0], [1.0], [1.0])], [self.BURST]]:
            with pytest.raises(ValidationError, match="frequency grid"):
                timedomain.classify_chains(*records(curves), (2.0, 1.0, 10), 50.0)


def survey_with_masters(tmp_path, **kw):
    cfg = skygen.SurveyConfig(**kw)
    truth, det, labels, _ = skygen.write_survey(cfg, tmp_path)
    store.build_indexes(tmp_path, 1.0)
    masters, _ = store.build_master(tmp_path, 1.0)
    return truth, det, labels, masters


def dense_trigger(stream, masters, match_radius_arcsec, k_sigma=5.0):
    """The trigger as a chunked dense matmul over every master, which
    `run_trigger` replaced; kept as its oracle. The stream must be ordered.
    Returns each alert's record as a tuple."""
    det_unit = sphere.radec_to_unit(stream["ra"], stream["dec"])
    master_unit = sphere.radec_to_unit(masters["ra"], masters["dec"])
    cos_limit = np.cos(np.radians(match_radius_arcsec / sphere.ARCSEC_PER_DEG))
    alerts = []
    if len(masters) == 0:
        return [("new-source", float(d["mjd"]), float(d["ra"]), float(d["dec"]),
                 float(d["flux"]), 0.0, 0) for d in stream]
    chunk = max(1, int(4e6 / len(masters)))
    for lo in range(0, len(stream), chunk):
        hi = min(lo + chunk, len(stream))
        dots = det_unit[lo:hi] @ master_unit.T
        best = np.argmax(dots, axis=1)
        best_dot = dots[np.arange(hi - lo), best]
        for i in range(hi - lo):
            d = stream[lo + i]
            if best_dot[i] < cos_limit:
                alerts.append(("new-source", float(d["mjd"]), float(d["ra"]), float(d["dec"]),
                               float(d["flux"]), 0.0, 0))
                continue
            m = masters[best[i]]
            combined = np.sqrt(float(d["flux_err"]) ** 2 + float(m["flux_variance"]))
            if combined <= 0:
                combined = float(d["flux_err"])
            dev = abs(float(d["flux"]) - float(m["mean_flux"])) / combined
            if dev > k_sigma:
                alerts.append(("flux-anomaly", float(d["mjd"]), float(d["ra"]), float(d["dec"]),
                               float(d["flux"]), float(dev), int(m["master_id"])))
    return alerts


def all_pairs(keys, query):
    """Stand-in for `sphere.cell_pairs` that makes every key a candidate of
    every query."""
    return (np.repeat(np.arange(len(query)), len(keys)),
            np.tile(np.arange(len(keys)), len(query)))


def offset(unit, angle_rad, rng):
    """Unit vectors `angle_rad` away from each row of `unit`, in random
    directions."""
    tangent = np.cross(unit, rng.normal(size=unit.shape))
    tangent /= np.linalg.norm(tangent, axis=1, keepdims=True)
    return unit * np.cos(angle_rad)[:, None] + tangent * np.sin(angle_rad)[:, None]


def trigger_case(masters_unit, stream_unit, rng, flux=None):
    """Masters (ids 1..M, mean flux 100) and a (mjd, zone)-ordered stream."""
    masters = np.zeros(len(masters_unit), dtype=store.MASTER_DTYPE)
    masters["master_id"] = np.arange(1, len(masters) + 1)
    masters["ra"], masters["dec"] = sphere.unit_to_radec(masters_unit)
    masters["mean_flux"] = 100.0
    masters["flux_variance"] = rng.uniform(0.0, 4.0, len(masters))
    stream = np.zeros(len(stream_unit), dtype=store.DET_DTYPE)
    stream["det_id"] = np.arange(1, len(stream) + 1)
    stream["mjd"] = 60000.0 + rng.integers(0, 3, len(stream))
    stream["ra"], stream["dec"] = sphere.unit_to_radec(stream_unit)
    stream["zone"] = sphere.zone_of(stream["dec"], 1.0)
    stream["flux"] = 100.0 + rng.normal(0.0, 6.0, len(stream)) if flux is None else flux
    stream["flux_err"] = 1.0
    return stream[np.lexsort((stream["zone"], stream["mjd"]))], masters


class TestTriggerOracle:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("radius", [0.5, 2.0, 10.0, 3600.0])
    def test_seeded_streams_match_dense_oracle(self, seed, radius):
        rng = np.random.Generator(np.random.PCG64(seed))
        theta = np.radians(radius / 3600.0)
        sky = sphere.radec_to_unit(rng.uniform(0, 360, 600),
                                   np.degrees(np.arcsin(rng.uniform(-1, 1, 600))))
        # close master pairs make the nearest choice matter
        masters_unit = np.concatenate([sky[:500], offset(sky[:100], theta * rng.uniform(
            0.2, 1.5, 100), rng)])
        near = offset(masters_unit[rng.integers(0, 600, 400)],
                      theta * rng.uniform(0.0, 2.0, 400), rng)
        stream, masters = trigger_case(masters_unit, np.concatenate([near, sky[500:]]), rng)
        got = timedomain.run_trigger(stream, masters, radius)
        assert {a.kind for a in got} == {"new-source", "flux-anomaly"}
        assert got.tolist() == dense_trigger(stream, masters, radius)

    @pytest.mark.parametrize("radius", [60.0, 3600.0])
    def test_radius_boundary_matches_dense_oracle(self, radius):
        # At 2" a relative change of 1e-6 in angle moves cos by less than one
        # ulp, so the dot test cannot see it; at 60" it is hundreds of ulps.
        rng = np.random.Generator(np.random.PCG64(5))
        theta = np.radians(radius / 3600.0)
        masters_unit = sphere.radec_to_unit(rng.uniform(0, 360, 50),
                                            rng.uniform(-60, 60, 50))
        scale = np.repeat([1 - 1e-6, 1 + 1e-6], 50)
        stream_unit = offset(np.concatenate([masters_unit] * 2), theta * scale, rng)
        stream, masters = trigger_case(masters_unit, stream_unit, rng, flux=200.0)
        got = timedomain.run_trigger(stream, masters, radius)
        assert got.tolist() == dense_trigger(stream, masters, radius)
        assert sorted(a.kind for a in got) == ["flux-anomaly"] * 50 + ["new-source"] * 50

    @pytest.mark.parametrize("lower", ["north", "south"])
    def test_equidistant_masters_go_to_lower_index(self, lower):
        rng = np.random.Generator(np.random.PCG64(6))
        north, south = sphere.radec_to_unit([10.0, 10.0], [1 / 3600, -1 / 3600])
        pair = [north, south] if lower == "north" else [south, north]
        stream, masters = trigger_case(np.array(pair), sphere.radec_to_unit([10.0], [0.0]),
                                       rng, flux=200.0)
        got = timedomain.run_trigger(stream, masters, 2.0)
        assert got.tolist() == dense_trigger(stream, masters, 2.0)
        assert [(a.kind, a.nearest_master_id) for a in got] == [("flux-anomaly", 1)]

    @pytest.mark.parametrize("radius,spread", [(1e-4, (0.0, 40.0)), (1e-3, (0.0, 10.0)),
                                               (2.0, (1 - 3e-6, 1 + 3e-6))])
    def test_candidates_cover_every_master_the_dot_admits(self, monkeypatch, radius, spread):
        # Rounding lets the dot test admit masters beyond the chord: up to
        # about 20 chords at 1e-4", a few parts in 1e6 of it at 2".
        rng = np.random.Generator(np.random.PCG64(8))
        theta = np.radians(radius / 3600.0)
        masters_unit = sphere.radec_to_unit(rng.uniform(0, 360, 200), rng.uniform(-80, 80, 200))
        stream_unit = offset(np.repeat(masters_unit, 5, axis=0),
                             theta * rng.uniform(*spread, 1000), rng)
        stream, masters = trigger_case(masters_unit, stream_unit, rng)
        got = timedomain.run_trigger(stream, masters, radius)
        monkeypatch.setattr(sphere, "cell_pairs", all_pairs)
        want = timedomain.run_trigger(stream, masters, radius)
        assert got.tolist() == want.tolist()
        assert 0.1 < sum(a.kind == "new-source" for a in want) / len(stream) < 0.9

    def test_no_masters(self):
        rng = np.random.Generator(np.random.PCG64(7))
        stream, masters = trigger_case(np.empty((0, 3)),
                                       sphere.radec_to_unit([10.0, 20.0], [0.0, 5.0]), rng)
        got = timedomain.run_trigger(stream, masters, 2.0)
        assert got.tolist() == dense_trigger(stream, masters, 2.0)
        assert [a.kind for a in got] == ["new-source"] * 2


class TestTrigger:
    def make_stream(self, masters, rows, flux, mjd=60000.0):
        stream = np.zeros(len(rows), dtype=store.DET_DTYPE)
        stream["det_id"] = np.arange(1, len(rows) + 1)
        stream["mjd"] = mjd
        stream["ra"] = masters["ra"][rows]
        stream["dec"] = masters["dec"][rows]
        stream["flux"] = flux
        stream["flux_err"] = 1.0
        stream["zone"] = sphere.zone_of(stream["dec"], 1.0)
        order = np.lexsort((stream["zone"], stream["mjd"]))
        return stream[order]

    def test_quiescent_stream_is_silent(self, tmp_path):
        _, _, _, masters = survey_with_masters(
            tmp_path, n_objects=100, passes=10, seed=9)
        rows = np.arange(len(masters))
        stream = self.make_stream(masters, rows, masters["mean_flux"][rows])
        assert len(timedomain.run_trigger(stream, masters, 2.0, k_sigma=5.0)) == 0

    def test_new_source_alert(self, tmp_path):
        _, _, _, masters = survey_with_masters(
            tmp_path, n_objects=50, passes=5, seed=10)
        stream = np.zeros(1, dtype=store.DET_DTYPE)
        stream["det_id"] = 1
        stream["mjd"] = 60000.0
        # antipode of the first master: guaranteed empty sky
        stream["ra"] = (masters["ra"][0] + 180.0) % 360.0
        stream["dec"] = -masters["dec"][0]
        stream["flux"] = 500.0
        stream["flux_err"] = 1.0
        alerts = timedomain.run_trigger(stream, masters, 2.0)
        assert [a.kind for a in alerts] == ["new-source"]
        assert alerts[0].nearest_master_id == 0

    def test_flux_anomaly_threshold(self, tmp_path):
        _, _, _, masters = survey_with_masters(
            tmp_path, n_objects=20, passes=10, seed=11)
        quiet = masters["flux_variance"] < 1.0
        target = int(np.flatnonzero(quiet)[0])
        combined = np.sqrt(1.0 + masters["flux_variance"][target])
        stream = self.make_stream(masters, np.array([target]),
                                  masters["mean_flux"][target] + 10.0 * combined)
        alerts = timedomain.run_trigger(stream, masters, 2.0, k_sigma=5.0)
        assert [a.kind for a in alerts] == ["flux-anomaly"]
        assert alerts[0].deviation_sigmas == pytest.approx(10.0, rel=0.05)
        assert alerts[0].nearest_master_id == masters["master_id"][target]

    def test_unordered_stream_rejected(self, tmp_path):
        _, _, _, masters = survey_with_masters(
            tmp_path, n_objects=10, passes=3, seed=12)
        stream = self.make_stream(masters, np.arange(4), 100.0)
        stream["mjd"] = [60001.0, 60000.0, 60002.0, 60003.0]
        with pytest.raises(ValidationError, match="record 1"):
            timedomain.run_trigger(stream, masters, 2.0)

    def test_bad_radius(self, tmp_path):
        with pytest.raises(ValidationError):
            timedomain.run_trigger(np.empty(0, dtype=store.DET_DTYPE),
                                   np.empty(0, dtype=store.MASTER_DTYPE), 0.0)
        with pytest.raises(ValidationError, match="match_radius"):
            timedomain.run_trigger(np.empty(0, dtype=store.DET_DTYPE),
                                   np.empty(0, dtype=store.MASTER_DTYPE), np.nan)


def mover_orphans(tracks, passes, cadence=1.0, start_mjd=59000.0):
    """Synthesize orphan detections for exact great-circle movers.

    tracks: list of (ra0, dec0, rate_deg_day, position_angle_deg)."""
    chunks = []
    det_id = 1
    for ra0, dec0, rate, pa in tracks:
        u0 = sphere.radec_to_unit(ra0, dec0)
        east, north = skygen._tangent_basis(u0[None, :])
        d = north[0] * np.cos(np.radians(pa)) + east[0] * np.sin(np.radians(pa))
        recs = np.zeros(passes, dtype=store.DET_DTYPE)
        for p in range(passes):
            arc = np.radians(rate) * p * cadence
            u = u0 * np.cos(arc) + d * np.sin(arc)
            ra, dec = sphere.unit_to_radec(u[None, :])
            recs["ra"][p] = ra[0]
            recs["dec"][p] = dec[0]
            recs["mjd"][p] = start_mjd + p * cadence
            recs["pass_id"][p] = p
        recs["det_id"] = np.arange(det_id, det_id + passes)
        det_id += passes
        recs["flux"] = 100.0
        recs["flux_err"] = 1.0
        chunks.append(recs)
    return np.concatenate(chunks)


def mover_fields(tracks):
    return [(t.track_id, t.det_ids.tolist(), t.ref_mjd, t.ra, t.dec, t.rate_deg_day,
             t.position_angle_deg, t.rms_arcsec, t.debris_candidate) for t in tracks]


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def reference_link_movers(orphans, rate_max_deg_day, residual_max_arcsec,
                          min_track_length=3):
    """`link_movers` as a per-pair loop with a union-find over pairs, which
    the array passes replaced; kept as their oracle."""
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
    residual_deg = residual_max_arcsec / sphere.ARCSEC_PER_DEG

    mjd = orphans["mjd"]
    pair_rows = []
    pair_params = []
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
        for row_a, row_b in zip(rows_lo[q[order]].tolist(), rows_hi[t[order]].tolist()):
            dt_ab = float(mjd[row_b] - mjd[row_a])
            if dt_ab <= 0:
                continue
            sep = float(sphere.angle_between(unit[row_a], unit[row_b]))
            rate = np.degrees(sep) / dt_ab
            if rate > rate_max_deg_day:
                continue
            normal = np.cross(unit[row_a], unit[row_b])
            nn = np.linalg.norm(normal)
            if nn < 1e-15:
                continue
            pair_rows.append((row_a, row_b))
            pair_params.append((rate, normal / nn, dt_ab, sep))
    if not pair_rows:
        return []

    uf = _UnionFind(len(pair_rows))
    by_det = {}
    for k, (a, b) in enumerate(pair_rows):
        by_det.setdefault(a, []).append(k)
        by_det.setdefault(b, []).append(k)
    for shared in by_det.values():
        for i in range(len(shared)):
            for j in range(i + 1, len(shared)):
                ki, kj = shared[i], shared[j]
                r1, n1, dt1, sep1 = pair_params[ki]
                r2, n2, dt2, sep2 = pair_params[kj]
                rate_tol = 4.0 * residual_deg / min(dt1, dt2)
                if abs(r1 - r2) > rate_tol:
                    continue
                tilt_tol = 4.0 * np.radians(residual_deg) / max(min(sep1, sep2), 1e-12)
                if float(n1 @ n2) < np.cos(min(tilt_tol, np.pi / 2)):
                    continue
                uf.union(ki, kj)

    groups = {}
    for k, (a, b) in enumerate(pair_rows):
        root = uf.find(k)
        groups.setdefault(root, set()).update((a, b))

    tracks = []
    used_rows = set()
    track_id = 1
    for root in sorted(groups, key=lambda r: min(groups[r])):
        rows = sorted(groups[root] - used_rows)
        if len(rows) < min_track_length:
            continue
        rows_arr = np.asarray(rows)
        order = np.argsort(orphans["mjd"][rows_arr], kind="stable")
        rows_arr = rows_arr[order]
        pred, rate, pa, rms = timedomain.fit_motion(orphans["mjd"][rows_arr], unit[rows_arr])
        if rms > residual_max_arcsec or rate > rate_max_deg_day:
            continue
        ra0, dec0 = sphere.unit_to_radec(pred[0])
        tracks.append(timedomain.MoverTrack(
            track_id=track_id,
            det_ids=orphans["det_id"][rows_arr].astype(np.int64),
            ref_mjd=float(orphans["mjd"][rows_arr][0]),
            ra=float(ra0), dec=float(dec0),
            rate_deg_day=rate,
            position_angle_deg=pa,
            rms_arcsec=rms,
            debris_candidate=rate > timedomain.DEBRIS_RATE_CUT,
        ))
        used_rows.update(int(r) for r in rows_arr)
        track_id += 1
    return tracks


@pytest.fixture(scope="module")
def survey_orphans(tmp_path_factory):
    """orphans(seed, n_objects, passes, mover_fraction): the single-detection
    records of a mastered skygen store with the `mine` benchmark's kind mix
    (by default its 1,000 x 40 shape), built once per argument tuple."""
    cache = {}

    def orphans(seed, n_objects=1000, passes=40, mover_fraction=0.05):
        key = (seed, n_objects, passes, mover_fraction)
        if key not in cache:
            out = tmp_path_factory.mktemp("movers")
            _, _, _, masters = survey_with_masters(
                out, n_objects=n_objects, passes=passes, seed=seed,
                periodic_fraction=0.1, transient_fraction=0.05,
                mover_fraction=mover_fraction, position_noise_arcsec=0.05)
            recs = store.read_all(out)
            singles = masters["master_id"][masters["n_detections"] == 1]
            cache[key] = recs[np.isin(recs["master_id"], singles)]
        return cache[key]

    return orphans


def pass_detections(positions, pass_ids, det_ids, start_mjd=59000.0):
    """Orphan records at (ra, dec) positions, one per pass, daily."""
    recs = np.zeros(len(positions), dtype=store.DET_DTYPE)
    recs["ra"], recs["dec"] = np.asarray(positions, dtype=np.float64).T
    recs["pass_id"] = pass_ids
    recs["mjd"] = start_mjd + recs["pass_id"]
    recs["det_id"] = det_ids
    recs["flux"] = 100.0
    recs["flux_err"] = 1.0
    return recs


class TestLinkMoversOracle:
    """`link_movers` returns exactly what the per-pair reference returns."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("rate_max,residual,min_length",
                             [(0.5, 5.0, 3), (0.5, 10.0, 3), (2.0, 5.0, 3),
                              (5.0, 30.0, 2), (20.0, 60.0, 3)])
    def test_mine_shaped_stores(self, survey_orphans, seed, rate_max, residual, min_length):
        orphans = survey_orphans(seed)
        want = mover_fields(reference_link_movers(orphans, rate_max, residual, min_length))
        assert mover_fields(timedomain.link_movers(orphans, rate_max, residual,
                                                   min_length)) == want
        assert len(want) >= 40

    def test_all_sky_search(self, survey_orphans):
        # at 400 deg/day every detection of a pass pairs with every detection
        # of the next, and most pairs share a detection with many others
        orphans = survey_orphans(3, n_objects=100, passes=8, mover_fraction=0.2)
        want = mover_fields(reference_link_movers(orphans, 400.0, 5.0))
        assert mover_fields(timedomain.link_movers(orphans, 400.0, 5.0)) == want
        assert len(want) >= 10

    def test_comparisons_in_many_batches(self, survey_orphans, monkeypatch):
        # batches of 1,000 split detections' runs of pairs at their edges
        orphans = survey_orphans(3, n_objects=100, passes=8, mover_fraction=0.2)
        want = mover_fields(reference_link_movers(orphans, 400.0, 5.0))
        monkeypatch.setattr(timedomain, "_MERGE_BATCH", 1000)
        assert mover_fields(timedomain.link_movers(orphans, 400.0, 5.0)) == want

    @pytest.mark.parametrize("min_length", [2, 3])
    def test_mostly_two_detection_groups(self, survey_orphans, monkeypatch, min_length):
        # a wide rate_max with a tight residual: most candidate pairs merge
        # with no other pair and form a group of two detections, which is a
        # track at min_length 2 and skipped at 3
        orphans = survey_orphans(4, n_objects=100, passes=8, mover_fraction=0.2)
        pairs_per_group = []

        def components(n, i, j):
            n_groups, label = labeller(n, i, j)
            pairs_per_group.extend(np.bincount(label).tolist())
            return n_groups, label

        labeller = timedomain._components
        monkeypatch.setattr(timedomain, "_components", components)
        want = mover_fields(reference_link_movers(orphans, 50.0, 1.0, min_length))
        assert mover_fields(timedomain.link_movers(orphans, 50.0, 1.0, min_length)) == want
        assert np.mean(np.array(pairs_per_group) == 1) > 0.5
        assert len(want) > 0

    def test_groups_tied_on_lowest_detection_go_in_pair_order(self):
        # X (det 1) moves on from W northward and on to Y eastward: two
        # incompatible pairs, two groups whose lowest detection is X. The
        # group of the earlier pair, (W, X) of passes 0-1, takes X, although
        # Y's det_id is below W's.
        orphans = pass_detections([(100.0, 20.0), (100.0 + 0.1 / np.cos(np.radians(20.0)),
                                                   20.0), (100.0, 19.9)],
                                  [1, 2, 0], [1, 2, 3])
        want = mover_fields(reference_link_movers(orphans, 0.5, 1.0, 2))
        assert [ids for _, ids, *_ in want] == [[3, 1]]
        assert mover_fields(timedomain.link_movers(orphans, 0.5, 1.0, 2)) == want

    def test_rate_tolerance_is_closed(self):
        # W, X, Y along one meridian, 0.1 deg and 0.101 deg apart a day each:
        # the residual is chosen so that the two pairs' rates differ by
        # exactly the rate tolerance, and the pairs still merge
        orphans = pass_detections([(100.0, 20.0), (100.0, 20.1), (100.0, 20.201)],
                                  [0, 1, 2], [1, 2, 3])
        unit = sphere.radec_to_unit(orphans["ra"], orphans["dec"])
        rates = [np.degrees(float(sphere.angle_between(unit[i], unit[i + 1]))) for i in (0, 1)]
        gap = abs(rates[0] - rates[1])
        near = gap / 4.0 * sphere.ARCSEC_PER_DEG
        residual = next(float(r) for r in near + np.spacing(near) * np.arange(-4, 5)
                        if 4.0 * (r / sphere.ARCSEC_PER_DEG) == gap)
        want = mover_fields(reference_link_movers(orphans, 0.5, residual))
        assert [ids for _, ids, *_ in want] == [[1, 2, 3]]
        assert mover_fields(timedomain.link_movers(orphans, 0.5, residual)) == want

    def test_earlier_track_claims_rows_of_a_later_group(self):
        # Two tracks leave one detection (det 10) in different directions.
        # Both groups hold it; the group of lower lowest detection (det 2)
        # becomes track 1, and the other is fit without det 10.
        orphans = mover_orphans([(40.0, -10.0, 0.1, 90.0), (40.0, -10.0, 0.1, 0.0)],
                                passes=4)
        orphans = orphans[orphans["det_id"] != 5]
        orphans["det_id"][orphans["det_id"] == 1] = 10
        want = mover_fields(reference_link_movers(orphans, 0.5, 1.0))
        assert [ids for _, ids, *_ in want] == [[10, 2, 3, 4], [6, 7, 8]]
        assert mover_fields(timedomain.link_movers(orphans, 0.5, 1.0)) == want


def first_node_order(label):
    """Component labels renumbered in order of each component's lowest node."""
    _, first, inverse = np.unique(label, return_index=True, return_inverse=True)
    rank = np.empty(len(first), np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse]


@st.composite
def graphs(draw):
    """(n, i, j): n nodes and edges (i[e], j[e]), among them isolated nodes,
    self-loops, repeated edges and paths through the nodes in shuffled
    order."""
    n = draw(st.integers(1, 60))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=80))
    edges += draw(st.lists(st.sampled_from(edges), max_size=20)) if edges else []
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
        edges += list(zip(path[:-1], path[1:]))
    edges = draw(st.permutations(edges))
    i, j = (np.array([e[c] for e in edges], np.int64) for c in (0, 1))
    return n, i, j


class TestComponents:
    """`timedomain._components` against scipy's `connected_components`."""

    @given(graphs())
    @settings(max_examples=300, deadline=None)
    def test_partition_matches_scipy(self, graph):
        n, i, j = graph
        n_groups, label = timedomain._components(n, i, j)
        want_n, want = connected_components(
            coo_array((np.ones(len(i)), (i, j)), shape=(n, n)), directed=False)
        assert n_groups == want_n
        assert label.tolist() == first_node_order(want).tolist()

    def test_long_shuffled_path(self):
        rng = np.random.Generator(np.random.PCG64(9))
        path = rng.permutation(5000)
        n_groups, label = timedomain._components(5001, path[:-1], path[1:])
        assert n_groups == 2
        assert label.tolist() == [0] * 5000 + [1]


class TestMotionFit:
    def test_exact_great_circle_zero_residual(self):
        orphans = mover_orphans([(40.0, 10.0, 0.1, 30.0)], passes=3)
        unit = sphere.radec_to_unit(orphans["ra"], orphans["dec"])
        pred, rate, pa, rms = timedomain.fit_motion(orphans["mjd"], unit)
        assert rms < 1e-6
        assert rate == pytest.approx(0.1, rel=1e-9)
        assert pa == pytest.approx(30.0, abs=1e-6)

    def test_rate_recovered_across_parameters(self):
        for ra0, dec0, rate, pa in [(0, 0, 0.05, 0), (120, -45, 0.2, 200),
                                    (300, 60, 0.02, 90)]:
            orphans = mover_orphans([(ra0, dec0, rate, pa)], passes=5)
            unit = sphere.radec_to_unit(orphans["ra"], orphans["dec"])
            _, got_rate, got_pa, rms = timedomain.fit_motion(orphans["mjd"], unit)
            assert got_rate == pytest.approx(rate, rel=1e-9)
            assert got_pa == pytest.approx(pa, abs=1e-6)
            assert rms < 1e-6


class TestLinkMovers:
    def test_single_track_recovered(self):
        orphans = mover_orphans([(100.0, 20.0, 0.1, 45.0)], passes=5)
        tracks = timedomain.link_movers(orphans, 0.5, 1.0)
        assert len(tracks) == 1
        t = tracks[0]
        assert set(t.det_ids.tolist()) == set(orphans["det_id"].tolist())
        assert t.rate_deg_day == pytest.approx(0.1, rel=1e-6)
        assert t.rms_arcsec < 0.01
        assert not t.debris_candidate

    def test_two_crossing_tracks_stay_separate(self):
        orphans = mover_orphans([(50.0, 0.0, 0.1, 90.0),
                                 (50.2, 0.2, 0.1, 180.0)], passes=5)
        tracks = timedomain.link_movers(orphans, 0.5, 1.0)
        assert len(tracks) == 2
        ids = [set(t.det_ids.tolist()) for t in tracks]
        assert ids[0].isdisjoint(ids[1])
        assert ids[0] | ids[1] == set(orphans["det_id"].tolist())

    def test_static_orphans_yield_no_tracks(self):
        rng = np.random.Generator(np.random.PCG64(21))
        n = 60
        orphans = np.zeros(n, dtype=store.DET_DTYPE)
        orphans["det_id"] = np.arange(1, n + 1)
        orphans["pass_id"] = np.repeat(np.arange(6), 10)
        orphans["mjd"] = 59000.0 + orphans["pass_id"]
        orphans["ra"] = rng.uniform(0, 360, n)
        orphans["dec"] = np.degrees(np.arcsin(rng.uniform(-1, 1, n)))
        orphans["flux"] = 100.0
        orphans["flux_err"] = 1.0
        assert timedomain.link_movers(orphans, 0.5, 1.0) == []

    def test_order_invariant(self):
        orphans = mover_orphans([(10.0, -30.0, 0.15, 300.0),
                                 (200.0, 45.0, 0.05, 10.0)], passes=4)
        rng = np.random.Generator(np.random.PCG64(22))
        shuffled = orphans[rng.permutation(len(orphans))]
        a = timedomain.link_movers(orphans, 0.5, 1.0)
        b = timedomain.link_movers(shuffled, 0.5, 1.0)
        assert [sorted(t.det_ids.tolist()) for t in a] == \
            [sorted(t.det_ids.tolist()) for t in b]

    def test_debris_flag(self):
        orphans = mover_orphans([(80.0, 5.0, 1.5, 60.0)], passes=4)
        tracks = timedomain.link_movers(orphans, 5.0, 1.0)
        assert len(tracks) == 1
        assert tracks[0].debris_candidate

    def test_min_length_respected(self):
        orphans = mover_orphans([(80.0, 5.0, 0.1, 60.0)], passes=3)
        assert timedomain.link_movers(orphans, 0.5, 1.0, min_track_length=4) == []

    def test_rejects_bad_cuts(self):
        with pytest.raises(ValidationError):
            timedomain.link_movers(np.empty(0, dtype=store.DET_DTYPE), 0.0, 1.0)
        with pytest.raises(ValidationError, match="rate_max"):
            timedomain.link_movers(np.empty(0, dtype=store.DET_DTYPE), np.nan, 1.0)
        with pytest.raises(ValidationError, match="residual_max"):
            timedomain.link_movers(np.empty(0, dtype=store.DET_DTYPE), 1.0, np.nan)
        with pytest.raises(ValidationError):
            timedomain.link_movers(np.empty(0, dtype=store.DET_DTYPE), 1.0, 1.0,
                                   min_track_length=1)

    def test_empty_input(self):
        assert timedomain.link_movers(np.empty(0, dtype=store.DET_DTYPE),
                                      0.5, 1.0) == []

    def test_search_angle_past_180_degrees(self):
        # 50 deg/day for 1 day: the search angle of rate_max * 1 day passes
        # 180 deg at rate_max 400 and must not wrap back below 50 deg
        orphans = mover_orphans([(30.0, 10.0, 50.0, 70.0)], passes=3)
        for rate_max in (60.0, 400.0):
            tracks = timedomain.link_movers(orphans, rate_max, 1.0)
            assert [t.det_ids.tolist() for t in tracks] == [[1, 2, 3]]
            assert tracks[0].rate_deg_day == pytest.approx(50.0, rel=1e-9)

    @pytest.mark.parametrize("seed", [55, 57])
    @pytest.mark.parametrize("rate_max,residual", [(0.5, 5.0), (0.5, 10.0), (2.0, 5.0)])
    def test_equals_linking_over_all_cross_pass_pairs(self, tmp_path, monkeypatch,
                                                      seed, rate_max, residual):
        _, _, _, masters = survey_with_masters(tmp_path, n_objects=60, passes=6, seed=seed,
                                               mover_fraction=0.4, position_noise_arcsec=0.5)
        recs = store.read_all(tmp_path)
        singles = masters["master_id"][masters["n_detections"] == 1]
        orphans = recs[np.isin(recs["master_id"], singles)]
        got = mover_fields(timedomain.link_movers(orphans, rate_max, residual))
        monkeypatch.setattr(sphere, "cell_pairs", all_pairs)
        want = mover_fields(timedomain.link_movers(orphans, rate_max, residual))
        assert got == want
        assert len(want) >= 5

    def test_mixed_cadence_equals_linking_over_all_cross_pass_pairs(self, monkeypatch):
        # Tracks seen every 1.5 days search farther than tracks seen daily in
        # the same passes; the pass pair's cells must fit the farthest search.
        rng = np.random.Generator(np.random.PCG64(23))
        slow = [(rng.uniform(0, 360), rng.uniform(-60, 60), 0.45, rng.uniform(0, 360))
                for _ in range(12)]
        daily = [(rng.uniform(0, 360), rng.uniform(-60, 60), 0.2, rng.uniform(0, 360))
                 for _ in range(4)]
        orphans = np.concatenate([mover_orphans(slow, passes=4, cadence=1.5),
                                  mover_orphans(daily, passes=4, start_mjd=59000.5)])
        orphans["det_id"] = np.arange(1, len(orphans) + 1)
        got = mover_fields(timedomain.link_movers(orphans, 0.5, 1.0))
        monkeypatch.setattr(sphere, "cell_pairs", all_pairs)
        want = mover_fields(timedomain.link_movers(orphans, 0.5, 1.0))
        assert got == want
        assert len(want) == 16
