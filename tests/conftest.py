"""Shared fixtures plus a per-criterion acceptance summary.

Every test in test_acceptance.py maps to one acceptance criterion; the
terminal summary prints one PASS/FAIL line per criterion.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from skymine import csvio, mining, skygen, store

# `--hypothesis-profile=ci` runs each property test that sets no example
# count of its own on many more examples
settings.register_profile("ci", max_examples=2000, deadline=None)

_acceptance_results: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _acceptance_results[name] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and report.skipped:
        _acceptance_results[name] = "SKIP"


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for name, verdict in _acceptance_results.items():
        terminalreporter.write_line(f"{verdict}: {name}")


@pytest.fixture(scope="session")
def million_record_store(tmp_path_factory):
    """10^6 synthetic detections in 16 partitions (for the scan criterion)."""
    out = tmp_path_factory.mktemp("acc") / "million"
    n = 1_000_000
    rng = np.random.Generator(np.random.PCG64(2002))
    recs = np.zeros(n, dtype=store.DET_DTYPE)
    recs["det_id"] = np.arange(1, n + 1)
    recs["pass_id"] = rng.integers(0, 50, n)
    recs["mjd"] = 59000.0 + recs["pass_id"]
    recs["ra"] = rng.uniform(0, 360, n)
    recs["dec"] = np.degrees(np.arcsin(rng.uniform(-1, 1, n)))
    recs["flux"] = rng.uniform(10, 1000, n).astype(np.float32)
    recs["flux_err"] = rng.uniform(0.5, 5, n).astype(np.float32)
    store.ingest_detections(recs, 16, out)
    store.build_indexes(out, 1.0)
    return out


@pytest.fixture(scope="session")
def clean_master_survey(tmp_path_factory):
    """1,000 static objects x 50 passes at 0.1 arcsec position noise, with the
    master catalog built at a 1 arcsec match radius."""
    out = tmp_path_factory.mktemp("acc") / "clean50"
    cfg = skygen.SurveyConfig(n_objects=1000, passes=50, seed=84,
                              position_noise_arcsec=0.1)
    truth, detections, labels, _ = skygen.write_survey(cfg, out, partition_count=8)
    store.build_indexes(out, 1.0)
    masters, assignment = store.build_master(out, 1.0)
    return {"dir": out, "truth": truth, "detections": detections,
            "labels": labels, "masters": masters, "assignment": assignment}


@pytest.fixture(scope="session")
def reference_store(tmp_path_factory):
    """Small mixed-kind survey with indexes and masters, used by bench20."""
    out = tmp_path_factory.mktemp("acc") / "reference"
    cfg = skygen.SurveyConfig(n_objects=300, passes=12, seed=7,
                              periodic_fraction=0.1, transient_fraction=0.05,
                              mover_fraction=0.05, position_noise_arcsec=0.05)
    skygen.write_survey(cfg, out, partition_count=4)
    store.build_indexes(out, 1.0)
    store.build_master(out, 1.0)
    return out


def pairwise_d2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every squared distance between a row of a and a row of b, by the same
    einsum reduction as `mining.pair_count`'s leaf comparisons."""
    d = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", d, d)


def _naive_pair_count(points, bin_edges_rad) -> mining.PairCountHistogram:
    """Unordered pair counts per bin from every pairwise distance, chunked:
    the brute-force oracle for `mining.pair_count`."""
    points = np.asarray(points, dtype=np.float64)
    edges2 = mining._chord2_edges(bin_edges_rad)
    n = len(points)
    counts = np.zeros(len(edges2) - 1, dtype=np.int64)
    evals = 0
    chunk = max(1, int(2e7 // n))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        d2 = pairwise_d2(points[lo:hi], points)
        # keep strictly-upper-triangle pairs only
        rows, cols = np.meshgrid(np.arange(lo, hi), np.arange(n), indexing="ij")
        keep = cols > rows
        mining._bin_d2(d2[keep], edges2, counts)
        evals += int(keep.sum())
    return mining.PairCountHistogram(np.asarray(bin_edges_rad, dtype=np.float64),
                                     counts, n * (n - 1) // 2, evals)


@pytest.fixture(scope="session")
def naive_pair_count():
    return _naive_pair_count


def _read_labels(store_dir) -> dict[int, int]:
    """det_id -> truth_id from a `skygen.write_survey` store's labels.csv."""
    table = csvio.read((Path(store_dir) / "labels.csv").read_text(), skygen.LABEL_DTYPE)
    return dict(zip(table["det_id"].tolist(), table["truth_id"].tolist()))


@pytest.fixture(scope="session")
def read_labels():
    return _read_labels
