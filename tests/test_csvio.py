"""The CSV codec against per-row f-strings and float().

The writer must give the bytes the old per-row f-string formatters gave
(`reference_masters_csv` in test_master_oracle.py is that oracle for the
master table; `reference_records_csv` below is the one for detection
records), on edge values and at block boundaries. The reader must parse
floats bit for bit as float() does, and integers exactly.
"""

import numpy as np
import pytest

from skymine import csvio, store
from skymine.errors import ValidationError
from test_master_oracle import reference_masters_csv

EDGE_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-7, -5e-7, 123456789.123456789]
EDGE_IDS = [2 ** 53 + 1, 2 ** 64 - 1, 2 ** 53, 0]


def reference_records_csv(records: np.ndarray) -> str:
    """Detection CSV as `records_to_csv_lines` wrote it one row at a time."""
    lines = [",".join(store.FIELD_NAMES)]
    for r in records:
        lines.append(f"{r['det_id']},{r['pass_id']},{r['mjd']:.6f},{r['ra']:.9f},"
                     f"{r['dec']:.9f},{r['flux']:.6f},{r['flux_err']:.6f},{r['flags']},"
                     f"{r['zone']},{r['master_id']}")
    return "\n".join(lines) + "\n"


def edge_masters(n: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(n))
    m = np.zeros(n, dtype=store.MASTER_DTYPE)
    m["master_id"] = rng.integers(0, 2 ** 63, n, dtype=np.uint64) * 2 + 1
    m["n_detections"] = rng.integers(0, 2 ** 32, n, dtype=np.uint64)
    for name in ("ra", "dec", "mean_flux", "flux_variance", "first_mjd", "last_mjd"):
        m[name] = rng.normal(0, 1e4, n)
    k = min(n, len(EDGE_IDS))
    m["master_id"][:k] = EDGE_IDS[:k]
    for j, name in enumerate(("ra", "dec", "mean_flux", "flux_variance")):
        k = min(n, len(EDGE_FLOATS))
        m[name][:k] = np.roll(EDGE_FLOATS, j)[:k]
    return m


def edge_records(n: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(n + 1))
    r = np.zeros(n, dtype=store.DET_DTYPE)
    r["det_id"] = rng.integers(0, 2 ** 63, n, dtype=np.uint64) * 2
    r["master_id"] = r["det_id"][::-1]
    r["pass_id"] = rng.integers(0, 2 ** 32, n, dtype=np.uint64)
    r["flags"] = rng.integers(0, 2 ** 32, n, dtype=np.uint64)
    r["zone"] = rng.integers(0, 180, n)
    r["mjd"] = 59000 + rng.uniform(0, 50, n)
    r["ra"] = rng.uniform(0, 360, n)
    r["dec"] = rng.uniform(-90, 90, n)
    r["flux"] = rng.normal(0, 1e3, n)  # float32 field
    r["flux_err"] = rng.uniform(0, 1, n)
    k = min(n, len(EDGE_IDS))
    r["det_id"][:k] = EDGE_IDS[:k]
    k = min(n, len(EDGE_FLOATS))
    for name in ("mjd", "flux", "flux_err"):
        r[name][:k] = EDGE_FLOATS[:k]
    return r


SIZES = [0, 1, len(EDGE_FLOATS), csvio.BLOCK_ROWS, csvio.BLOCK_ROWS + 1]


@pytest.mark.parametrize("n", SIZES)
def test_masters_match_per_row_fstrings(n):
    masters = edge_masters(n)
    assert store._masters_csv(masters) == reference_masters_csv(masters)


@pytest.mark.parametrize("n", SIZES)
def test_records_match_per_row_fstrings(n):
    records = edge_records(n)
    lines = list(store.records_to_csv_lines(records))
    assert "\n".join(lines) + "\n" == reference_records_csv(records)
    assert lines[0] == ",".join(store.FIELD_NAMES)
    assert len(lines) == 1 + -(-n // csvio.BLOCK_ROWS)  # the header, then whole blocks


def test_empty_table_is_the_header():
    assert list(csvio.blocks("a,b", "%d,%d", [])) == ["a,b"]
    assert csvio.text("a,b", "%d,%d", []) == "a,b\n"


def test_none_cell_is_empty():
    rows = [(1, None, "x"), (2, 0.5, "y")]
    assert csvio.text("a,b,c", "%d,%.6f,%s", rows) == "a,b,c\n1,,x\n2,0.500000,y\n"


def test_floats_parse_as_float_does():
    rng = np.random.Generator(np.random.PCG64(3))
    values = np.concatenate([rng.normal(0, 1e6, 2000), rng.uniform(-1e-300, 1e-300, 500),
                             rng.lognormal(0, 200, 500), EDGE_FLOATS])
    cells = [repr(v) for v in values.tolist()] + [f"{v:.9f}" for v in values.tolist()]
    cells += ["1e-320", "4.9e-324", "1.7976931348623157e308", "-0", "+1.5", "NaN", "-inf"]
    table = csvio.read("x\n" + "\n".join(cells), np.dtype([("x", "<f8")]))
    want = np.array([float(c) for c in cells])
    assert table["x"].view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("n", [1, csvio.BLOCK_ROWS + 1])
def test_records_round_trip(n):
    records = edge_records(n)
    text = "\n".join(store.records_to_csv_lines(records))
    back = store.records_from_csv(text)
    for name in ("det_id", "pass_id", "flags", "zone", "master_id"):
        assert back[name].tolist() == records[name].tolist()


def test_signed_integers_parse_exactly():
    dtype = np.dtype([("a", "<i8"), ("b", "<u4")])
    table = csvio.read(f"a,b\n{-2 ** 63},0\n{2 ** 63 - 1},{2 ** 32 - 1}\n", dtype)
    assert table["a"].tolist() == [-2 ** 63, 2 ** 63 - 1]
    assert table["b"].tolist() == [0, 2 ** 32 - 1]
    with pytest.raises(ValidationError, match=f"record 0: a '{2 ** 63}' is not an integer"):
        csvio.read(f"a,b\n{2 ** 63},0\n", dtype)
    with pytest.raises(ValidationError, match="record 1: b '-1' is not an integer"):
        csvio.read("a,b\n1,2\n1,-1\n", dtype)
