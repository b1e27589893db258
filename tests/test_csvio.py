"""The CSV codec against per-row f-strings, `%` and float().

The writer must give the bytes the old per-row f-string formatters gave
(`reference_masters_csv` in test_master_oracle.py is that oracle for the
master table; `reference_records_csv` below is the one for detection
records), on edge values and at block boundaries. Its array path must give
the bytes of `%` on each row's Python scalars (`percent_lines`), and the
tables skymine writes must take it. The reader must parse floats bit for bit
as float() does, and integers exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skymine import cli, csvio, skygen, sphere, store
from skymine.errors import EXIT_OK, ValidationError
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


def percent_lines(fmt: str, rows: np.ndarray) -> list[str]:
    """`fmt % row` on each row's Python scalars: the array path's oracle."""
    return [fmt % row for row in rows.tolist()]


def written_lines(fmt: str, rows: np.ndarray) -> list[str]:
    text = "\n".join(csvio.blocks(None, fmt, rows))
    return text.split("\n") if len(rows) else []


@pytest.fixture
def array_only(monkeypatch):
    """Fail any block that goes through `%` instead of the array path."""
    def refuse(fmt, block):
        raise AssertionError(f"{len(block)} rows went through %")
    monkeypatch.setattr(csvio, "_percent_block", refuse)


def column(values, dtype) -> np.ndarray:
    rows = np.zeros(len(values), [("x", dtype)])
    rows["x"] = values
    return rows


@pytest.mark.parametrize("places", [1, 3, 6, 9])
def test_exact_ties_round_half_to_even(array_only, places):
    # k * 2^-(places + 1) is exact in binary and ends in a 5 at place places + 1
    rng = np.random.Generator(np.random.PCG64(places))
    # odd k below 2^53 / 5^N keep |x| * 10^N = |k| * 5^N / 2 below 2^52
    k = np.concatenate([np.arange(-300, 300),
                        rng.integers(-2 ** 31, 2 ** 31, 300) * 2 + 1])
    rows = column(k * 2.0 ** -(places + 1), "<f8")
    fmt = f"%.{places}f"
    assert written_lines(fmt, rows) == percent_lines(fmt, rows)
    assert written_lines("%.6f", column([0.0078125, -0.0078125, 0.0234375], "<f8")) == \
        ["0.007812", "-0.007812", "0.023438"]


@pytest.mark.parametrize("dtype", ["<f8", "<f4"])
def test_negative_zero_and_tiny_negatives(array_only, dtype):
    values = [-0.0, 0.0, -1e-12, -5e-7, -4.9999e-7, -5.0001e-7, 5e-7, -1e-30, -1e-45, 1e-45]
    if dtype == "<f8":
        values += [-5e-324, 5e-324, -2.2250738585072014e-308]
    rows = column(values, dtype)
    assert written_lines("%.6f", rows) == percent_lines("%.6f", rows)
    assert written_lines("%.6f", rows)[:3] == ["-0.000000", "0.000000", "-0.000000"]


def just_below_bound(places: int) -> np.ndarray:
    """200 floats just below |x| * 10^places = 2^52, and their negatives."""
    below = np.nextafter(2.0 ** 52 / 10 ** places, 0) * (1 - 2.0 ** -40 * np.arange(200))
    return np.concatenate([below, -below])


@pytest.mark.parametrize("places", range(1, 10))
def test_below_magnitude_bound(array_only, places):
    rows, fmt = column(just_below_bound(places), "<f8"), f"%.{places}f"
    assert written_lines(fmt, rows) == percent_lines(fmt, rows)


@pytest.mark.parametrize("places", range(1, 10))
def test_at_magnitude_bound(places):
    """At and above the bound the block goes through `%`: same bytes."""
    bound, fmt = 2.0 ** 52 / 10 ** places, f"%.{places}f"
    for x in [np.nextafter(bound, 0), bound, np.nextafter(bound, np.inf), 2 * bound, -bound]:
        rows = column(np.append(just_below_bound(places), x), "<f8")
        assert written_lines(fmt, rows) == percent_lines(fmt, rows)


def blocks_through_percent(monkeypatch, name: str, bad) -> list[int]:
    """Write three blocks with `bad` in one cell of field `name` (y: float32,
    s: U4 text) of the second; returns the sizes of the blocks that went
    through `%`, after checking the lines."""
    sent = []
    percent = csvio._percent_block
    monkeypatch.setattr(csvio, "_percent_block",
                        lambda fmt, block: sent.append(len(block)) or percent(fmt, block))
    n = 2 * csvio.BLOCK_ROWS + 5
    rows = np.zeros(n, [("i", "<u8"), ("x", "<f8"), ("y", "<f4"), ("s", "<U4")])
    rows["i"] = np.arange(n)
    rows["x"] = np.linspace(-1e3, 1e3, n)
    rows["y"] = np.linspace(5, -5, n)
    rows["s"] = np.resize(["", "a", "b,cd", "~ 0\x7f"], n)
    rows[name][csvio.BLOCK_ROWS + 7] = bad
    fmt = "%d,%.9f,%.6f,%s"
    assert written_lines(fmt, rows) == percent_lines(fmt, rows)
    return sent


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_cell_sends_only_its_block_through_percent(monkeypatch, bad):
    assert blocks_through_percent(monkeypatch, "y", bad) == [csvio.BLOCK_ROWS]


@pytest.mark.parametrize("bad", ["\x80", "é", "\U0001f600", "\0a", "a\0b"],
                         ids=["x80", "latin", "astral", "nul-first", "nul-inside"])
def test_text_beyond_ascii_sends_only_its_block_through_percent(monkeypatch, bad):
    assert blocks_through_percent(monkeypatch, "s", bad) == [csvio.BLOCK_ROWS]


def test_trailing_nul_is_padding(array_only):
    rows = column(["a\0", "\0", "ab"], "<U3")
    assert written_lines("%s", rows) == percent_lines("%s", rows) == ["a", "", "ab"]


def test_integer_extremes(array_only):
    dtypes = ["<u8", "<i8", "<u4", "<i4", "<u2", "<i2", "u1", "i1"]
    rows = np.zeros(len(dtypes) * 2 + 6, [(t[-2:], t) for t in dtypes])
    for j, t in enumerate(dtypes):
        info = np.iinfo(t)
        rows[t[-2:]][2 * j:2 * j + 2] = [info.min, info.max]
    rows["u8"][-6:] = [10 ** 19, 10 ** 19 - 1, 9999, 10 ** 4, 10 ** 8, 99999999]
    rows["i8"][-6:] = [-10 ** 18, -1, 1, -9999, -10 ** 4, 10 ** 16]
    fmt = ",".join(["%d"] * len(dtypes))
    lines = written_lines(fmt, rows)
    assert lines == percent_lines(fmt, rows)
    assert lines[1].startswith(f"{2 ** 64 - 1},0,") and lines[2].startswith(f"0,{-2 ** 63},")


@pytest.mark.parametrize("n", [0, 1, csvio.BLOCK_ROWS - 1, csvio.BLOCK_ROWS,
                               csvio.BLOCK_ROWS + 1, 2 * csvio.BLOCK_ROWS])
def test_array_blocks_and_boundaries(array_only, n):
    rows = np.zeros(n, [("i", "<i8"), ("x", "<f8")])
    rows["i"] = np.arange(n) - n // 2
    rows["x"] = (np.arange(n) - n / 3) * 0.37
    got = list(csvio.blocks("i,x", "%d,%.4f", rows))
    assert got[0] == "i,x"
    assert [len(b.split("\n")) for b in got[1:]] == \
        [min(csvio.BLOCK_ROWS, n - lo) for lo in range(0, n, csvio.BLOCK_ROWS)]
    assert written_lines("%d,%.4f", rows) == percent_lines("%d,%.4f", rows)


_FIELDS = [(t, "%d") for t in ("<u8", "<i8", "<u4", "<i4", "<i2", "u1", "i1")] + \
          [(t, f"%.{n}f") for t in ("<f8", "<f4", "<f2") for n in range(1, 10)] + \
          [(t, "%s") for t in ("<U1", "<U6", ">U3")]


def _cells(dtype: str):
    if dtype[1] == "U":  # ASCII, empty, or any text (non-ASCII, NULs)
        size = int(dtype[2:])
        ascii = st.characters(max_codepoint=127, exclude_characters="\0")
        return st.one_of(st.text(ascii, max_size=size), st.just(""), st.text(max_size=size))
    if dtype[-2] in "ui":
        info = np.iinfo(dtype)
        return st.integers(int(info.min), int(info.max))
    width, top = 8 * np.dtype(dtype).itemsize, min(1e7, float(np.finfo(dtype).max))
    near_ties = st.builds(lambda k, e: k * 2.0 ** e, st.integers(-2 ** 40, 2 ** 40),
                          st.integers(-40, 0))
    return st.one_of(st.floats(-top, top, width=width), st.floats(width=width), near_ties)


@st.composite
def tables(draw):
    fields = draw(st.lists(st.sampled_from(_FIELDS), min_size=1, max_size=6))
    dtype = np.dtype([(f"c{j}", t) for j, (t, _) in enumerate(fields)])
    rows = draw(st.lists(st.tuples(*[_cells(t) for t, _ in fields]), max_size=40))
    with np.errstate(over="ignore"):  # a float too wide for its field is inf
        table = np.array(rows, dtype)
    return ",".join(spec for _, spec in fields), table


@settings(deadline=None)
@given(tables())
def test_array_path_matches_percent(table):
    fmt, rows = table  # a text cell may hold a newline, so whole texts are compared
    assert "\n".join(csvio.blocks(None, fmt, rows)) == "\n".join(percent_lines(fmt, rows))
    fields = csvio._array_fields(fmt, rows)
    floats = [rows[name].astype(np.float64) for name, places in fields if places is not None]
    texts = [s for name, _ in fields if rows.dtype[name].kind == "U" for s in rows[name].tolist()]
    plain = all(s.isascii() and "\0" not in s for s in texts)
    if len(rows) and plain and all((np.abs(x) < 1e6).all() for x in floats):  # in range
        assert csvio._array_block(rows, fields) is not None
    if not plain:
        assert csvio._array_block(rows, fields) is None


def in_range(table: np.ndarray) -> np.ndarray:
    """`table` with every float that is not finite or not below 10^6 set to
    -0.0, so that every cell is in the array path's range."""
    for name in table.dtype.names:
        if table.dtype[name].kind == "f":
            table[name][~(np.abs(table[name]) < 1e6)] = -0.0
    return table


@pytest.mark.parametrize("n", [1, csvio.BLOCK_ROWS + 1])
def test_written_tables_take_the_array_path(array_only, n):
    masters = in_range(edge_masters(n))
    assert store._masters_csv(masters) == reference_masters_csv(masters)
    records = in_range(edge_records(n))
    assert "\n".join(store.records_to_csv_lines(records)) + "\n" == \
        reference_records_csv(records)
    rng = np.random.Generator(np.random.PCG64(n))
    table, _ = sphere.neighbors_join(masters["master_id"], rng.uniform(0, 360, n),
                                     rng.uniform(-90, 90, n), 3600.0 * 5)
    assert written_lines("%d,%d,%.6f", table) == percent_lines("%d,%d,%.6f", table)
    config = skygen.SurveyConfig(n_objects=n, passes=1, seed=n, periodic_fraction=0.3,
                                 transient_fraction=0.2, mover_fraction=0.2)
    truth = in_range(skygen.generate_truth(config, rng))
    truth = truth[[name for name in truth.dtype.names if name != "phase"]]
    assert written_lines(skygen.TRUTH_CSV_FORMAT, truth) == \
        percent_lines(skygen.TRUTH_CSV_FORMAT, truth)


@pytest.mark.parametrize("command", [
    "lc --steps 500",
    "classify --steps 500 --span-days 12",
    "trigger --stream {store} --radius 2s --k-sigma 1",
    "corr --bins-deg 1,10,5 --randoms 1000 --seed 7",
    "em --features mean_flux,flux_variance --k 2 --seed 3 --scores",
])
def test_command_tables_take_the_array_path(array_only, capsys, reference_store, command):
    """Tables of finite cells that commands print never go through `%`; the
    golden digests check their bytes."""
    name, *rest = command.format(store=reference_store).split()
    assert cli.run([name, "--store", str(reference_store), *rest]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) > 5
    if name == "lc":  # rows with and without a searched best_frequency
        assert {line.split(",")[5] == "" for line in lines[1:]} == {True, False}


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


SYNTAX_DTYPE = np.dtype([("n", "<u4"), ("x", "<f8")])
U4_RANGE = "an integer in [0, 4294967295]"


@pytest.mark.parametrize("body,want", [
    (" 5 ,\t1.5 ", [(5, 1.5)]),  # padded cells
    ("+1,+1", [(1, 1.0)]),
    ("007,1.", [(7, 1.0)]),
    ("1,infinity\n2,-Infinity\n3,nan", [(1, np.inf), (2, -np.inf), (3, None)]),
])
def test_accepted_syntax(body, want):
    table = csvio.read(f"n,x\n{body}\n", SYNTAX_DTYPE)
    assert table["n"].tolist() == [n for n, _ in want]
    for got, (_, x) in zip(table["x"].tolist(), want, strict=True):
        assert np.isnan(got) if x is None else got == x


@pytest.mark.parametrize("body,message", [
    ("1e3,1", f"record 0: n '1e3' is not {U4_RANGE}"),
    ("5.0,1", f"record 0: n '5.0' is not {U4_RANGE}"),
    (",1", f"record 0: n '' is not {U4_RANGE}"),
    ("  ,1", f"record 0: n '  ' is not {U4_RANGE}"),
    ("1,", "record 0: x '' is not a number"),
    ('"1",1', f"record 0: n '\"1\"' is not {U4_RANGE}"),  # no quoting
    ("1,2#c", "record 0: x '2#c' is not a number"),  # no comments
    ("1,0x1p3", "record 0: x '0x1p3' is not a number"),
    # float() and int() accept these; numpy's reader does not
    ("1_000,1", f"record 0: n '1_000' is not {U4_RANGE}"),
    ("1,1_000", "record 0: x '1_000' is not a number"),
    ("-0,1", f"record 0: n '-0' is not {U4_RANGE}"),
    ("١,2", f"record 0: n '١' is not {U4_RANGE}"),  # an Arabic-Indic digit
    ("1,٢", "record 0: x '٢' is not a number"),
    ("1,2\n3,4\n5,abc", "record 2: x 'abc' is not a number"),
    ("1,2\n3,4\n-1,6", f"record 2: n '-1' is not {U4_RANGE}"),
    ("1,2\n3,4\n4294967296,6", f"record 2: n '4294967296' is not {U4_RANGE}"),
    ("1,2\n\n3,4", "record 1: wrong column count"),
    ("1,2\n  \n3,4", "record 1: wrong column count"),
    ("\n1,2", "record 0: wrong column count"),
    ("1,2\n3,4\n5", "record 2: wrong column count"),
    ("1,2\n3,4\n5,6,7", "record 2: wrong column count"),
    ("1,2\n3,4\n5,6,", "record 2: wrong column count"),
])
def test_rejected_syntax(body, message):
    with pytest.raises(ValidationError) as err:
        csvio.read(f"n,x\n{body}\n", SYNTAX_DTYPE)
    assert str(err.value) == message


@pytest.mark.parametrize("text", ["n,x\n", "n,x", "\n n,x \n\n"])
def test_header_only_is_an_empty_table(text):
    table = csvio.read(text, SYNTAX_DTYPE)
    assert table.dtype == SYNTAX_DTYPE and len(table) == 0


@pytest.mark.parametrize("text", ["", "n\n1\n", "x,n\n1,2\n", "n, x\n1,2\n"])
def test_header_must_match(text):
    with pytest.raises(ValidationError, match="^expected header n,x$"):
        csvio.read(text, SYNTAX_DTYPE)


def test_crlf_line_ends():
    table = csvio.read("n,x\r\n1,2.5\r\n3,4\r\n", SYNTAX_DTYPE)
    assert table.tolist() == [(1, 2.5), (3, 4.0)]


def test_first_bad_record_is_named():
    with pytest.raises(ValidationError, match="^record 0: x 'abc' is not a number$"):
        csvio.read("n,x\n1,abc\n2,3\n4\n", SYNTAX_DTYPE)
    with pytest.raises(ValidationError, match="^record 1: wrong column count$"):
        csvio.read("n,x\n1,2\n\n-1,3\n", SYNTAX_DTYPE)
    with pytest.raises(ValidationError, match="^record 1: f '1e40' is not a number in float32"):
        csvio.read("n,f\n1,2\n2,1e40\n4294967296,3\n", np.dtype([("n", "<u4"), ("f", "<f4")]))


def test_blank_line_in_one_column_table_is_an_empty_cell():
    with pytest.raises(ValidationError, match="^record 1: x '' is not a number$"):
        csvio.read("x\n1\n\n2\n", np.dtype([("x", "<f8")]))


def test_float_that_overflows_its_field_is_rejected():
    dtype = np.dtype([("n", "<u4"), ("f", "<f4")])
    table = csvio.read("n,f\n1,inf\n2,-Infinity\n3,nan\n4,3.4028235e38\n5,1e-50\n", dtype)
    assert table["f"][:2].tolist() == [np.inf, -np.inf] and np.isnan(table["f"][2])
    assert table["f"][3] == np.finfo(np.float32).max and table["f"][4] == 0
    for cell in ("1e40", "-1e40", "3.5e38"):
        with pytest.raises(ValidationError) as err:
            csvio.read(f"n,f\n1,2\n2,{cell}\n", dtype)
        assert str(err.value) == f"record 1: f '{cell}' is not a number in float32 range"
