"""Golden digests for the rest of bench20 and for the survey files.

The ten `query` lines of the shipped bench20 query set and its `em` line (as
model JSON and with `--scores`) must print byte-identical stdout on the
reference store, and `write_survey` must write byte-identical `truth.csv` and
`labels.csv` for the reference configuration, across refactors of the CSV
writer. Each digest is the SHA-256 of a command's whole stdout or of a whole
file; `{store}` stands for the store path and `{queries}` for the directory
of the shipped query set.
"""

import hashlib
import shlex

import pytest

from skymine import cli
from skymine.errors import EXIT_OK

GOLDEN_STDOUT = {
    "query --store {store} --cone 10d,20d,5d":
        "52de0300a6bbc185b4341143b952a507c131c82f3efe6d6e831680a190a60c40",
    'query --store {store} --cone 180d,0d,10d --where "flux_err<5"':
        "3204565a11f64ca0d041acf089a067b1ce1acbca402c95e0e116f7c6f029f8b0",
    "query --store {store} --cone 250d,-45d,8d --workers 2":
        "f89ee20b52061c587ae2b48c80c287fb82b6f26046a57ff9f3d56864ca9e1411",
    "query --store {store} --polygon {queries}/northcap.poly":
        "d46aaf2b232873cffc7b01b44f93e4e7a5f224cdaaa0d9040fc2f34a60a3c157",
    'query --store {store} --polygon {queries}/wedge.poly --where "flux>200"':
        "dfd9ecdf530ad2e3ffe654a96a2ac9e2f7076d1f8485eb0668b543b6fc490d9f",
    'query --store {store} --where "flux>500"':
        "9d87042e463ce17715f59f936174f2bbf7cb404a0bb97ad6bfb42032c740ac6d",
    'query --store {store} --where "flux>300 and pass_id<=10" --workers 2':
        "c5cfd9fc4f3e4bfc2882ebcbbda928da59802da3d5bc23f25a002a6f2a2e464b",
    'query --store {store} --where "pass_id==0"':
        "1f5824301f8c5f996cc0ec02b11cf70481b8775f4e9db6d0f8362683c4bbb919",
    'query --store {store} --where "mjd>=59005 and mjd<59015"':
        "60e09e14d0b27481dceeb2546da822c119cff6fa65e64151375c9a95d5682cdc",
    'query --store {store} --where "flags!=0"':
        "52de0300a6bbc185b4341143b952a507c131c82f3efe6d6e831680a190a60c40",
    "em --store {store} --features mean_flux,flux_variance --k 2 --seed 3":
        "ae91d0b698e5efbf8e99aacb0d336f375503808d53cb65d618a40ba1deff22ba",
    "em --store {store} --features mean_flux,flux_variance --k 2 --seed 3 --scores":
        "7e39cef4e5576953ca36cd385fe5c5003d15bfecf60e10b3008e8cc318302838",
}

GOLDEN_FILES = {
    "truth.csv":
        "64ecc20524db5e0b24eb67d00d4b113033dd0ed9e3d4642ddcf0007af5e76979",
    "labels.csv":
        "8c8357febd4510ba10f6aeb1e7cc9a2b3a22789f9ce8c323234f6181e6badd8a",
}


def test_query_lines_are_the_shipped_ones():
    shipped = cli.default_queries_file().read_text().splitlines()
    assert [c for c in GOLDEN_STDOUT if c.startswith("query")] == \
        [ln for ln in shipped if ln.startswith("query")]


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_stdout_digest(capsys, reference_store, command):
    queries = cli.default_queries_file().parent
    code = cli.run(shlex.split(command.format(store=reference_store, queries=queries)))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]


@pytest.mark.parametrize("name", sorted(GOLDEN_FILES))
def test_survey_file_digest(reference_store, name):
    data = (reference_store / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_FILES[name]
