"""Golden stdout digests for the light-curve commands.

`lc` and `classify` must print byte-identical CSV on the reference store
across refactors of the light-curve engine. A change that moves `lc` rows
within its output contract (README) re-records the `lc` digests and lists
every moved row. Each digest is the SHA-256 of a command's whole stdout.
"""

import hashlib

import pytest

from skymine import cli
from skymine.errors import EXIT_OK

GOLDEN = {
    "lc":
        "c211f5fe3b48aaa33610102b82225597bd2f1ca6de7356635318699dae014b71",
    "lc --limit 20":
        "c9bf350edfefc646d8db4c59dfb97150052b323c8b356a28025bb35cc9a9790c",
    "lc --master 1":
        "a67bc8d200bba5f3c8165179673687165e52791bc0349601a49c02dfd8e9947e",
    "classify":
        "e30a9c24fb59b6dbb920cc7ad6ae2840d08b34422aa684757c4812b214d7d255",
    "classify --span-days 12":
        "18eff4fb4f4719c325fae04796f6057d7fa98c3151cf14d6077f78d21041400f",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_digest(capsys, reference_store, command):
    name, *rest = command.split()
    code = cli.run([name, "--store", str(reference_store), *rest])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
