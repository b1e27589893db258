"""Golden stdout digests for the spatial mining commands.

`neighbors`, `trigger`, `movers` and `corr` must print byte-identical CSV on
the reference store across refactors of the spatial search and the pair
counter. The command lines are those of the shipped bench20 query set, plus
a trigger threshold low enough that flux-anomaly alerts occur. Each digest is
the SHA-256 of a command's whole stdout; `{store}` stands for the store path.
"""

import hashlib

import pytest

from skymine import cli
from skymine.errors import EXIT_OK

GOLDEN = {
    "neighbors --theta 3600s":
        "abea8d21e5af6e4c91f05cfe5b5a6132a43dbbfc046172994a51fa8d0f37bc23",
    "neighbors --theta 7200s":
        "0ea47fa6077c9116c08ea4744cade94c7e24d53ba9023a4e5a2bbdf3018d37d1",
    "trigger --stream {store} --radius 2s --k-sigma 8":
        "e5b43e489990a5b2523e87c110eac7918522e2831cfab7d944f8e80283bb03cc",
    "trigger --stream {store} --radius 2s --k-sigma 1":
        "c0d9a35a07bf92faa38186d0ae46bcc8433f546a777bb3836a0fb4d0d5fdaf37",
    "movers --rate-max 0.5 --residual-max 10s --min-length 3":
        "6049f2385c898877ef1fd04342946dfdad6aa2bf867c99cd7ab140e23dfa5e1c",
    "corr --bins-deg 1,10,5 --randoms 1000 --seed 7":
        "f66335d1f66ea8f4ab6a314dacb5aed6b4fbb1723e1f8beb854f22ac1f98cfad",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_digest(capsys, reference_store, command):
    name, *rest = command.format(store=reference_store).split()
    code = cli.run([name, "--store", str(reference_store), *rest])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
