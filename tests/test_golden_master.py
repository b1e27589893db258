"""Golden file digests for the master cross-match.

`build_master` must write byte-identical `masters.csv` and partition files
(the `master_id` of every record) on the reference store across refactors of
the cross-match. Each digest is the SHA-256 of a whole file.
"""

import hashlib

import pytest

GOLDEN = {
    "masters.csv":
        "51cef7f9159f27cebe74fe4c2fb50a9c2d9ae18df62edbd1fd804f9b9ce85673",
    "part-0000.det":
        "0877840509e9bbf330d6dabb2d1f9d0f5e3dc8a863c2335180ae241d71326d9a",
    "part-0001.det":
        "d08ae8231c3f47ee5f17c2fe2c202ba7ee98a452094369daef0ecbd80c54d760",
    "part-0002.det":
        "067ae39e8bd4e9812fbb58bde03931042f356a5e2c51e71c3240172acaae5f04",
    "part-0003.det":
        "5e182952448029f404d1569c96a953926fd3e8dbf35390f541b3df0674c5977a",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_file_digest(reference_store, name):
    data = (reference_store / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN[name]
