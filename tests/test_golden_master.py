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
        "4c4ca701f9dba8c8455d41538cb274a2c076b76cca71ec0372bf18c3d480ab5a",
    "part-0001.det":
        "c167ca1d297fbd1a6bb2e69ef50d6a9904b473ee395f4d5a3b8cf3906e1a61d5",
    "part-0002.det":
        "5c0cb911cf6c093cae10325181c736bce4d4715daf0b9039ae6335a582bbc1c8",
    "part-0003.det":
        "a71faa89a74e05951914d1febb0f9bb7759e5761071216f191e9cea090550a8d",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_file_digest(reference_store, name):
    data = (reference_store / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN[name]
