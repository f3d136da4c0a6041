"""The seeded reports of four suites and two affine certificates, byte
for byte.

The sha256 of each ``fgcert verify <suite> --seed 42`` report equals the
digest the benchmark pins for it (``perfbench/pins.json``, copied here).
A change to the seeded output fails this fast test, not only the
benchmark's smoke test.  ``verify affine`` runs only r = 3 and 5, where
W is one copy of V or none, so the ``affine certify`` output for r = 13
and r = 23 (default xi) is pinned too.
"""

import hashlib

import pytest
from click.testing import CliRunner

from fgcert.cli import main

PINNED_SHA256 = {
    "section2": "2e7808b519a737329278e0c830db9a441dc048ebf6c20608ca777bf6b022fe5e",
    "largeness": "b660e17b5e1f476364242d419c86bac00ff344fdc54022c94a0862eff762e7f2",
    "congruence": "0f22fea41fc2b3bb2ca7e0b3cab057f9e44cd461157b804fffc904b5339ad906",
    "affine": "60ce8536ae2297f000ac7aed718999ce4d58a30492704ec50dee1ae34e4baeb7",
}


@pytest.mark.parametrize("suite", sorted(PINNED_SHA256))
def test_seeded_report_is_byte_identical(suite, tmp_path):
    out = tmp_path / f"{suite}.json"
    res = CliRunner().invoke(main, ["verify", suite, "--seed", "42", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_SHA256[suite]


PINNED_AFFINE_SHA256 = {
    ("13", "131"): "2323c50ffb54b3157a3eaeae1fd4fdd4d21606ad8702860799c9d9b58e3b7f4d",
    ("23", "2147484517"): "549a11a73002f4666f07019184921e1e425fc416b02aec94dae8100c8d7b0910",
}


@pytest.mark.parametrize("r, p", sorted(PINNED_AFFINE_SHA256))
def test_affine_certificate_is_byte_identical(r, p, tmp_path):
    out = tmp_path / "cert.json"
    res = CliRunner().invoke(main, ["affine", "certify", "--r", r, "--p", p, "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_AFFINE_SHA256[(r, p)]
