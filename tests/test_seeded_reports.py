"""The seeded reports of four suites, five affine certificates and three
congruence certificates, byte for byte.

The sha256 of each ``fgcert verify <suite> --seed 42`` report equals the
digest the benchmark pins for it (``perfbench/pins.json``, copied here,
and a test checks the copies).  A change to the seeded output fails this
fast test, not only the benchmark's smoke test.  ``verify affine`` runs
only r = 3 and 5, where W is one copy of V or none, so the ``affine
certify`` output for r = 13, 17, 19 and 23 (default xi) is pinned too.  ``verify congruence`` certifies
only n = 1, so ``congruence certify --p 5 --samples 300`` is pinned for
the benchmark's K of index 2, 3 and 4 (seed 1, quotient files in
``data/``), and so is ``quotients schreier`` of the same K, whose
generator names are numbered on demand.
"""

import hashlib
import json
from pathlib import Path

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


def test_copied_digests_equal_the_benchmark_pins():
    from test_acceptance import VERIFY_ALL_SHA256

    pins = json.loads((Path(__file__).parent.parent / "perfbench" / "pins.json").read_text())
    assert {suite: by_seed["42"] for suite, by_seed in pins["paper-checks"].items()} \
        == PINNED_SHA256
    assert pins["verify-all"]["42"] == VERIFY_ALL_SHA256


PINNED_AFFINE_SHA256 = {
    ("13", "131"): "2323c50ffb54b3157a3eaeae1fd4fdd4d21606ad8702860799c9d9b58e3b7f4d",
    ("17", "239"): "c893813069e47f92d9e4f32d73cc506a86fe5bfb138ed8547bd3eeb4a800dec9",
    ("19", "419"): "b378733ed100b7d3529825fd1078c9183b5a1c5e7f5952ce056995c4974ac531",
    ("23", "277"): "9cf89e4fc3f63491a842c0c8e8567881a298e009c7ed572901b86aefe1d270b2",
    ("23", "2147484517"): "549a11a73002f4666f07019184921e1e425fc416b02aec94dae8100c8d7b0910",
}


@pytest.mark.parametrize("r, p", sorted(PINNED_AFFINE_SHA256))
def test_affine_certificate_is_byte_identical(r, p, tmp_path):
    out = tmp_path / "cert.json"
    res = CliRunner().invoke(main, ["affine", "certify", "--r", r, "--p", p, "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_AFFINE_SHA256[(r, p)]


PINNED_CONGRUENCE_SHA256 = {
    2: "2d09b606a982ce53de8d90c5badb7ac709cd06f0f3abe560a4fa16f8eda333e8",
    3: "a7692965b84a631562d23194dba7c1f0a7d0b802f7914f3634e41cd1191e0816",
    4: "f9ee19c1a4c6296c110e67bde729e40e9b9b79b99608149164fa5455a105223b",
}


@pytest.mark.parametrize("n", sorted(PINNED_CONGRUENCE_SHA256))
def test_congruence_certificate_is_byte_identical(n, tmp_path):
    k_path = Path(__file__).parent / "data" / f"k-index{n}.json"
    out = tmp_path / "cert.json"
    res = CliRunner().invoke(main, ["congruence", "certify", "--k-quotient", str(k_path),
                                    "--p", "5", "--samples", "300", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_CONGRUENCE_SHA256[n]


PINNED_SCHREIER_SHA256 = {
    2: "73f5b9242aadb8f6fe37b24c00870cf9e3766a18716880c7d7df70e23fb81821",
    3: "115c89350f8126a1374e87aa2f113422a9d0f5dfa094b045d7b2113e7833aa50",
    4: "1098dd90557e4c4bc5c2bd17ffa558275c332874c1410ebba8fd793aabe50103",
}


@pytest.mark.parametrize("n", sorted(PINNED_SCHREIER_SHA256))
def test_schreier_system_output_is_byte_identical(n):
    k_path = Path(__file__).parent / "data" / f"k-index{n}.json"
    res = CliRunner().invoke(main, ["quotients", "schreier", "--quotient", str(k_path)])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.output.encode()).hexdigest() == PINNED_SCHREIER_SHA256[n]
