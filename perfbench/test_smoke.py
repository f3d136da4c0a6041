"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is emitted, that a wrong
pinned digest trips the paper-checks gate, that the full
``fgcert verify all --seed 42`` report matches its pin, that the documented defect is
told apart from other failures, and that a directory without fgcert
sources makes the benchmark exit nonzero without printing a result.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
TINY = ("paper-checks", "certify-ladder", "schreier-queries")


def run(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, last


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", TINY)
def test_every_named_metric_is_emitted(workload, trace, kind):
    proc, last = run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert set(last["metrics"]) == set(names)
    for name, unit in names.items():
        assert last["metrics"][name]["unit"] == unit
        assert any(line.split()[1:2] == [name] and unit in line.split()
                   for line in proc.stdout.splitlines()), name


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_wrong_pinned_digest_trips_the_gate():
    OUT.mkdir(exist_ok=True)
    pins = OUT / "wrong-pins.json"
    pins.write_text(json.dumps({"paper-checks": {"section2": {"42": "0" * 64}}}), "utf-8")
    proc, last = run("--workload", "paper-checks", "--seed", "42", "--seconds", "0",
                     "--size", "tiny", "--pins", str(pins))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert last["correct"] is False and last["failed"] == 1
    assert "GATE FAILED: suite:section2" in proc.stdout


def test_pinned_digests_hold():
    proc, last = run("--workload", "paper-checks", "--seed", "42", "--seconds", "0",
                     "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert last["correct"] is True and last["failed"] == 0


def test_verify_all_report_is_pinned():
    """The whole paper-reproduction run, which the timed workload splits
    into checks: every check passes and the report is byte-identical to
    the one pinned at the commit that added this benchmark."""
    OUT.mkdir(exist_ok=True)
    report = OUT / "verify-all-s42.json"
    report.unlink(missing_ok=True)
    code = ("import sys; sys.path.insert(0, 'src'); import fgcert.cli; "
            "fgcert.cli.main(sys.argv[1:], prog_name='fgcert')")
    proc = subprocess.run([sys.executable, "-c", code, "verify", "all", "--seed", "42",
                           "--out", str(report)], cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONHASHSEED="0"), timeout=600)
    assert proc.returncode == 0, proc.stderr
    data = report.read_bytes()
    assert json.loads(data)["summary"]["fail"] == 0
    pins = json.loads((BENCH / "pins.json").read_text("utf-8"))
    assert hashlib.sha256(data).hexdigest() == pins["verify-all"]["42"]


def test_known_defect_is_told_apart():
    try:
        str(10 ** 5000)
    except ValueError as exc:
        assert workloads._failure("x", 0.0, exc).expected
    assert not workloads._failure("x", 0.0, ValueError("p = 4 is not prime")).expected


def test_exits_nonzero_without_sources():
    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    for name in SPEC["workloads"]:
        proc, last = run("--workload", name["name"], "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and last is None
