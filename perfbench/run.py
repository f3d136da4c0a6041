"""fgcert benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload paper-checks --seed 1 --seconds 35 --trace 0

Each measurement runs in a fresh single-threaded worker process
(perfbench/worker.py), one process at a time.  With ``--trace 0`` the
end-to-end metrics are printed; with ``--trace 1`` an untraced pass and
a traced pass give the per-layer metrics and the tracing overhead.
Every metric is printed as ``name value unit`` with its sample count;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Outputs,
traces and full results go to ``.bench_out/`` in the checkout.

Exit codes: 0 when every gate held or failed only on a documented
defect, 1 when a gate failed otherwise, 2 when the checkout has no
fgcert sources or a worker process failed or ran out of time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = tuple(WORKLOADS)
# Set-up is measured in fresh processes, the median is reported: at
# least SETUP_MIN of them, and more, up to SETUP_MAX, while the set-ups
# so far took less than SETUP_BUDGET_S together.  A cheap set-up is a
# tenth of a second of interpreter start and imports, which a busy host
# moves by half; an expensive one is steadier and costs seconds.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 3.0
# Word hashes include str hashes (through the alphabet), so with a random
# hash seed per process the magnus suite's time varied by ~15% between
# processes doing identical work; every worker uses the same seed.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")
# One workload's workers must end within this many seconds, so that a
# hung worker is stopped and the run fails before the 180 s a run may take.
RUN_BUDGET_S = 170


class WorkerFailed(Exception):
    pass


def spawn(workload: str, mode: str, args, seconds: float, tag: str) -> dict:
    """Run one worker process to completion and return its result."""
    out = OUT_DIR / f"worker-{workload}-{tag}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--size", args.size,
           "--mode", mode, "--pins", str(args.pins), "--out", str(out)]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=WORKER_ENV,
                              stdin=subprocess.DEVNULL,
                              timeout=max(0.0, args.deadline - spawned_at))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload} workers ran over {RUN_BUDGET_S} s") from None
    if proc.returncode != 0 or not out.exists():
        raise WorkerFailed(f"{workload} {mode} worker exited with {proc.returncode}")
    return json.loads(out.read_text("utf-8"))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def fastest_ops(passes: list[dict]) -> list[float]:
    """Each operation's fastest time over the run's passes.

    Every pass runs the same operations in the same order.  On a shared
    host a slowdown only ever adds time, so an operation's fastest
    repetition is the steadiest estimate of its cost; a median over
    passes still moved by a quarter between runs of the same code.
    """
    names = [op["name"] for op in passes[0]["ops"]]
    if any([op["name"] for op in p["ops"]] != names for p in passes):
        raise WorkerFailed("passes ran different operations")
    best = []
    for i in range(len(names)):
        timed = [p["ops"][i]["seconds"] for p in passes if p["ops"][i]["seconds"] is not None]
        if timed:  # an operation that never ran has no time
            best.append(min(timed))
    return best


def tally(results: list[dict]) -> dict:
    ops = [op for r in results for p in r["passes"] for op in p["ops"]]
    failed = [op for op in ops if not op["ok"]]
    return {
        "attempted": len(ops),
        "failed": len(failed),
        "expected_failures": [op for op in failed if op["expected"]],
        "unexpected": [op for op in failed if not op["expected"]],
    }


def end_to_end(workload: str, args) -> tuple[dict, dict, list]:
    """Set-up in several fresh processes (the last also runs the timed
    passes); returns (metrics, sample counts, worker results, main first)."""
    setups = []
    while len(setups) < SETUP_MIN - 1 or (
            len(setups) < SETUP_MAX - 1
            and sum(r["setup_s"] for r in setups) < SETUP_BUDGET_S):
        setups.append(spawn(workload, "setup", args, 0.0, f"setup{len(setups)}"))
    main = spawn(workload, "run", args, args.seconds, "run")
    t = tally([main])
    best = fastest_ops(main["passes"])
    metrics = {
        "setup_s": (statistics.median([r["setup_s"] for r in setups + [main]]), "s"),
        "wall_s": (sum(best), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        "pass_ratio": ((t["attempted"] - t["failed"]) / t["attempted"], "ratio"),
        "query_p50_us": (statistics.median(best) * 1e6, "us"),
        "query_p99_us": (percentile(best, 0.99) * 1e6, "us"),
    }
    fastest_of = f"{len(best)} ops, fastest of {len(main['passes'])} passes"
    samples = {"setup_s": len(setups) + 1, "wall_s": fastest_of, "peak_rss_mb": 1,
               "pass_ratio": t["attempted"], "query_p50_us": fastest_of,
               "query_p99_us": fastest_of}
    return metrics, samples, [main] + setups


def per_layer(workload: str, args) -> tuple[dict, dict, list]:
    """One untraced pass, then one traced pass in a second process."""
    base = spawn(workload, "run", args, 0.0, "untraced")
    traced = spawn(workload, "trace", args, 0.0, "traced")
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    untraced_wall = base["passes"][0]["wall_s"]
    traced_wall = traced["passes"][0]["wall_s"]
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    samples = {name: 1 for name in metrics}
    return metrics, samples, [traced, base]


def provenance(args, workload: str, inputs: dict) -> dict:
    src = ROOT / "src" / "fgcert"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "inputs": inputs,
    }


def run_workload(workload: str, args) -> dict:
    args.deadline = time.monotonic() + RUN_BUDGET_S
    measure = per_layer if args.trace else end_to_end
    metrics, samples, workers = measure(workload, args)
    t = tally(workers)
    record = {
        "provenance": provenance(args, workload, workers[0]["inputs"]),
        "metrics": {k: {"value": v, "unit": u, "samples": samples[k]}
                    for k, (v, u) in metrics.items()},
        "attempted": t["attempted"],
        "failed": t["failed"],
        "expected_failures": [f"{op['name']}: {op['detail'][:200]}"
                              for op in t["expected_failures"]],
        "unexpected_failures": [f"{op['name']}: {op['detail']}" for op in t["unexpected"]],
    }
    path = OUT_DIR / f"result-{workload}-s{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", "utf-8")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="the timed phase repeats its batch until this long has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is the smoke-test size")
    ap.add_argument("--pins", type=Path, default=BENCH_DIR / "pins.json",
                    help="pinned sha256 digests of the paper-checks suite reports, by suite and seed")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fgcert" / "__init__.py").is_file():
        print(f"perfbench: no fgcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    records = {}
    try:
        for name in names:
            records[name] = run_workload(name, args)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    metrics = {}
    for name, rec in records.items():
        prov = rec["provenance"]
        print(f"# {name}: seed {prov['seed']}, size {prov['size']}, python {prov['python']}, "
              f"nproc {prov['nproc']}, commit {prov['commit']}, "
              f"source {prov['source_sha256'][:16]}, inputs {json.dumps(prov['inputs'])}")
        for metric, m in rec["metrics"].items():
            print(f"{name:18} {metric:34} {m['value']:16.6f} {m['unit']:6} (n={m['samples']})")
            key = metric if len(records) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
        for line in rec["expected_failures"]:
            print(f"# {name}: expected failure (documented defect): {line}")
        for line in rec["unexpected_failures"]:
            print(f"# {name}: GATE FAILED: {line}")
    unexpected = sum(len(r["unexpected_failures"]) for r in records.values())
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics,
    }))
    return 0 if unexpected == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
