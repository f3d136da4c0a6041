"""One benchmark process: set up one workload, then time it.

Started by run.py, one process at a time, as

    python3 perfbench/worker.py --workload W --seed S --seconds T \
        --size full --mode run --spawned-at <time.monotonic()> --out result.json

Modes: ``setup`` stops after set-up, ``run`` repeats the workload's
batch (a pass) while at least half of one more pass fits in
``--seconds``, at least once, with a garbage collection before each
pass and outside its time; ``trace`` installs
the tracer before set-up and does the batch once.  The result, with the
ops of every pass, goes to ``--out`` as JSON.  fgcert is imported from
``src/`` of the checkout that holds this file, never from elsewhere.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def import_fgcert():
    """Import fgcert from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "fgcert" / "__init__.py").is_file():
        print(f"perfbench: no fgcert sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import fgcert
    import fgcert.cli  # noqa: F401  (the CLI module is not imported by the package)

    if Path(fgcert.__file__).resolve().parent != (src / "fgcert").resolve():
        print(f"perfbench: imported fgcert from {fgcert.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return fgcert


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--pins", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    fgcert = import_fgcert()
    from workloads import WORKLOADS, Context

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer(f"{args.workload}-s{args.seed}-pid{os.getpid()}")
        wrapped = tracer.install(fgcert)

    OUT_DIR.mkdir(exist_ok=True)
    pins = json.loads(Path(args.pins).read_text("utf-8"))
    ctx = Context(seed=args.seed, size=args.size, out_dir=OUT_DIR, pins=pins)
    workload = WORKLOADS[args.workload](ctx)
    phase = tracer.phase if tracer else lambda name: contextlib.nullcontext()
    with phase("setup"):
        info = workload.setup()
    setup_s = time.monotonic() - args.spawned_at

    passes = []
    if args.mode != "setup":
        begin = time.perf_counter()
        while True:
            gc.collect()
            start = time.perf_counter()
            with phase(f"pass{len(passes)}"):
                ops = workload.run_pass()
            end = time.perf_counter()
            passes.append({"wall_s": end - start, "ops": [op.__dict__ for op in ops]})
            # another pass only if at least half of it fits in the time left
            if args.mode == "trace" or end - begin + (end - start) / 2 >= args.seconds:
                break

    result = {
        "workload": args.workload,
        "mode": args.mode,
        "setup_s": setup_s,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "inputs": info,
    }
    if tracer is not None:
        trace_path = OUT_DIR / f"trace-{args.workload}-s{args.seed}.jsonl"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "size": args.size, "functions_wrapped": wrapped})
        result["layers"] = tracer.layer_metrics()
    Path(args.out).write_text(json.dumps(result), "utf-8")


if __name__ == "__main__":
    main()
