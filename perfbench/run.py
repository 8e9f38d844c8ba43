"""Training benchmark for the EC-Graph reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload reddit-sync --seed 1 --seconds 20 --trace 0

Prints every metric by name with its unit, the correctness checks, and as
the last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``. Exits 0 when every check
passed, 1 when the run completed with failures, 2 when the program under
test is missing or does not import. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import signal
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import host
    from perfbench.workloads import WORKLOADS

    # Registered first, so it runs after every other exit hook (the
    # shared-memory stores' unlink hooks among them), on every way out.
    parent = os.getpid()
    atexit.register(
        lambda: host.stop_children() if os.getpid() == parent else None
    )
    # A terminated run exits through the same hooks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--profile", default="full", choices=("full", "bench", "tiny"),
        help="graph size; accuracy gates apply to 'full' only",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # Before numpy loads: worker processes fork from this one and inherit.
    host.pin_threads()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    try:
        from perfbench import harness
    except ImportError:
        traceback.print_exc()
        return 2

    workload = WORKLOADS[args.workload].at_profile(args.profile)
    state_dir = ROOT / "perfbench" / ".runs"
    try:
        result = harness.run(
            workload, args.seed, args.seconds, bool(args.trace),
            state_dir=state_dir,
            digest=harness.source_digest(ROOT),
        )
    except Exception:  # the run is reported as failed, never silently
        traceback.print_exc()
        print(json.dumps(
            {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        ))
        return 1

    # After the run: scipy loads its own OpenBLAS lazily.
    print("host " + json.dumps(host.host_record(), sort_keys=True))
    for line in result.notes:
        print(line)
    for name, ok, detail in result.checks:
        print(f"check {name:28s} {'ok' if ok else 'FAIL'} {detail}".rstrip())
    for name, (value, unit) in result.metrics.items():
        print(f"metric {name:26s} {value:.6g} {unit}")
    print(json.dumps(result.summary()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
