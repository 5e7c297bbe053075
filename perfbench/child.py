"""One measured run of one workload, in a fresh interpreter started by run.py.

The interpreter imports the package from ``src/`` of this checkout and warms
the oracle's triangle tables: that is the set-up.  It then runs the workload
once, checks it against golden.json, and prints one JSON object as its last
line of output.  ``--setup-only`` stops after the set-up.

    python3 perfbench/child.py --spawned-at <time.monotonic()> \
        [--setup-only | --workload NAME --seed N --jobs J --trace 0|1 --cpu C]
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import time
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS, Api, Checks, compare, run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def load_api() -> Api:
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import neighborly_gale
    from neighborly_gale import diagram, oracle, search

    if Path(neighborly_gale.__file__).resolve().parent.parent != src:
        raise SystemExit(f"neighborly_gale imported from {neighborly_gale.__file__}, not {src}")
    return Api(
        SearchConfig=search.SearchConfig,
        find_delta3=search.find_delta3,
        enumerate_diagrams=search.enumerate_diagrams,
        count_cofacets=diagram.count_cofacets,
        oracle_count_cofacets=oracle.oracle_count_cofacets,
    )


def warm_oracle() -> None:
    """Fill the oracle's per-n triangle tables for every n its guard admits."""
    from neighborly_gale.diagram import GaleDiagram
    from neighborly_gale.oracle import MAX_DIAMETERS, oracle_count_cofacets

    for n in range(2, MAX_DIAMETERS + 1):
        oracle_count_cofacets(GaleDiagram(n=n, labels=(1,) * (2 * n)))


def _cpu_s() -> float:
    """CPU seconds of this process and of its children that have been reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def measure(api: Api, spec, seed: int, expected: dict) -> dict:
    """Run the workload once and check it; the timed window covers both.

    Windows are reported on the ``time.monotonic`` clock, which every
    process shares, so run.py can match them with its speed probe.
    """
    checks = Checks()
    cpu0 = _cpu_s()
    t0 = time.monotonic()
    outputs, waits = run(api, spec, seed, checks)
    compare(outputs, expected, checks)
    t1 = time.monotonic()
    cpu = _cpu_s() - cpu0
    return {
        "wall_s": t1 - t0,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stall_max_s": waits.stall_s,
        "wait_s": waits.total_s,
        "window": [t0, t1],
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "failures": checks.failures[:20],
    }


def measure_traced(api: Api, spec, seed: int, expected: dict, run_id: str) -> tuple[dict, Tracer]:
    """``measure`` with every layer boundary traced; adds the layer figures."""
    tracer = Tracer(run_id)
    with tracer.patched():
        sample = measure(tracer.api(api), spec, seed, expected)
    sample["layers"] = tracer.layer_figures()
    return sample, tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpu", type=int, help="pin this process to one CPU")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    api = load_api()
    warm_oracle()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    spec = WORKLOADS[args.workload]
    if args.jobs is not None:
        spec = dataclasses.replace(spec, jobs=args.jobs)
    expected = json.loads((HERE / "golden.json").read_text())[args.workload]
    if args.trace:
        sample, tracer = measure_traced(
            api, spec, args.seed, expected, f"{args.workload}/seed{args.seed}/jobs{spec.jobs}"
        )
        # one file set per workload, overwritten by its next traced run
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / args.workload)
    else:
        sample = measure(api, spec, args.seed, expected)
    sample["setup_s"] = setup_s
    sample["cpu"] = args.cpu
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
