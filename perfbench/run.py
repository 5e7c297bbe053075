"""Benchmark of the neighborly_gale package: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload run happens in a fresh interpreter (child.py), so each
sample has its own set-up time, peak RSS and CPU time.  With ``--trace 0``
the run repeats the workload until ``--seconds`` have passed and reports the
median of each end-to-end metric.  With ``--trace 1`` it makes one traced
run in a single process, plus untraced reference runs, and reports the
per-layer metrics.  Both check every output against golden.json; the last
line of output is one JSON object, and the exit code is 1 if any check
failed, 2 if the benchmark could not run.  See NOTES.md.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import SpeedProbe
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 5  # set-up-only interpreters per run, besides the workload ones
TIME_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "stall_max_s": "s",
}

PER_LAYER_UNITS = {
    "core.nodes": "count",
    "core.evaluated": "count",
    "core.us_per_node": "us",
    "core.pair_canonical.calls": "count",
    "core.pair_canonical.s": "s",
    "core.pair_canonical.accept_ratio": "ratio",
    "core.leaf_yield": "ratio",
    "diagram.canonical_form.calls": "count",
    "diagram.canonical_form.s": "s",
    "search.emit_residual_s": "s",
    "search.shard_leaves_max": "count",
    "search.shards": "count",
    "search.shard_max_s": "s",
    "search.fanout_efficiency": "ratio",
    "diagram.count_cofacets.calls": "count",
    "diagram.count_cofacets.us_per_call": "us",
    "oracle.calls": "count",
    "oracle.us_per_call": "us",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run child.py to completion and return the JSON object it printed."""
    # -E -S: no PYTHON* variables and no site-packages, so that the package can
    # only come from this checkout and set-up time is the package's own
    cmd = [sys.executable, "-E", "-S", str(HERE / "child.py"),
           "--spawned-at", repr(time.monotonic()), *args]
    # its own session, so that a timeout also stops its pool workers
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"time limit reached in {' '.join(args)}") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"child.py {' '.join(args)} exited with {proc.returncode}")
    return json.loads(out.decode().splitlines()[-1])


def scaled(sample: dict, speed: SpeedProbe) -> dict:
    """The sample's times at the reference speed over the sample's window.

    Set-up time is left as measured: it is too short for the probe, and its
    spread does not follow the probe's.
    """
    factor = speed.factor(sample["window"], sample.get("cpu"))
    out = {k: v * factor if k.endswith("_s") and k != "setup_s" else v
           for k, v in sample.items()}
    if "layers" in sample:
        out["layers"] = {k: v * factor if k.endswith("_s") else v
                         for k, v in sample["layers"].items()}
    return out


def end_to_end(samples: list[dict], setups: list[float]) -> dict:
    """Medians over the workload samples; set-up over every interpreter."""
    metrics = {
        name: statistics.median(s[name] for s in samples)
        for name in END_TO_END_UNITS
        if name != "setup_s"
    }
    metrics["setup_s"] = statistics.median(setups)
    return metrics


def per_layer(traced: dict, same_jobs: dict, workload: dict, jobs: int) -> dict:
    """Per-layer metrics of a traced run.

    ``same_jobs`` is an untraced run in one process, like the traced one, and
    gives the tracing overhead; ``workload`` is an untraced run at the
    workload's own ``jobs``, the wall time the pool fan-out is judged by.
    """
    f = traced["layers"]
    canon_calls = f["pair_canonical_calls"]
    return {
        "core.nodes": f["nodes"],
        "core.evaluated": f["evaluated"],
        "core.us_per_node": 1e6 * f["shard_self_s"] / f["nodes"],
        "core.pair_canonical.calls": canon_calls,
        "core.pair_canonical.s": f["pair_canonical_s"],
        "core.pair_canonical.accept_ratio": f["pair_canonical_accepts"] / canon_calls,
        "core.leaf_yield": f["evaluated"] / canon_calls,
        "diagram.canonical_form.calls": f["canonical_form_calls"],
        "diagram.canonical_form.s": f["canonical_form_s"],
        "search.emit_residual_s": traced["wait_s"] - f["shard_s"] - f["canonical_form_s"],
        "search.shard_leaves_max": f["shard_leaves_max"],
        "search.shards": f["shards"],
        "search.shard_max_s": f["shard_max_s"],
        "search.fanout_efficiency": f["shard_s"] / (jobs * workload["wall_s"]),
        "diagram.count_cofacets.calls": f["count_cofacets_calls"],
        "diagram.count_cofacets.us_per_call": 1e6 * f["count_cofacets_s"] / f["count_cofacets_calls"],
        "oracle.calls": f["oracle_calls"],
        "oracle.us_per_call": 1e6 * f["oracle_s"] / f["oracle_calls"],
        "trace.overhead": traced["wall_s"] / same_jobs["wall_s"] - 1,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S
    # on SIGTERM, unwind through spawn() so that it stops the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "neighborly_gale" / "__init__.py").is_file():
        print(f"no neighborly_gale package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    name, seed = args.workload, args.seed
    spec = WORKLOADS[name]
    base = ["--workload", name, "--seed", str(seed)]
    try:
        with SpeedProbe() as speed:
            # a single-process run is pinned to one CPU, and scaled by that
            # CPU's probe; a pool run is not pinned
            one_cpu = base + ["--jobs", "1", "--cpu", str(speed.cpus[-1])]
            own_jobs = one_cpu if spec.jobs == 1 else base
            setups = [spawn(["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
            if args.trace:
                workload_ref = spawn(own_jobs, deadline)
                same_jobs_ref = workload_ref if spec.jobs == 1 else spawn(one_cpu, deadline)
                traced = spawn(one_cpu + ["--trace", "1"], deadline)
                samples = [workload_ref, traced]
                if same_jobs_ref is not workload_ref:
                    samples.append(same_jobs_ref)
            else:
                samples = []
                start = time.monotonic()
                while not samples or time.monotonic() - start < args.seconds:
                    samples.append(spawn(own_jobs, deadline))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics = per_layer(
            scaled(traced, speed), scaled(same_jobs_ref, speed), scaled(workload_ref, speed),
            spec.jobs,
        )
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(
            [scaled(s, speed) for s in samples], [s["setup_s"] for s in setups + samples]
        )
        units = END_TO_END_UNITS

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    for s in samples:
        for what in s["failures"]:
            print(f"check failed: {what}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "trace": args.trace,
              "speed_samples": speed.samples, "setups": setups, "samples": samples,
              "metrics": metrics}
    (OUT / f"{name}-seed{seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {name}, seed {seed}, {len(samples)} workload runs; times are scaled "
          f"by about {speed.factor():.4f} to the reference speed (see reference.py)")
    for metric, value in metrics.items():
        print(f"  {metric:36} {value:.6g} {units[metric]}")
    # error_rate is always reported, but it is 0 when the program is right,
    # so it is carried by attempted/failed rather than by a metric
    print(f"  {'error_rate':36} {failed / attempted:.6g} ({failed} of {attempted} checks failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
