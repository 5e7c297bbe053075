"""Fit the pool's fixed cost and speed-up, and the break-even that sets POOL_NODES.

    python3 tools/fit_pool_nodes.py [--json OUT]

For each marcus k in ``KS`` it times ``PAIRS`` pairs.  Each sample is one
fresh interpreter that imports the package from ``src/`` and times one
``find_delta3(SearchConfig(k, "marcus", emit_all=True, jobs=J))`` call with
``time.perf_counter``.  A pair runs jobs 1 and 2, the one that runs first
alternating.  The jobs=2 runs set ``POOL_NODES`` to 1, so the parent runs
pieces in process only until more than one is pending, and the pool gets
the rest.

Per k, with t1 and t2 the median jobs=1 and jobs=2 times and ``pool`` the
share of the k's nodes that the pool runs (taken from the search itself,
with each pool task run in process), x = t1 * pool is the in-process
time of the pool's nodes and y = t2 - t1 * (1 - pool) the time the pool
took for them.  A least-squares line y = C + x / s over the ks gives the
pool's fixed cost C (the ``multiprocessing`` import, start, warm-up, round
trips, teardown) and the speed-up s of its workers.  A process that starts
no pool never imports ``multiprocessing``, so the jobs=2 samples pay that
import and the jobs=1 samples do not, and C includes it.  The time per
node is the sum of t1 over the sum of nodes.  The break-even of rent or
buy is C s / (s - 1) (Karlin, Manasse, Rudolph, Sleator, "Competitive
snoopy caching", Algorithmica 3, 1988), printed in ms and in nodes.  Last, two jobs=1 searches of the largest k run at once and
alone: twice the time alone over the time at once is the most speed-up the
host gives two processes now (``host_speedup``), which s cannot exceed.  Run
it on an otherwise idle host: the pairs are as noisy as the host.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

SRC = Path(__file__).resolve().parent.parent / "src"
# Proofs that still split into many pieces: one set of the run behind
# POOL_NODES = 20,700, which pooled three such sets (BENCH_30.json).
KS = (16, 18, 20, 22, 24, 26)
PAIRS = 24
PROBES = 8

CHILD = """
import sys, time
sys.path.insert(0, {src!r})
from neighborly_gale import search
search.POOL_NODES = 1
config = search.SearchConfig(k={k}, prune_level="marcus", emit_all=True, jobs={jobs})
start = time.perf_counter()
search.find_delta3(config)
print(1e3 * (time.perf_counter() - start))
"""


def start(k: int, jobs: int) -> subprocess.Popen:
    code = CHILD.format(src=str(SRC), k=k, jobs=jobs)
    return subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True)


def wait_ms(child: subprocess.Popen) -> float:
    out, _ = child.communicate()
    if child.returncode:
        raise SystemExit(f"a sample failed with exit code {child.returncode}")
    return float(out)


def sample_ms(k: int, jobs: int) -> float:
    return wait_ms(start(k, jobs))


def host_speedup(k: int, rounds: int) -> float:
    """Two jobs=1 searches at once against one alone: 2.0 is two whole CPUs.

    The ceiling of s on this host at this time, whatever the pool does.
    """
    ratios = []
    for _ in range(rounds):
        alone = sample_ms(k, 1)
        both = [start(k, 1), start(k, 1)]
        ratios.append(2 * alone / statistics.fmean(wait_ms(child) for child in both))
    return statistics.median(ratios)


def pool_nodes(k: int) -> tuple[int, int]:
    """(all nodes, nodes the pool runs) of marcus k at jobs=2 and POOL_NODES = 1.

    The search splits its nodes as in the timed samples, but its pool runs
    each task in process and counts the nodes of the shards it returns.
    """
    sys.path.insert(0, str(SRC))
    from neighborly_gale import search

    pooled = 0

    class InlinePool:
        def __init__(self, processes):
            pass

        def apply_async(self, func, args, callback, error_callback):
            nonlocal pooled
            out = func(*args)
            pooled += sum(shard.nodes for shard in out[0])
            callback(out)

        def terminate(self):
            pass

        def join(self):
            pass

    config = search.SearchConfig(k=k, prune_level="marcus", jobs=2)
    with patch("multiprocessing.Pool", InlinePool), patch.object(search, "POOL_NODES", 1), \
            patch.object(search, "_usable_cpus", lambda: 2):
        nodes = search.find_delta3(config).stats.nodes
    return nodes, pooled


def fit(rows: list[dict]) -> dict:
    """Least squares y = C + x / s over the rows, and the break-even it implies."""
    xs = [row["x_ms"] for row in rows]
    ys = [row["y_ms"] for row in rows]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    c_ms = my - slope * mx
    s = 1 / slope
    us_per_node = 1e3 * sum(row["jobs1_ms"] for row in rows) / sum(row["nodes"] for row in rows)
    break_even_ms = c_ms * s / (s - 1)
    return {
        "C_ms": round(c_ms, 1),
        "s": round(s, 2),
        "us_per_node": round(us_per_node, 2),
        "break_even_ms": round(break_even_ms, 1),
        "break_even_nodes": round(1e3 * break_even_ms / us_per_node),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", help="also write every pair and the fit to this file")
    args = parser.parse_args()

    rows = []
    for k in KS:
        nodes, pooled = pool_nodes(k)
        pairs = []
        for i in range(PAIRS):
            order = (1, 2) if i % 2 == 0 else (2, 1)
            times = {jobs: sample_ms(k, jobs) for jobs in order}
            pairs.append([round(times[1], 1), round(times[2], 1)])
        t1 = statistics.median(p[0] for p in pairs)
        t2 = statistics.median(p[1] for p in pairs)
        pool = pooled / nodes
        rows.append({
            "k": k, "nodes": nodes, "pool_nodes": pooled,
            "jobs1_ms": round(t1, 1), "jobs2_ms": round(t2, 1),
            "x_ms": round(t1 * pool, 1), "y_ms": round(t2 - t1 * (1 - pool), 1),
            "pairs_ms": pairs,
        })
        print(f"k={k}: {nodes} nodes, {pooled} in the pool, "
              f"jobs=1 {t1:.1f} ms, jobs=2 {t2:.1f} ms", flush=True)
    result = fit(rows)
    result["host_speedup"] = round(host_speedup(max(KS), PROBES), 2)
    print(json.dumps(result))
    if args.json:
        Path(args.json).write_text(json.dumps({"fit": result, "per_k": rows}, indent=1) + "\n")


if __name__ == "__main__":
    main()
