"""The benchmark's workloads: their inputs, the consumer loop and the output checks.

Every workload is exhaustive and deterministic.  The seed only permutes the
order of k in a sweep; a stream has a single input.  This module does not
import the package: the workloads call it through an ``Api`` built by the
process that imported it, so a traced run can hand in wrapped calls.
"""
from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Sweep:
    """``find_delta3`` with every witness, once per k, on ``jobs`` pool workers."""

    ks: tuple[int, ...]
    level: str
    jobs: int


@dataclass(frozen=True)
class Stream:
    """Drain ``enumerate_diagrams`` and check every diagram it yields.

    ``jobs`` is always 1: the enumerator has no pool.
    """

    k: int
    level: str
    sum_cap: int
    jobs: int = 1


# Why each workload: see NOTES.md.  In short, the sweep loads the DFS and the
# branch-and-bound cut over the pool, stream-marcus loads emission and
# canonicality, and stream-minimal loads the leaf filters.
WORKLOADS = {
    "delta3-marcus": Sweep(ks=tuple(range(2, 9)), level="marcus", jobs=2),
    "stream-marcus": Stream(k=2, level="marcus", sum_cap=15),
    "stream-minimal": Stream(k=2, level="minimal", sum_cap=15),
}


@dataclass(frozen=True)
class Api:
    """The package calls that the workloads make."""

    SearchConfig: type
    find_delta3: Callable
    enumerate_diagrams: Callable
    count_cofacets: Callable
    oracle_count_cofacets: Callable


class Checks:
    """Output checks of one run; each one counts toward the error rate."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def expect_each(self, attempted: int, failures: list[str]) -> None:
        """Record ``attempted`` checks made in a loop, of which ``failures`` failed."""
        self.attempted += attempted
        self.failures.extend(failures)


def diagram_key(d) -> list:
    return [d.n, list(d.labels), d.center]


@dataclass
class Waits:
    """How long the consumer waited for results."""

    stall_s: float = 0.0  # the longest wait for one result
    total_s: float = 0.0

    def add(self, start: float, end: float) -> None:
        self.total_s += end - start
        self.stall_s = max(self.stall_s, end - start)


def run_sweep(api: Api, spec: Sweep, seed: int, checks: Checks):
    """Returns (outputs, waits); one result is one k."""
    ks = list(spec.ks)
    random.Random(seed).shuffle(ks)
    outputs = {}
    waits = Waits()
    for k in ks:
        config = api.SearchConfig(k=k, prune_level=spec.level, emit_all=True, jobs=spec.jobs)
        t0 = time.monotonic()
        result = api.find_delta3(config)
        waits.add(t0, time.monotonic())
        # both counters, the fast one and the independent oracle, must agree
        # with the searched minimum on every witness
        for w in result.witnesses:
            for label, counter in (
                ("count_cofacets", api.count_cofacets),
                ("oracle", api.oracle_count_cofacets),
            ):
                gap = counter(w) - w.vertex_count
                checks.expect(
                    gap == result.delta3,
                    f"k={k}: {label} gap {gap} != delta3 {result.delta3} on {diagram_key(w)}",
                )
        outputs[str(k)] = {
            "delta3": result.delta3,
            "witnesses": sorted(diagram_key(w) for w in result.witnesses),
        }
    return outputs, waits


def run_stream(api: Api, spec: Stream, seed: int, checks: Checks):
    """Returns (outputs, waits); one result is one diagram.

    The first wait includes the call that creates the generator.  The wait
    after the last diagram counts in the total but is not a wait for a result.
    """
    clock = time.monotonic
    digest = hashlib.sha256()
    classes = 0
    negative = []
    min_gap = None
    at_min = []
    waits = Waits()
    t0 = clock()
    stream = api.enumerate_diagrams(
        api.SearchConfig(k=spec.k, prune_level=spec.level, sum_cap=spec.sum_cap)
    )
    for d in stream:
        waits.add(t0, clock())
        classes += 1
        digest.update(f"{d.n} {d.labels} {d.center}\n".encode())
        gap = api.count_cofacets(d) - d.vertex_count
        if gap < 0:  # acceptance criterion 8: cofacets >= vertices
            negative.append(f"cofacets below vertices on {diagram_key(d)}")
        if min_gap is None or gap < min_gap:
            min_gap = gap
            at_min = [d]
        elif gap == min_gap:
            at_min.append(d)
        t0 = clock()
    waits.total_s += clock() - t0
    checks.expect_each(classes, negative)
    # the tightest diagrams are cross-checked with the independent counter
    for d in at_min:
        checks.expect(
            api.oracle_count_cofacets(d) == d.vertex_count + min_gap,
            f"oracle disagrees on {diagram_key(d)}",
        )
    outputs = {
        "classes": classes,
        "sha256": digest.hexdigest(),
        "min_gap": min_gap,
        "min_gap_diagrams": sorted(diagram_key(d) for d in at_min),
    }
    return outputs, waits


def run(api: Api, spec, seed: int, checks: Checks):
    if isinstance(spec, Sweep):
        return run_sweep(api, spec, seed, checks)
    return run_stream(api, spec, seed, checks)


def compare(outputs: dict, expected: dict, checks: Checks, where: str = "") -> None:
    """One check per recorded field; a sweep records its fields per k."""
    for key, want in expected.items():
        got = outputs.get(key)
        if isinstance(want, dict):
            compare(got if isinstance(got, dict) else {}, want, checks, f"{where}{key}.")
        else:
            checks.expect(got == want, f"{where}{key}: expected {want!r}, got {got!r}")
