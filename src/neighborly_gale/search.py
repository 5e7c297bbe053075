"""Exhaustive, symmetry-broken search for the facet-vertex gap minimum.

Enumerates k-neighborly reduced diagrams with center 0, one representative
per dihedral class, over spaces restricted by three prune levels:

* ``marcus``   -- labels at most k+1, label sum at most 4(k+1), any number of
  diameters up to the sum cap, properties P2/P3 enforced.  This is the
  correctness baseline; it provably contains a gap-minimizing diagram.
* ``minimal``  -- marcus plus minimality (no label can be decremented),
  decided by each parent for its children: a label that can be
  decremented in a prefix can be decremented in every completion, so such
  a child is never created.  A new label above both 0 and its side's worst
  semicircle deficit can already be decremented, so the deficits cap the
  label loops; each older label that the new diameter's mass would make
  decrementable bars a quadrant of children, and their union caps the
  back label per front label.  These are exact, so every leaf is minimal
  and the leaf runs no minimality test.
* ``extremal`` -- minimal plus the local structure a gap-minimizing diagram
  must have: adjacent label sums at least 2, and a tighter diameter-count
  cap.  Justified for optima only.  Its per-n label cap, k+4-n for odd n
  and k+5-n for even n, follows from minimality plus adjacency.  A
  positive label x of a minimal diagram lies in an open semicircle of
  mass at most k+1, and the n-2 other positions of that semicircle form
  two runs.  A run of length l holds floor(l/2) disjoint adjacent pairs,
  each of mass at least 2, across the half boundaries too: this is the
  adjacency-pair count.  So x is at most k+1 - 2 floor(l/2) - 2 floor(r/2)
  with l + r = n-2, which is at most k+5-n for even n, where both runs
  can be odd, and k+4-n for odd n.
  Proofs therefore search under the cap k+1, and streams keep the per-n
  cap only as an early cut: without it the ``extremal`` streams stay
  byte-identical but take 1.8-2.9 times the nodes at k = 3..6.

The minimum itself is computed exactly with a branch-and-bound cut.  Each
child diameter (a, b) gets a floor on the gap of every leaf below it: its
cofacets less its vertices, plus the least net effect of the label mass
still to come.  Each later label unit adds one vertex and closes at least
as many triangles as a unit on its half would close right after the child,
and each pair of a later front and a later back unit closes at least one
cofacet more; the semicircle deficits force some of that mass on each
side, whose pairs the floor charges, and every later diameter needs some.
For each front label a the search tests the floor's convex part once, at
its minimum, skipping every b when it exceeds the best gap, and stops the
b loop at the first cut at or past that minimum.  The same test ends the
front label loop where it provably also holds for every later front label.
Subtrees that could still tie the best value are never cut, so every
witness is found.

``find_delta3`` starts from one shard per first front label, which
searches every diameter count as one tree under the label cap k+1, at
every level.  A prefix is then searched once for all the counts it can
still complete, and a leaf of any count tightens the bound for all of
them.  ``enumerate_diagrams`` keeps one shard per (n, a0), under that
count's label cap, so its stream stays grouped by diameter count.

Both searches split their shards into pieces, the idea of cube and conquer
(Heule, Kullmann, Wieringa, Biere, HVC 2011): the a0 = 0 shard holds almost
all of the marcus proof, and a whole stream shard would hold all of its
leaves at once.  A piece is a ``run_shard`` call with a budget of
``PIECE_NODES`` nodes; once it is spent, the piece hands back the subtrees
it has not entered, in depth-first order, each with its node's path and
running values and the bound it was cut with.  The parent runs pieces off
the front of a queue and puts the pieces handed back at the front.

Where a piece runs is a rent-or-buy choice.  While no pool runs, the
parent runs the pieces itself, all of them at ``jobs`` = 1, so the stream
yields each shard's leaves in the shard's order.  At ``jobs > 1`` it stops
once it has spent ``POOL_NODES`` nodes, the break-even point of the pool's
fixed cost (fitted in ``BENCH_26.json`` by ``tools/fit_pool_nodes.py``),
and more than one piece is pending, and starts a pool for the pieces left;
``jobs`` never exceeds the usable CPUs.  A search that finds a pool
running, as in a ``verify_theorem1`` sweep, sends it every piece.  The
pending pieces stay in the parent, and a pool task runs every piece it
carries, through the one function that runs a piece in the parent too.
The split counts nodes alone, so the pieces, and every count in
``SearchStats``, are the same at every ``jobs``.  ``multiprocessing`` is
imported with the first pool: a process that starts none, as one that
only runs streams, never imports it.
"""
from __future__ import annotations

import json
import os
import time
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass

from ._core import ShardResult, run_shard
from .constructions import build_example1
from .diagram import GaleDiagram, _unchecked, canonical_form, count_cofacets, least_image
from .errors import ParameterError, require_ints

PRUNE_LEVELS = ("marcus", "minimal", "extremal")

# Nodes that a piece searches before it hands back the subtrees it has not
# entered: no piece of marcus k = 16 then holds more than 1.3% of its
# nodes (BENCH_11.json).  At jobs=1 the split costs CPU that no pool wins
# back: extremal k = 28 runs as 1,135 pieces of 17.5 nodes on average, 5-10%
# slower than whole shards in 6 of 6 alternating pairs (BENCH_32.json).  It
# stays, so that the pieces are the same at every jobs, and so that a
# stream yields its leaves in bounded steps.
PIECE_NODES = 2000
# Nodes the parent searches in process before it starts a pool: the
# break-even point C s / (s - 1) of rent or buy (Karlin, Manasse, Rudolph,
# Sleator, "Competitive snoopy caching", Algorithmica 3, 1988), which never
# costs more than 2 - 1/s times the better choice made in hindsight.  C is
# the pool's fixed cost (import, start, warm-up, a round trip, teardown) and
# s the speed-up of two processes on a 2-CPU host: 72 fresh-interpreter
# pairs for each of marcus k = 16, 18, ..., 26 at jobs 2 against jobs 1 fit
# C = 59.1 ms and s = 1.80 at 6.40 us a node in process, so
# C s / (s - 1) = 132.6 ms, 20,700 nodes (BENCH_30.json; re-fit with
# tools/fit_pool_nodes.py when nodes get cheaper or proofs smaller).
POOL_NODES = 20700


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one search run.

    ``sum_cap`` and ``n_max`` override the default search-space caps (label
    sum 4(k+1), which also bounds the diameter count).  Tests use them to
    scan slack spaces beyond the default caps, and ``sum_cap`` also defines
    the benchmark's stream workloads (k = 2 at sum cap 15).
    """

    k: int
    prune_level: str = "extremal"
    emit_all: bool = False
    jobs: int = 1
    sum_cap: int | None = None
    n_max: int | None = None

    def __post_init__(self):
        caps = {"sum_cap": self.sum_cap, "n_max": self.n_max}
        require_ints(k=self.k, jobs=self.jobs, **{c: v for c, v in caps.items() if v is not None})
        if type(self.emit_all) is not bool:
            raise ParameterError(f"emit_all must be a bool, got {self.emit_all!r}")
        if self.k < 2:
            raise ParameterError(f"k must be >= 2, got {self.k}")
        if self.prune_level not in PRUNE_LEVELS:
            raise ParameterError(f"unknown prune level {self.prune_level!r}")
        if self.jobs < 1:
            raise ParameterError(f"jobs must be >= 1, got {self.jobs}")
        if self.sum_cap is not None and self.sum_cap < 2 * (self.k + 1):
            raise ParameterError("sum_cap below 2(k+1) leaves an empty space")
        if self.n_max is not None and self.n_max < 2:
            raise ParameterError("n_max must be >= 2")


@dataclass(frozen=True)
class SearchStats:
    """Search effort.  ``pieces`` counts the ``run_shard`` calls; only
    ``wall_time`` depends on ``jobs``."""

    nodes: int
    evaluated: int
    wall_time: float
    pieces: int


@dataclass(frozen=True)
class SearchResult:
    k: int
    prune_level: str
    delta3: int
    witnesses: tuple[GaleDiagram, ...]
    stats: SearchStats

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "prune_level": self.prune_level,
            "delta3": self.delta3,
            "witnesses": [w.to_json() for w in self.witnesses],
            "stats": asdict(self.stats),
        }


def delta3_closed_form(k: int) -> int:
    """Minimum facet-vertex gap over k-neighborly polytopes with d+3 vertices."""
    require_ints(k=k)
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if k in (2, 3):
        return (k + 2) * (k * k + k - 3) // 3
    return 2 * (k * k - 1)


def _sum_cap(config: SearchConfig) -> int:
    return config.sum_cap if config.sum_cap is not None else 4 * (config.k + 1)


def _n_range(config: SearchConfig) -> range:
    k = config.k
    hi = _sum_cap(config)  # P3 forces label sum >= n
    if config.prune_level == "extremal":
        hi = min(hi, k + 2 if k % 2 == 0 else k + 3)
    if config.n_max is not None:
        hi = min(hi, config.n_max)
    return range(2, hi + 1)


def _label_cap(config: SearchConfig, n: int) -> int:
    k = config.k
    cap = k + 1
    if config.prune_level == "extremal":
        # implied by minimality and adjacency (module docstring): only the
        # one-count stream shards use it, as an early cut
        cap = min(cap, k + 5 - n if n % 2 == 0 else k + 4 - n)
    return cap


def _shard_args(config: SearchConfig, bound: int | None) -> list[tuple]:
    """``run_shard`` arguments of every one-count shard (n, a0), in stream order."""
    sum_cap = _sum_cap(config)
    return [
        (config.k, n, first, config.prune_level, sum_cap, _label_cap(config, n), bound, n, (), ())
        for n in _n_range(config)
        for first in range(_label_cap(config, n) + 1)
    ]


def _run_args(config: SearchConfig, bound: int | None) -> list[tuple]:
    """``run_shard`` arguments of one shard per first label a0, over every count.

    Each shard searches every diameter count of ``_n_range`` in one tree, from
    the root (no path or state), under the label cap k+1 at every level: a
    leaf's own tests keep its labels within ``_label_cap`` (module docstring).
    """
    k, level, sum_cap = config.k, config.prune_level, _sum_cap(config)
    counts = _n_range(config)
    return [
        (k, counts[0], first, level, sum_cap, k + 1, bound, counts[-1], (), ())
        for first in range(k + 2)
    ]


def _seed_gap(k: int, sum_cap: int) -> int | None:
    """Gap of the 4-gon diagram with all labels k+1, or None if the sum cap excludes it.

    Inside the space the 4-gon is a leaf at every prune level, so a bound
    seeded with its gap never cuts a minimizer.
    """
    if sum_cap < 4 * (k + 1):
        return None
    square = build_example1(k)
    return count_cofacets(square) - square.vertex_count


def enumerate_diagrams(config: SearchConfig):
    """Yield one canonical representative per dihedral class in the space.

    Diagrams are emitted in canonical form, grouped by diameter count.  No
    branch-and-bound cut is applied: this is the full stream, which grows
    very quickly with k at the marcus level; its shards run in process, in
    pieces that yield their leaves in the shard's order.
    """
    yield from _classes(_search(_shard_args(config, None), _Workers(1)))


def _classes(shards: Iterable[ShardResult]) -> Iterator[GaleDiagram]:
    """One diagram per leaf of one-count shards, in the leaf's least image.

    The search built each leaf's labels, so the diagram skips the public
    constructor's checks.
    """
    for shard in shards:
        n = shard.n
        for labels, _, _ in shard.leaves:
            yield _unchecked(n, least_image(labels))


class _Workers:
    """A pool of at most ``jobs`` processes, started on first use.

    ``jobs`` is capped at the CPUs this process may run on, so on one CPU
    every search stays in process.  The pool never gets more workers than
    the pieces pending when it starts, and it is stopped, its workers
    joined, when the ``with`` block ends.  ``start`` imports
    ``multiprocessing`` itself: the import is part of the pool's fixed
    cost, and a search that starts no pool does not pay it.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = min(jobs, _usable_cpus())
        self.pool = None
        self.size = 0

    def __enter__(self) -> _Workers:
        return self

    def __exit__(self, *exc) -> None:
        if self.pool is not None:
            self.pool.terminate()
            self.pool.join()

    def start(self, pending: int):
        if self.pool is None:
            from multiprocessing import Pool

            self.size = min(self.jobs, pending)
            self.pool = Pool(processes=self.size)
        return self.pool


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_pieces(pieces: list[tuple]) -> tuple[list[ShardResult], list[tuple]]:
    """The shard of each piece, with a budget of ``PIECE_NODES`` nodes, and the
    pieces they hand back, in depth-first order: a pool task, or one piece in
    the parent."""
    opened: list[tuple] = []
    return [run_shard(*piece, PIECE_NODES, opened) for piece in pieces], opened


def _search(pieces: list[tuple], workers: _Workers) -> Iterator[ShardResult]:
    """The shard of every piece, pieces handed back included, as each ends.

    Rent or buy: while no pool runs, the parent runs the pieces itself, one
    at a time through the pool's task function, until the search ends or it
    has spent ``POOL_NODES`` nodes with more than one piece pending, and at
    ``jobs`` = 1 it runs them all.  Only then does it start the pool; a pool
    already running gets every piece.  The pending pieces stay in the
    parent, in a queue whose front takes the pieces handed back.  A pool
    task carries an even share of them over all task slots and runs every
    piece it carries, so no piece travels twice, and the pieces it hands
    back join pieces still pending: as a piece's size is unknown until it
    runs, tasks shrink with the pending pieces, and the last ones are small
    (factoring: Hummel, Schonberg, Flynn, CACM 35(8), 1992).  Each worker has a second task queued, so it
    never waits for the parent.  How the pieces travel does not change any
    piece.  A worker's error reaches the caller as soon as the worker
    raises it.
    """
    pending = deque(pieces)
    spent = 0
    # one piece pending would give a pool of one worker, the parent waiting
    while pending and workers.pool is None and (
        workers.jobs == 1 or spent < POOL_NODES or len(pending) == 1
    ):
        (shard,), opened = _run_pieces([pending.popleft()])
        pending.extendleft(reversed(opened))
        spent += shard.nodes
        yield shard
    if not pending:
        return

    # imported here, as the pool imports it: a search in process never needs it
    from queue import SimpleQueue

    pool = workers.start(len(pending))
    slots = 2 * workers.size
    done: SimpleQueue = SimpleQueue()
    running = 0
    while pending or running:
        while pending and running < slots:
            batch = [pending.popleft() for _ in range(-(-len(pending) // slots))]
            pool.apply_async(_run_pieces, (batch,), callback=done.put, error_callback=done.put)
            running += 1
        out = done.get()
        running -= 1
        if isinstance(out, BaseException):
            raise out
        shards, opened = out
        yield from shards
        pending.extendleft(reversed(opened))


def find_delta3(config: SearchConfig) -> SearchResult:
    """Exact minimum of (cofacets - vertices) over the configured space.

    Deterministic for any ``jobs``: pieces never exchange bounds, and the
    split into pieces counts nodes only, so the explored tree is identical
    under any work distribution.  No pool outlives the call.
    """
    with _Workers(config.jobs) as workers:
        return _find_delta3(config, workers)


def _find_delta3(config: SearchConfig, workers: _Workers) -> SearchResult:
    start = time.monotonic()
    leaves = []
    nodes = pieces = 0
    for shard in _search(_run_args(config, _seed_gap(config.k, _sum_cap(config))), workers):
        leaves += shard.leaves
        nodes += shard.nodes
        pieces += 1

    if not leaves:
        raise ParameterError("empty search space; nothing to minimize")
    best = min(f - v for _, f, v in leaves)
    found = sorted(
        (
            canonical_form(_unchecked(len(labels) // 2, labels))
            for labels, f, v in leaves
            if f - v == best
        ),
        key=lambda d: (d.n, d.labels),
    )
    if not config.emit_all:
        found = found[:1]
    stats = SearchStats(
        nodes=nodes,
        evaluated=len(leaves),
        wall_time=time.monotonic() - start,
        pieces=pieces,
    )
    return SearchResult(
        k=config.k,
        prune_level=config.prune_level,
        delta3=best,
        witnesses=tuple(found),
        stats=stats,
    )


def verify_theorem1(k_max: int, prune_level: str = "extremal", jobs: int = 1) -> list[dict]:
    """Search values against the closed form for k = 2 .. k_max.

    Each row carries the searched minimum, the closed-form value and a match
    flag.  A searched minimum below zero aborts earlier with the offending
    witness, so a completed table doubles as the facets >= vertices check.
    The whole sweep shares one pool, started when a k first needs it.
    """
    require_ints(k_max=k_max, jobs=jobs)
    if not 2 <= k_max <= 28:
        raise ParameterError(f"k_max must be between 2 and 28, got {k_max}")
    rows = []
    with _Workers(jobs) as workers:
        for k in range(2, k_max + 1):
            result = _find_delta3(SearchConfig(k=k, prune_level=prune_level, jobs=jobs), workers)
            closed = delta3_closed_form(k)
            rows.append(
                {
                    "k": k,
                    "searched": result.delta3,
                    "closed_form": closed,
                    "match": result.delta3 == closed,
                    "witnesses": [w.to_json() for w in result.witnesses],
                }
            )
    return rows


def write_results_jsonl(result: SearchResult, stream) -> None:
    """One line per witness, then a summary line with the run statistics."""
    for w in result.witnesses:
        stream.write(
            json.dumps(
                {
                    "k": result.k,
                    "delta3": result.delta3,
                    "diagram": w.to_json(),
                    "cofacets": count_cofacets(w),
                    "vertices": w.vertex_count,
                }
            )
            + "\n"
        )
    stream.write(
        json.dumps(
            {
                "k": result.k,
                "delta3": result.delta3,
                "prune_level": result.prune_level,
                "witness_count": len(result.witnesses),
                **asdict(result.stats),
            }
        )
        + "\n"
    )
