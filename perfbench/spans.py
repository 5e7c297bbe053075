"""Spans around the package's layer boundaries, recorded from outside the package.

A traced run wraps ``search.run_shard``, ``_core.is_pair_canonical`` and
``search.canonical_form`` inside the package's modules, and the consumer's
``find_delta3``, ``count_cofacets`` and ``oracle_count_cofacets`` calls.  The
package's own files are not changed.  Each span is (name, start, end,
parent, run id); spans live in flat arrays until the run ends, then they are
written out and reduced to per-layer totals and self times.

Spans from pool workers would be lost, so traced runs use one process.
"""
from __future__ import annotations

import dataclasses
import gzip
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

RUN_SHARD = "search.run_shard"
PAIR_CANONICAL = "core.is_pair_canonical"
CANONICAL_FORM = "diagram.canonical_form"
COUNT_COFACETS = "diagram.count_cofacets"
ORACLE = "oracle.oracle_count_cofacets"
FIND_DELTA3 = "search.find_delta3"


class Tracer:
    """Spans and per-shard records of one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._open = [-1]  # stack of open span indices; -1 is the root
        self.last_closed = -1
        self.canonical_accepts = 0
        # (k, n, a0, nodes, evaluated, leaves returned, seconds) per shard
        self.shards: list[tuple[int, int, int, int, int, int, float]] = []

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        names, starts, ends, parents, open_spans = (
            self.name, self.start, self.end, self.parent, self._open
        )
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(open_spans[-1])
            ends.append(0.0)
            open_spans.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_spans.pop()
                tracer.last_closed = i

        return traced

    def _run_shard(self, fn):
        spanned = self.wrap(RUN_SHARD, fn)

        def run_shard(k, n, first_a, *rest):
            out = spanned(k, n, first_a, *rest)
            _, _, leaves, nodes, evaluated = out
            i = self.last_closed
            self.shards.append(
                (k, n, first_a, nodes, evaluated, len(leaves), self.end[i] - self.start[i])
            )
            return out

        return run_shard

    def _is_pair_canonical(self, fn):
        spanned = self.wrap(PAIR_CANONICAL, fn)

        def is_pair_canonical(pairs):
            ok = spanned(pairs)
            if ok:
                self.canonical_accepts += 1
            return ok

        return is_pair_canonical

    def api(self, api):
        """The consumer's calls, each with a span."""
        return dataclasses.replace(
            api,
            find_delta3=self.wrap(FIND_DELTA3, api.find_delta3),
            count_cofacets=self.wrap(COUNT_COFACETS, api.count_cofacets),
            oracle_count_cofacets=self.wrap(ORACLE, api.oracle_count_cofacets),
        )

    @contextmanager
    def patched(self):
        """Wrap the package's internal layer boundaries for the duration."""
        from neighborly_gale import _core, search

        saved = (search.run_shard, _core.is_pair_canonical, search.canonical_form)
        search.run_shard = self._run_shard(saved[0])
        _core.is_pair_canonical = self._is_pair_canonical(saved[1])
        search.canonical_form = self.wrap(CANONICAL_FORM, saved[2])
        try:
            yield
        finally:
            search.run_shard, _core.is_pair_canonical, search.canonical_form = saved

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, so a parent also carries its children's wrapper cost.
        """
        count = len(self.name)
        child_s = array("d", bytes(8 * count))
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child_s[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(count):
            row = out[self.names[self.name[i]]]
            d = self.end[i] - self.start[i]
            row["calls"] += 1
            row["s"] += d
            row["self_s"] += d - child_s[i]
        return out

    def write(self, prefix: Path) -> None:
        """Write the spans as gzipped CSV and the shard records as JSON lines."""
        with gzip.open(f"{prefix}-spans.csv.gz", "wt", compresslevel=1) as f:
            f.write("id,name,start,end,parent,run\n")
            for i in range(len(self.name)):
                f.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i]:.9f},"
                    f"{self.end[i]:.9f},{self.parent[i]},{self.run_id}\n"
                )
        with open(f"{prefix}-shards.jsonl", "w") as f:
            for k, n, a0, nodes, evaluated, leaves, seconds in self.shards:
                f.write(
                    json.dumps(
                        {"k": k, "n": n, "a0": a0, "nodes": nodes, "evaluated": evaluated,
                         "leaves": leaves, "seconds": seconds}
                    )
                    + "\n"
                )

    def layer_figures(self) -> dict:
        """Raw per-layer sums of this run; run.py turns them into metrics."""
        t = self.totals()
        return {
            "nodes": sum(s[3] for s in self.shards),
            "evaluated": sum(s[4] for s in self.shards),
            "shards": len(self.shards),
            "shard_leaves_max": max(s[5] for s in self.shards),
            "shard_max_s": max(s[6] for s in self.shards),
            "shard_s": t[RUN_SHARD]["s"],
            "shard_self_s": t[RUN_SHARD]["self_s"],
            "pair_canonical_calls": t[PAIR_CANONICAL]["calls"],
            "pair_canonical_s": t[PAIR_CANONICAL]["s"],
            "pair_canonical_accepts": self.canonical_accepts,
            "canonical_form_calls": t[CANONICAL_FORM]["calls"],
            "canonical_form_s": t[CANONICAL_FORM]["s"],
            "count_cofacets_calls": t[COUNT_COFACETS]["calls"],
            "count_cofacets_s": t[COUNT_COFACETS]["s"],
            "oracle_calls": t[ORACLE]["calls"],
            "oracle_s": t[ORACLE]["s"],
        }
