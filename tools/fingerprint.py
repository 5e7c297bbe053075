"""Print a fingerprint of the search's results and effort, to compare two checkouts.

    python3 tools/fingerprint.py > fingerprint.json

It imports the package from ``src/`` of its own checkout and prints one JSON
object with sorted keys, so ``diff`` of two checkouts' outputs shows every
row that changed.

* ``proof/<level>/k=<k>``: ``find_delta3`` with ``emit_all`` at jobs 1, for
  ``marcus`` and ``minimal`` at k = 2..20 and ``extremal`` at k = 2..28.
  Each row gives δ₃, the first 16 hex digits of the sha256 of the witnesses
  (one JSON diagram a line), and the nodes, evaluated leaves and pieces of
  ``SearchStats``.
* ``stream/<level>/k=<k>[/cap=<c>]``: the whole ``enumerate_diagrams``
  stream of a space.  Each row gives the classes, the sha256 of the stream
  (one JSON diagram a line, in stream order), and the nodes and
  ``run_shard`` calls, summed by wrapping ``search.run_shard``.

It takes about 15 s on a 2-core host with CPython 3.11.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from neighborly_gale import search  # noqa: E402
from neighborly_gale.search import SearchConfig, enumerate_diagrams, find_delta3  # noqa: E402

PROOFS = {"marcus": range(2, 21), "minimal": range(2, 21), "extremal": range(2, 29)}
# (level, k, sum cap or None for the default)
STREAMS = [
    ("marcus", 2, 15),
    ("minimal", 2, 15),
    ("minimal", 3, None),
    ("minimal", 4, None),
    *(("extremal", k, None) for k in range(2, 7)),
    ("marcus", 3, 12),
]


def _line(diagram) -> bytes:
    return (json.dumps(diagram.to_json()) + "\n").encode()


def proof_row(level: str, k: int) -> dict:
    result = find_delta3(SearchConfig(k=k, prune_level=level, emit_all=True))
    digest = hashlib.sha256(b"".join(_line(w) for w in result.witnesses)).hexdigest()
    stats = result.stats
    return {
        "delta3": result.delta3,
        "witnesses": digest[:16],
        "nodes": stats.nodes,
        "evaluated": stats.evaluated,
        "pieces": stats.pieces,
    }


def stream_row(level: str, k: int, sum_cap: int | None) -> dict:
    run_shard = search.run_shard
    nodes = calls = 0

    def counted(*args):
        nonlocal nodes, calls
        shard = run_shard(*args)
        nodes += shard.nodes
        calls += 1
        return shard

    digest = hashlib.sha256()
    classes = 0
    search.run_shard = counted
    try:
        for diagram in enumerate_diagrams(SearchConfig(k=k, prune_level=level, sum_cap=sum_cap)):
            digest.update(_line(diagram))
            classes += 1
    finally:
        search.run_shard = run_shard
    return {"classes": classes, "sha256": digest.hexdigest(), "nodes": nodes, "run_shard_calls": calls}


def main() -> None:
    rows = {}
    for level, ks in PROOFS.items():
        for k in ks:
            rows[f"proof/{level}/k={k}"] = proof_row(level, k)
    for level, k, sum_cap in STREAMS:
        cap = "" if sum_cap is None else f"/cap={sum_cap}"
        rows[f"stream/{level}/k={k}{cap}"] = stream_row(level, k, sum_cap)
    print(json.dumps(rows, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
