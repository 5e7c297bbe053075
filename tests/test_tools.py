"""The scripts under tools/, imported from their files."""
import importlib.util
import sys
from pathlib import Path

from neighborly_gale.search import SearchConfig, enumerate_diagrams

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    """The module of ``tools/<name>.py``, with ``sys.path`` as it was before."""
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


class TestFingerprint:
    def test_rows_count_what_they_name(self):
        # a stream row counts nodes by wrapping search.run_shard: were the
        # search to stop calling it there, every checkout would print 0 nodes
        # and 0 calls, and two checkouts would still diff as identical
        fingerprint = _load("fingerprint")
        assert fingerprint.proof_row("marcus", 2)["delta3"] == 4
        row = fingerprint.stream_row("minimal", 2, 15)
        config = SearchConfig(k=2, prune_level="minimal", sum_cap=15)
        assert row["classes"] == sum(1 for _ in enumerate_diagrams(config)) == 30
        assert row["nodes"] > 0
        assert row["run_shard_calls"] > 0
