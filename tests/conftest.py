"""Fixtures shared across test modules."""
import pytest

from neighborly_gale._core import run_shard
from neighborly_gale.search import SearchConfig, _shard_args


@pytest.fixture(scope="session")
def marcus_k3_shards():
    """(run_shard arguments, unbounded ShardResult) per shard of the k=3 marcus space.

    The shards come in stream order.  Searching this space is the slowest
    step of the suite, so the criterion 8 stream check and the bound-cut
    test both read it from here.
    """
    config = SearchConfig(k=3, prune_level="marcus")
    return [(args, run_shard(*args)) for args in _shard_args(config, None)]
