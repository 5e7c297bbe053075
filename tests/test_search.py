"""Search space enumeration, symmetry breaking, and the gap minimum."""
import dataclasses
import gc
import io
import json
import multiprocessing.pool
import os
import pickle
import subprocess
import sys
import textwrap
import time
from functools import cache
from itertools import islice, product, takewhile
from multiprocessing import Pool, active_children, get_start_method
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from neighborly_gale import _core, search
from neighborly_gale._core import (
    floor_rests,
    front_floor,
    is_pair_canonical,
    run_shard,
)
from neighborly_gale.diagram import (
    GaleDiagram,
    _cycle_semicircle_sums,
    canonical_form,
    count_cofacets,
    dihedral_orbit,
    is_k_neighborly,
    is_minimal,
    is_minimal_cycle,
    least_image,
    semicircle_sums,
)
from neighborly_gale.errors import CounterexampleError, ParameterError
from neighborly_gale.search import (
    PRUNE_LEVELS,
    SearchConfig,
    _label_cap,
    _n_range,
    _run_args,
    _seed_gap,
    _shard_args,
    _sum_cap,
    delta3_closed_form,
    enumerate_diagrams,
    find_delta3,
    verify_theorem1,
    write_results_jsonl,
)


class TestClosedForm:
    def test_values(self):
        assert [delta3_closed_form(k) for k in range(2, 8)] == [4, 15, 30, 48, 70, 96]

    def test_domain(self):
        with pytest.raises(ParameterError):
            delta3_closed_form(1)
        with pytest.raises(ParameterError):
            delta3_closed_form(4.5)


class TestConfig:
    def test_rejects_bad_k(self):
        with pytest.raises(ParameterError):
            SearchConfig(k=1)

    def test_rejects_bad_level(self):
        with pytest.raises(ParameterError):
            SearchConfig(k=2, prune_level="everything")

    def test_rejects_bad_jobs(self):
        with pytest.raises(ParameterError):
            SearchConfig(k=2, jobs=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 2.0},
            {"k": True},
            {"k": 3, "jobs": 1.5},
            {"k": 3, "jobs": True},
            {"k": 3, "sum_cap": 20.0},
        ],
        ids=["k-float", "k-bool", "jobs-float", "jobs-bool", "sum_cap-float"],
    )
    def test_rejects_non_integers(self, kwargs):
        # exact ints, as GaleDiagram requires: a float or a bool would get
        # past the range checks and fail later, or not at all
        with pytest.raises(ParameterError, match="must be integers"):
            SearchConfig(**kwargs)

    @pytest.mark.parametrize("emit_all", ["no", 0, 1, None], ids=["str", "zero", "one", "none"])
    def test_rejects_non_bool_emit_all(self, emit_all):
        # any truthy value would keep every witness, "no" included
        with pytest.raises(ParameterError, match="emit_all must be a bool"):
            SearchConfig(k=3, emit_all=emit_all)

    def test_run_shard_needs_two_diameters(self):
        with pytest.raises(ParameterError):
            run_shard(2, 1, 0, "marcus", 12, 3, None)

    def test_run_shard_needs_counts_in_order(self):
        with pytest.raises(ParameterError):
            run_shard(2, 3, 0, "marcus", 12, 3, None, 2)

    def test_empty_override_space_is_an_error(self):
        # every semicircle needs k+1 mass, so a sum cap of 2(k+1) admits no
        # diagram at all (each window pair needs more than the cap)
        with pytest.raises(ParameterError):
            find_delta3(SearchConfig(k=2, sum_cap=6))


class TestIncrementalCount:
    @pytest.mark.parametrize("k,n_hi", [(2, 12), (3, 6)])
    def test_leaf_accumulator_matches_count(self, k, n_hi):
        from neighborly_gale._core import run_shard

        checked = 0
        for n in range(2, n_hi + 1):
            for first in range(0, k + 2):
                shard = run_shard(k, n, first, "marcus", 4 * (k + 1), k + 1, None)
                for labels, f_run, s_run in shard.leaves:
                    d = GaleDiagram(n, labels)
                    assert f_run == count_cofacets(d)
                    assert s_run == d.vertex_count
                    checked += 1
        assert checked > 1000


def diameter_order(labels):
    """The label cycle read as a_0, b_0, a_1, b_1, ..."""
    n = len(labels) // 2
    return [x for pair in zip(labels[:n], labels[n:]) for x in pair]


def pair_cycle(labels, K):
    """The code cycle ``is_pair_canonical`` reads: a_t K + b_t for every t, then b_t K + a_t."""
    n = len(labels) // 2
    pairs = list(zip(labels[:n], labels[n:]))
    return [a * K + b for a, b in pairs] + [b * K + a for a, b in pairs]


def is_pair_canonical_reference(labels):
    """Is the label cycle, read in diameter order, the least image of its dihedral orbit?"""
    key = diameter_order(labels)
    return all(key <= diameter_order(v) for v in dihedral_orbit(labels))


class TestPairSymmetry:
    @given(
        st.integers(2, 8).flatmap(
            lambda n: st.lists(st.integers(0, 4), min_size=2 * n, max_size=2 * n)
        )
    )
    def test_exactly_one_canonical_member_per_orbit(self, labels):
        labels = tuple(labels)
        n = len(labels) // 2
        orbit = set(dihedral_orbit(labels))
        accepted = [v for v in orbit if is_pair_canonical(pair_cycle(v, 5))]
        # the accepted member is the least image read as a diameter pair sequence
        assert accepted == [min(orbit, key=lambda v: list(zip(v[:n], v[n:])))]

    @given(
        st.integers(2, 8).flatmap(
            lambda n: st.integers(0, 2).flatmap(
                lambda lo: st.lists(
                    st.integers(lo, lo + 1), min_size=2 * n, max_size=2 * n
                )
            )
        )
    )
    def test_matches_reference_on_ties(self, labels):
        # two-letter cycles tie on many images; the check compares only the
        # rotations that start at a code at most the first one
        labels = tuple(labels)
        expected = is_pair_canonical_reference(labels)
        assert is_pair_canonical(pair_cycle(labels, 4)) == expected

    @pytest.mark.parametrize(
        "labels",
        [
            (1, 1, 1, 1),
            (1, 2, 1, 2),
            (1, 1, 2, 1, 1, 2),
            (1, 2, 2, 1, 2, 2),
            (0, 1, 0, 1, 0, 1, 0, 1),
            (0, 1, 1, 0, 1, 1, 0, 1),
            (1, 1, 2, 2, 1, 2, 1, 1, 2, 2),
            (2, 1, 1, 1),
        ],
    )
    def test_matches_reference_on_symmetric_cycles(self, labels):
        expected = is_pair_canonical_reference(labels)
        assert is_pair_canonical(pair_cycle(labels, 3)) == expected

    @given(
        st.integers(2, 10).flatmap(
            lambda n: st.lists(st.integers(0, 4), min_size=2 * n, max_size=2 * n)
        ),
        st.sampled_from([1, 3]),
    )
    @example([1, 2, 1, 2, 1, 2, 1, 2], 1)  # periodic: every other rotation ties
    @example([0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1], 1)
    @example([1, 2, 2, 1, 2, 2], 1)  # a palindrome ties its reversal
    @example([0, 0, 1, 0, 0, 1, 0, 0], 3)
    @example([2, 1, 1, 2, 2, 1, 1, 2], 1)
    @example([0, 1, 2, 2, 1, 0, 0, 1], 1)  # the smaller rotation starts past the middle
    def test_code_cycle_matches_reference(self, labels, pad):
        # the least-rotation rule on the code cycle is the diameter-order
        # least-image rule, with K tight (max + 1) or loose (max + 3)
        labels = tuple(labels)
        cycle = pair_cycle(labels, max(labels) + pad)
        assert is_pair_canonical(cycle) == is_pair_canonical_reference(labels)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_orbit_of_distinct_labels_is_complete(self, n):
        labels = tuple(range(2 * n))
        assert len(set(dihedral_orbit(labels))) == 4 * n

    @pytest.mark.parametrize(
        "k,level,sum_cap", [(2, "marcus", 10), (3, "marcus", 11), (3, "extremal", 13)]
    )
    def test_least_tied_rotation_sets_the_floor(self, k, level, sum_cap):
        # at every node the search reaches, the rotations j >= 1 that read
        # c_j.. or f_j.. = c_0.. through the prefix floor the next diameter
        # at c_{t-j}, and the least such j sets the largest floor: the DFS
        # keeps only that j per family (p0, p1)
        several = 0
        for args, _, _ in _walk(k, level, sum_cap):
            path = args[8]
            t = len(path) // 2
            codes = list(zip(path[:t], path[t:]))
            for family in (codes, [(b, a) for a, b in codes]):
                tied = [j for j in range(1, t) if family[j:] == codes[: t - j]]
                if tied:
                    assert max(codes[t - j] for j in tied) == codes[t - tied[0]], path
                    several += len(tied) > 1
        assert several > 20


def _padded(labels, n):
    """The prefix ``labels`` (front labels, then back labels) padded to n diameters with zeros."""
    t = len(labels) // 2
    return tuple(labels[:t]) + (0,) * (n - t) + tuple(labels[t:]) + (0,) * (n - t)


def _children(labels, k, level):
    """The paths of the children that the ``level`` search creates at the prefix ``labels``.

    The node is searched as the start of a piece at count t + 2, under a
    label cap of its own, so its state comes from ``node_state`` (its codes
    are in base cap + 1), and a budget of 0 hands back every child it
    would recurse into.  With no bound, a sum cap that binds nothing and
    labels up to ``cap`` > every prefix label, a node at ``marcus`` has
    every child that adjacency and symmetry allow, (cap, cap) among them.
    """
    t = len(labels) // 2
    cap = max(k + 1, *labels) + 1
    labels = tuple(labels)
    state = node_state(labels, cap)
    opened = []
    shard = run_shard(k, t + 2, labels[0], level, 1000, cap, None, t + 2, labels, state, 0, opened)
    assert shard.nodes == 1 and not shard.leaves
    return [piece[8] for piece in opened]


def _minimal_prefix(path, k):
    """Is the prefix ``path`` minimal, padded by one zero diameter?

    Padding to any larger count reads the same
    (``test_padded_prefix_reads_the_same_at_every_count``).
    """
    return is_minimal_cycle(_padded(path, len(path) // 2 + 1), k)


def _newest_tight(path, k):
    """Does each positive label of the newest diameter of ``path`` lie in a
    semicircle of mass at most k+1, with the prefix padded by one zero diameter?"""
    t = len(path) // 2
    n = t + 1
    cycle = _padded(path, n)
    sums = _cycle_semicircle_sums(cycle)
    # the semicircle clockwise of position j holds positions j+1 .. j+n-1
    return all(
        not cycle[i] or any(sums[(i - d) % (2 * n)] <= k + 1 for d in range(1, n))
        for i in (t - 1, n + t - 1)
    )


def _minimal_children_by_definition(labels, k):
    """The ``marcus`` children of the prefix ``labels`` whose padded prefixes are minimal."""
    return [child for child in _children(labels, k, "marcus") if _minimal_prefix(child, k)]


def _assert_dropped_children_are_not_minimal(labels, k):
    # the label ceilings and the older labels' staircase drop a child only
    # when its zero-padded prefix is not minimal, so no completion of it is
    # (test_prefix_cut_is_sound)
    kept = set(_children(labels, k, "minimal"))
    for child in _children(labels, k, "marcus"):
        if child not in kept:
            assert not _minimal_prefix(child, k), child


def _stream_up_to(config, n_hi):
    """The stream of ``config`` up to ``n_hi`` diameters (all of it for None).

    The stream comes grouped by ascending diameter count.
    """
    stream = enumerate_diagrams(config)
    return stream if n_hi is None else takewhile(lambda d: d.n <= n_hi, stream)


class TestMinimalCut:
    @given(
        st.integers(2, 7).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 4), min_size=2 * n, max_size=2 * n),
                st.integers(1, n),
            )
        ),
        st.integers(0, 2),
    )
    def test_prefix_cut_is_sound(self, case, slack):
        # the DFS tests minimality on diameters 0..t-1 with the rest read as
        # 0; a cycle that fails there must fail once complete
        labels, t = case
        labels = tuple(labels)
        n = len(labels) // 2
        k = min(semicircle_sums(GaleDiagram(n, labels))) - 1 - slack
        assume(k >= 1)  # labels is then k-neighborly
        padded = tuple(x if i % n < t else 0 for i, x in enumerate(labels))
        if not is_minimal_cycle(padded, k):
            assert not is_minimal_cycle(labels, k)

    @given(
        st.integers(2, 7).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 4), min_size=2 * n, max_size=2 * n),
                st.integers(1, n - 1),
            )
        ),
        st.integers(1, 6),
    )
    def test_light_prefix_is_minimal(self, case, k):
        # the DFS skips the test on a prefix whose front and back masses are
        # both at most k+1: it cannot fail there
        labels, t = case
        n = len(labels) // 2
        padded = tuple(x if i % n < t else 0 for i, x in enumerate(labels))
        assume(sum(padded[:n]) <= k + 1 and sum(padded[n:]) <= k + 1)
        assert is_minimal_cycle(padded, k)

    @given(
        st.integers(1, 6).flatmap(
            lambda t: st.lists(st.integers(0, 4), min_size=2 * t, max_size=2 * t)
        ),
        st.integers(1, 6),
    )
    @example([3, 0, 0, 3], 2)  # a label held only by semicircles of the padding
    def test_padded_prefix_reads_the_same_at_every_count(self, labels, k):
        # an inner node of a run tests minimality once for all its open
        # counts: the prefix padded with zero diameters to any n > t
        t = len(labels) // 2
        front, back = labels[:t], labels[t:]

        def padded(n):
            return tuple(front + [0] * (n - t) + back + [0] * (n - t))

        expected = is_minimal_cycle(padded(t + 1), k)
        for n in range(t + 2, t + 6):
            assert is_minimal_cycle(padded(n), k) == expected, n

    def test_node_test_is_the_definition_on_small_prefixes(self):
        # every prefix of t <= 3 diameters with labels 0..3: the parent
        # creates exactly the marcus children whose zero-padded prefixes are
        # minimal, none when its own prefix is not
        for k in (1, 2, 3):
            for t in (1, 2, 3):
                for labels in product(range(4), repeat=2 * t):
                    expected = _minimal_children_by_definition(labels, k)
                    assert _children(labels, k, "minimal") == expected, (labels, k)

    @given(
        st.integers(1, 6).flatmap(
            lambda t: st.lists(st.integers(0, 4), min_size=2 * t, max_size=2 * t)
        ),
        st.integers(1, 6),
    )
    @example([3, 0, 0, 3], 2)  # a label held only by semicircles of the padding
    def test_node_test_is_the_definition(self, labels, k):
        assert _children(labels, k, "minimal") == _minimal_children_by_definition(labels, k)

    def test_label_ceilings_drop_only_children_that_are_not_minimal_small(self):
        for k in (1, 2, 3):
            for t in (1, 2):
                for labels in product(range(5), repeat=2 * t):
                    _assert_dropped_children_are_not_minimal(labels, k)

    @given(
        st.integers(1, 6).flatmap(
            lambda t: st.lists(st.integers(0, 6), min_size=2 * t, max_size=2 * t)
        ),
        st.integers(1, 7),
    )
    def test_label_ceilings_drop_only_children_that_are_not_minimal(self, labels, k):
        _assert_dropped_children_are_not_minimal(labels, k)

    @pytest.mark.parametrize("k,n_hi", [(2, None), (3, 5)])
    def test_minimal_stream_is_filtered_marcus_stream(self, k, n_hi):
        marcus = _stream_up_to(SearchConfig(k=k, prune_level="marcus"), n_hi)
        minimal = _stream_up_to(SearchConfig(k=k, prune_level="minimal"), n_hi)
        assert list(minimal) == [d for d in marcus if is_minimal(d, k)]


def _walk(k, level, sum_cap):
    """(args, shard, children) of every node of the space's one-count shards.

    Each node is searched as a piece of its own with a budget of no nodes,
    from the path and state its parent handed back, and it hands back the
    paths of the children it would recurse into; a node of the last
    diameter evaluates its leaves.  The roots come first, with empty paths.
    """
    pending = _shard_args(SearchConfig(k=k, prune_level=level, sum_cap=sum_cap), None)
    nodes = []
    while pending:
        args = pending.pop()
        opened = []
        shard = run_shard(*args, 0, opened)
        nodes.append((args, shard, [piece[8] for piece in opened]))
        pending += opened
    return nodes


# the spaces whose every node the last-diameter tests visit: k = 2 and 3 at
# each level, at the default sum cap and at slack ones
WALKED = [
    (2, "marcus", 10),
    (2, "marcus", 12),
    (2, "minimal", 12),
    (2, "minimal", 15),
    (2, "extremal", 10),
    (2, "extremal", 12),
    (3, "marcus", 11),
    (3, "marcus", 12),
    (3, "minimal", 12),
    (3, "extremal", 13),
    (3, "extremal", 16),
]


def _is_leaf(labels, k, level, sum_cap):
    """Is the label cycle in the ``level`` space of ``k``, up to symmetry?"""
    n = len(labels) // 2
    adj = 2 if level == "extremal" else 1
    if sum(labels) > sum_cap or any(labels[i] + labels[i + n] == 0 for i in range(n)):
        return False  # over the cap, or a dead diameter
    if any(labels[i - 1] + labels[i] < adj for i in range(2 * n)):
        return False
    if not is_k_neighborly(GaleDiagram(n, labels), k):
        return False
    return level == "marcus" or is_minimal_cycle(labels, k)


def _reads_below(path):
    """Does f_0, f_1, ... read below c_1, c_2, ... on the diameters of ``path``?

    Then the rotation that starts at a last diameter equal to c_0 beats the
    identity, so no canonical completion of the path ends with c_0.
    """
    t = len(path) // 2
    pairs = list(zip(path[:t], path[t:]))
    return [(b, a) for a, b in pairs[:-1]] < pairs[1:]


@cache
def _least_completion_mass(a0, b0, a, b, r, below):
    """Least mass of r diameters after a child (a, b) that meets P2, P3 and the code floors.

    The first diameter is (a0, b0) with b0 >= 1, which settles the pair
    a_{n-1}, b_0.  With a0 = 0, every diameter's code and flipped code is
    at least c_0 = (0, b0), and when ``below`` the last diameter is not
    c_0.  With a0 >= 1 the floors are left out, as the search does not
    charge them.  Labels of 0 and 1 suffice: lowering a positive label to
    1 keeps every sum that P2 and P3 ask to be >= 1, and a diameter that
    this would take below a floor, or to a barred c_0, can be (1, 1)
    instead, which is no heavier.
    """
    least = None
    for tail in product((0, 1), repeat=2 * r):
        front = (a,) + tail[:r]
        back = (b,) + tail[r:] + (a0,)  # b_{n-1} precedes a_0
        pairs = list(zip(tail[:r], tail[r:]))
        if any(x + y == 0 for x, y in pairs):
            continue  # a dead diameter
        if any(front[i] + front[i + 1] == 0 for i in range(r)):
            continue
        if any(back[i] + back[i + 1] == 0 for i in range(r + 1)):
            continue
        if not a0 and any(min(pair, pair[::-1]) < (0, b0) for pair in pairs):
            continue  # a rotation from this code or its flip beats the identity
        if not a0 and below and pairs[-1] == (0, b0):
            continue
        if least is None or sum(tail) < least:
            least = sum(tail)
    return least


def _completions(r, mass, cap):
    """Every r diameters of labels <= cap and total mass <= ``mass``, none dead.

    Yields (front labels, back labels).
    """
    if r == 0:
        yield (), ()
        return
    for a in range(min(cap, mass - r + 1) + 1):
        for b in range(0 if a else 1, min(cap, mass - r + 1 - a) + 1):
            for front, back in _completions(r - 1, mass - a - b, cap):
                yield (a,) + front, (b,) + back


class TestLastDiameterCuts:
    @pytest.mark.parametrize("k,level,sum_cap", WALKED)
    def test_every_last_node_keeps_exactly_its_canonical_leaves(self, k, level, sum_cap):
        # the floors of tied rotations and of reversals that read the prefix
        # back, and the skip of the last rotation, may drop only children
        # whose full code cycle fails is_pair_canonical: each node of the
        # last diameter keeps exactly the canonical (a, b) of the space
        last_nodes = 0
        for args, shard, _ in _walk(k, level, sum_cap):
            n, cap, path = args[1], args[5], args[8]
            t = len(path) // 2
            if t != n - 1:
                continue
            last_nodes += 1
            front, back = path[:t], path[t:]
            expected = set()
            for a, b in product(range(cap + 1), repeat=2):
                labels = front + (a,) + back + (b,)
                if _is_leaf(labels, k, level, sum_cap) and is_pair_canonical(
                    pair_cycle(labels, cap + 1)
                ):
                    expected.add(labels)
            assert {labels for labels, _, _ in shard.leaves} == expected, args
        assert last_nodes > 20

    @pytest.mark.parametrize("k,level,sum_cap", [w for w in WALKED if w[1] != "extremal"])
    def test_p3_unit_drops_only_children_without_a_completion(self, k, level, sum_cap):
        # with a_0 = 0, P3 across the half boundary and the code floors may
        # cost the diameters after a child more than one unit each.  Against
        # the same node under a sum cap that binds nothing, the node keeps
        # exactly the children whose least completion that meets P2, P3 and
        # the code floors fits the sum cap, unless its deficits cut it whole
        p = k + 1
        checked = 0
        for args, shard, children in _walk(k, level, sum_cap):
            n, first, cap, path, state = args[1], args[2], args[5], args[8], args[9]
            t = len(path) // 2
            r = n - t - 1  # the diameters after a child
            if not path or r < 1 or r > 5:
                continue
            opened = []
            run_shard(k, n, first, level, 1000, cap, None, n, path, state, 0, opened)
            free = [piece[8] for piece in opened]
            _, s, sa, sb, _, _, mf, mb = prefix_state(path[:t], path[t:])
            if max(p - sa + mf, 0) + max(p - sb + mb, 0) > sum_cap - s:
                assert children == [], args
                continue
            least = [
                sum(c) + _least_completion_mass(first, c[t + 1], c[t], c[-1], r, _reads_below(c))
                for c in free
            ]
            assert children == [c for c, m in zip(free, least) if m <= sum_cap], args
            # children that one unit per diameter would have kept
            checked += sum(sum(c) + r <= sum_cap < m for c, m in zip(free, least))
        assert checked > 5

    @pytest.mark.parametrize("k,level,sum_cap", WALKED)
    def test_least_mass_drops_only_children_without_a_leaf(self, k, level, sum_cap):
        # a child that one unit per open diameter would keep, but that the
        # node drops under the sum cap, has no leaf of the space below it:
        # no completion within the cap is a canonical leaf.  The dropped
        # children include ones of a_0 = 0, b_0 = 2 shards, where every open
        # diameter carries two units, and ones with b_0 = 1 whose prefix
        # reads f_0 < c_1, so that the last diameter is not c_0.  At the
        # slack extremal caps 12 (k = 2) and 16 (k = 3) the minimality
        # staircase bars every b_0 = 2 child that the least mass would
        # drop, and one b_0 = 1 child is left in each; the tighter extremal
        # caps 10 and 13 still have both kinds (7 and 16, 37 and 75)
        two = below = 0
        for args, _, children in _walk(k, level, sum_cap):
            n, first, cap, path, state = args[1], args[2], args[5], args[8], args[9]
            u = len(path) // 2 + 1  # the diameters of a child
            r = n - u
            if r < 1 or r > 4:
                continue
            opened = []
            run_shard(k, n, first, level, 1000, cap, None, n, path, state, 0, opened)
            for c in [piece[8] for piece in opened]:
                if c in children or sum(c) + r > sum_cap:
                    continue
                front, back = c[:u], c[u:]
                for tail_front, tail_back in _completions(r, sum_cap - sum(c), cap):
                    labels = front + tail_front + back + tail_back
                    assert not (
                        is_pair_canonical(pair_cycle(labels, cap + 1))
                        and _is_leaf(labels, k, level, sum_cap)
                    ), (args, labels)
                if not first:
                    two += back[0] == 2
                    # f_0 = (b_0, a_0) = (1, 0)
                    below += back[0] == 1 and u > 1 and (1, 0) < (front[1], back[1])
        assert below > 0
        assert two > 0 or (k, level, sum_cap) in ((2, "extremal", 12), (3, "extremal", 16))


def _adjacent(labels, adj):
    """Do the labels of each pair of adjacent positions of ``labels`` sum to at least ``adj``?"""
    return all(labels[i - 1] + labels[i] >= adj for i in range(len(labels)))


class TestMinimalStaircase:
    # stream spaces of the minimal levels, walked node by node: the parent's
    # ceilings on new labels and its staircase of older labels create only
    # children whose zero-padded prefixes are minimal, and drop only ones
    # whose prefixes are not
    @pytest.mark.parametrize(
        "k,level,sum_cap", [(2, "minimal", 15), (3, "minimal", 12), (4, "extremal", None)]
    )
    def test_parent_creates_exactly_the_minimal_children(self, k, level, sum_cap):
        walked = _walk(k, level, sum_cap)
        # every leaf the search creates is minimal
        assert all(is_minimal_cycle(leaf[0], k) for _, shard, _ in walked for leaf in shard.leaves)
        adj = 2 if level == "extremal" else 1
        older = 0
        for args, shard, children in walked:
            path = args[8]
            t = len(path) // 2
            assert _minimal_prefix(path, k), args
            # the same node at marcus has every child and leaf of the level
            # that passes its adjacency floor, unless marcus charges P3's
            # unit where extremal does not: so the check runs one way
            at_marcus = []
            marcus = run_shard(*args[:3], "marcus", *args[4:10], 0, at_marcus)
            for child in [piece[8] for piece in at_marcus]:
                front, back = child[: t + 1], child[t + 1 :]
                if child in children:
                    continue
                if t and min(front[-2] + front[-1], back[-2] + back[-1]) < adj:
                    continue  # below the adjacency floor
                assert not _minimal_prefix(child, k), (args, child)
                older += _newest_tight(child, k)  # an older label bars it
            for leaf in marcus.leaves:
                if _adjacent(leaf[0], adj) and is_minimal_cycle(leaf[0], k):
                    assert leaf in shard.leaves, (args, leaf)
        assert older > 500

    @pytest.mark.parametrize("level", ["minimal", "extremal"])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_proof_tree_leaves_are_minimal(self, k, level):
        # the multi-count trees of find_delta3, with no bound: the leaf runs
        # no minimality test, so the ceilings and staircase alone keep every
        # leaf minimal
        for args in _run_args(SearchConfig(k=k, prune_level=level), None):
            for labels, _, _ in run_shard(*args).leaves:
                assert is_minimal_cycle(labels, k), (args, labels)


class TestEnumerate:
    def test_k2_extremal_contains_all_ones(self):
        stream = list(enumerate_diagrams(SearchConfig(k=2, prune_level="extremal")))
        assert GaleDiagram(4, (1,) * 8) in stream

    def test_k4_extremal_contains_full_square(self):
        stream = list(enumerate_diagrams(SearchConfig(k=4, prune_level="extremal")))
        assert GaleDiagram(2, (5, 5, 5, 5)) in stream

    def test_emitted_are_canonical_and_distinct(self):
        stream = list(enumerate_diagrams(SearchConfig(k=2, prune_level="minimal")))
        assert len({(d.n, d.labels) for d in stream}) == len(stream)
        for d in stream:
            assert canonical_form(d) == d

    def test_emits_canonical_form_of_each_kept_leaf(self):
        config = SearchConfig(k=2, prune_level="minimal")
        expected = [
            canonical_form(GaleDiagram(shard.n, labels))
            for shard in (run_shard(*args) for args in _shard_args(config, None))
            for labels, _, _ in shard.leaves
        ]
        assert list(enumerate_diagrams(config)) == expected

    @pytest.mark.parametrize(
        "k,level,sum_cap",
        [(2, "marcus", 12), (2, "marcus", 15), (3, "minimal", None), (4, "extremal", None)],
    )
    def test_emission_matches_the_definitions(self, monkeypatch, k, level, sum_cap):
        # every class the stream yields, against the leaf the search made:
        # the least image by the orbit's definition, and a diagram equal to
        # the one the public, validating constructor builds.  Every leaf is
        # canonical and no two share an orbit, though the leaf checks
        # canonicality only where its last diameter ties a floor
        leaves = []

        def recording(*args):
            shard = run_shard(*args)
            leaves.extend(labels for labels, _, _ in shard.leaves)
            return shard

        monkeypatch.setattr(search, "run_shard", recording)
        config = SearchConfig(k=k, prune_level=level, sum_cap=sum_cap)
        classes = set()
        for i, d in enumerate(enumerate_diagrams(config)):
            assert d.labels == min(dihedral_orbit(leaves[i]))
            public = GaleDiagram(d.n, d.labels)
            assert d == public and hash(d) == hash(public)
            assert type(d.labels) is tuple and type(d.n) is int and d.center == 0
            classes.add(d.labels)
        assert len(classes) == len(leaves) > 0
        # labels are at most k + 1
        assert all(is_pair_canonical(pair_cycle(leaf, k + 2)) for leaf in leaves)

    def test_emitted_are_k_neighborly(self):
        for level in ("marcus", "minimal", "extremal"):
            for d in enumerate_diagrams(SearchConfig(k=2, prune_level=level)):
                assert is_k_neighborly(d, 2)
                assert d.center == 0

    def test_minimal_level_diagrams_are_minimal(self):
        for d in enumerate_diagrams(SearchConfig(k=2, prune_level="minimal")):
            assert is_minimal(d, 2)

    def test_extremal_level_adjacent_mass(self):
        for d in enumerate_diagrams(SearchConfig(k=3, prune_level="extremal")):
            two_n = 2 * d.n
            assert all(
                d.labels[i] + d.labels[(i - 1) % two_n] >= 2 for i in range(two_n)
            )

    @pytest.mark.parametrize("k", [2, 3])
    def test_extremal_is_minimal_restricted(self, k):
        # the extremal stream is the minimal stream cut down to adjacent
        # sums >= 2 (half boundary included) and the extremal n and label caps
        extremal = SearchConfig(k=k, prune_level="extremal")
        n_hi = _n_range(extremal)[-1]
        expected = {
            (d.n, d.labels)
            for d in _stream_up_to(SearchConfig(k=k, prune_level="minimal"), n_hi)
            if max(d.labels) <= _label_cap(extremal, d.n)
            and all(d.labels[i - 1] + d.labels[i] >= 2 for i in range(2 * d.n))
        }
        got = {(d.n, d.labels) for d in enumerate_diagrams(extremal)}
        assert got == expected

    def test_extremal_count_cap_removes_no_diagram(self):
        # the count cap is the last count whose label cap is at least 2: past
        # it labels are at most 1, adjacency forces all ones, and the all-ones
        # cycle has semicircles of mass n-1 > k+1, so it is not minimal
        for k in range(2, 41):
            config = SearchConfig(k=k, prune_level="extremal")
            counts = range(2, _sum_cap(config) + 1)
            assert _n_range(config)[-1] == max(n for n in counts if _label_cap(config, n) >= 2)
        for k in range(2, 7):
            config = SearchConfig(k=k, prune_level="extremal")
            sum_cap = _sum_cap(config)
            past = [
                n
                for n in range(_n_range(config)[-1] + 1, sum_cap + 1)
                if _label_cap(config, n) >= 1
            ]
            assert past == ([k + 3, k + 4] if k % 2 == 0 else [])
            for n in past:
                cap = _label_cap(config, n)
                for first in range(cap + 1):
                    shard = run_shard(k, n, first, "extremal", sum_cap, cap, None, n, (), ())
                    assert shard.leaves == []

    @pytest.mark.parametrize("level", ["marcus", "minimal"])
    @pytest.mark.parametrize("k,n_hi", [(2, 4), (4, 3)])
    def test_stream_matches_brute_force_small(self, k, n_hi, level):
        expected = {
            (n, canonical_form(GaleDiagram(n, labels)).labels)
            for n in range(2, n_hi + 1)
            for labels in product(range(k + 2), repeat=2 * n)
            if _is_leaf(labels, k, level, 4 * (k + 1))
        }
        got = {
            (d.n, d.labels)
            for d in _stream_up_to(SearchConfig(k=k, prune_level=level), n_hi)
        }
        assert got == expected


class TestFindDelta3:
    def test_k2_value_and_witness(self):
        result = find_delta3(SearchConfig(k=2, prune_level="extremal", emit_all=True))
        assert result.delta3 == 4
        assert GaleDiagram(4, (1,) * 8) in result.witnesses

    def test_k3_value(self):
        assert find_delta3(SearchConfig(k=3)).delta3 == 15

    def test_witness_gap_consistency(self):
        result = find_delta3(SearchConfig(k=3, prune_level="minimal", emit_all=True))
        for w in result.witnesses:
            assert is_k_neighborly(w, 3)
            assert count_cofacets(w) - w.vertex_count == result.delta3
            assert canonical_form(w) == w

    def test_level_agreement_small(self):
        for k in (2, 3, 4):
            values = {
                level: find_delta3(SearchConfig(k=k, prune_level=level)).delta3
                for level in ("marcus", "minimal", "extremal")
            }
            assert len(set(values.values())) == 1, values

    def test_jobs_do_not_change_anything(self, monkeypatch):
        # marcus k = 18 (21,927 nodes), the least k that outgrows
        # POOL_NODES, starts a real pool at jobs=2; the pieces, and so every
        # count, stay the same
        config = SearchConfig(k=18, prune_level="marcus", emit_all=True)
        serial = find_delta3(config)
        assert serial.stats.nodes > search.POOL_NODES
        pools = _count_pools(monkeypatch)
        parallel = find_delta3(dataclasses.replace(config, jobs=2))
        assert pools == [2]
        assert active_children() == []
        assert _counts(parallel) == _counts(serial)
        assert serial.stats.pieces > len(_run_args(config, None))  # it split

    def test_no_piece_reaches_a_worker_twice(self, monkeypatch):
        # the pending pieces stay in the parent and a pool task runs every
        # piece it carries: the pool runs each piece that the parent does
        # not run exactly once, and no task sends one back unstarted
        config = SearchConfig(k=20, prune_level="marcus", emit_all=True)
        serial = find_delta3(config)
        tasks = _record_tasks(monkeypatch)
        in_parent = []

        def spied(*args):
            in_parent.append(args)
            return run_shard(*args)

        monkeypatch.setattr(search, "run_shard", spied)
        parallel = find_delta3(dataclasses.replace(config, jobs=2))
        assert active_children() == []
        sent = [piece for pieces in tasks for piece in pieces]
        assert len(tasks) > 1
        assert len(set(sent)) == len(sent)
        assert len(in_parent) + len(sent) == serial.stats.pieces
        assert _counts(parallel) == _counts(serial)

    def test_single_witness_mode(self):
        result = find_delta3(SearchConfig(k=2, prune_level="minimal", emit_all=False))
        assert len(result.witnesses) == 1
        every = find_delta3(SearchConfig(k=2, prune_level="minimal", emit_all=True))
        assert result.witnesses[0] == min(
            every.witnesses, key=lambda d: (d.n, d.labels)
        )

    def test_witnesses_complete_against_stream(self):
        # the bound cut never drops ties: the witness set must equal the
        # set of gap minimizers seen by the cut-free enumerator
        result = find_delta3(SearchConfig(k=2, prune_level="marcus", emit_all=True))
        best = None
        optima = set()
        for d in enumerate_diagrams(SearchConfig(k=2, prune_level="marcus")):
            gap = count_cofacets(d) - d.vertex_count
            if best is None or gap < best:
                best = gap
                optima = {(d.n, d.labels)}
            elif gap == best:
                optima.add((d.n, d.labels))
        assert best == result.delta3
        assert {(w.n, w.labels) for w in result.witnesses} == optima

    @pytest.mark.parametrize("level", ["marcus", "minimal", "extremal"])
    def test_sum_cap_below_the_square(self, level):
        # a sum cap below 4(k+1) excludes the 4-gon that seeds the bound, so
        # the search runs without the cut and must still find the minimum
        config = SearchConfig(k=4, prune_level=level, sum_cap=12, emit_all=True)
        result = find_delta3(config)
        gaps = {
            (d.n, d.labels): count_cofacets(d) - d.vertex_count
            for d in enumerate_diagrams(config)
        }
        assert result.delta3 == min(gaps.values()) == 34
        assert {(w.n, w.labels) for w in result.witnesses} == {
            key for key, gap in gaps.items() if gap == 34
        }

    # ids leave out the ceilings, so lowering one keeps the test's name
    @pytest.mark.parametrize(
        "k,ceiling",
        [(2, 61), (3, 125), (4, 226), (5, 376), (6, 597)],
        ids=["k2", "k3", "k4", "k5", "k6"],
    )
    def test_marcus_node_ceiling(self, k, ceiling):
        # stronger cuts may lower these counts; none may raise them
        result = find_delta3(SearchConfig(k=k, prune_level="marcus"))
        assert result.stats.nodes <= ceiling

    @pytest.mark.parametrize(
        "level,k,ceiling",
        [
            ("minimal", 2, 58),
            ("minimal", 3, 119),
            ("minimal", 4, 216),
            ("minimal", 5, 357),
            ("minimal", 6, 572),
            ("extremal", 2, 20),
            ("extremal", 3, 44),
            ("extremal", 4, 77),
            ("extremal", 5, 122),
            ("extremal", 6, 193),
            ("extremal", 12, 1187),
            ("extremal", 20, 5893),
            # below POOL_NODES: the default level starts no pool up to
            # verify's largest k
            ("extremal", 28, 19869),
        ],
        ids=[f"{level}-k{k}" for level in ("minimal", "extremal") for k in range(2, 7)]
        + ["extremal-k12", "extremal-k20", "extremal-k28"],
    )
    def test_node_ceiling(self, level, k, ceiling):
        result = find_delta3(SearchConfig(k=k, prune_level=level))
        assert result.stats.nodes <= ceiling

    @pytest.mark.parametrize(
        "level,k,sum_cap,ceiling",
        [
            ("marcus", 2, 15, 231119),
            ("minimal", 2, 15, 3176),
            ("minimal", 3, None, 22327),
            ("extremal", 2, None, 202),
            ("extremal", 3, None, 1071),
            ("extremal", 4, None, 6159),
            ("extremal", 5, None, 34813),
        ],
        ids=[
            "marcus-k2-cap15",
            "minimal-k2-cap15",
            "minimal-k3",
            "extremal-k2",
            "extremal-k3",
            "extremal-k4",
            "extremal-k5",
        ],
    )
    def test_stream_node_ceiling(self, level, k, sum_cap, ceiling):
        config = SearchConfig(k=k, prune_level=level, sum_cap=sum_cap)
        assert sum(run_shard(*args).nodes for args in _shard_args(config, None)) <= ceiling

    def test_stream_canonicality_checks(self, monkeypatch):
        # the last diameter's floors leave few non-canonical leaves, and the
        # leaf checks only those whose last diameter ties a floor; stronger
        # floors may lower this count, none may raise it
        calls = 0
        check = _core.is_pair_canonical

        def counted(cycle):
            nonlocal calls
            calls += 1
            return check(cycle)

        monkeypatch.setattr(_core, "is_pair_canonical", counted)
        config = SearchConfig(k=2, prune_level="marcus")
        assert sum(run_shard(*args).evaluated for args in _shard_args(config, None)) == 5051
        assert calls <= 1960

    def test_stats_populated(self):
        result = find_delta3(SearchConfig(k=2))
        assert result.stats.nodes > 0
        assert result.stats.evaluated >= 1
        assert result.stats.wall_time >= 0


def prefix_state(front, back):
    """(f, s, sa, sb, xa, xb, mf, mb) of a diameter prefix, from its labels alone.

    f counts the cofacets among the assigned diameters (complete diameters
    and triangles with two same-half labels around an opposite-half one),
    xa (xb) the triangles a later front (back) unit closes at least, and
    p - sa + mf (p - sb + mb) is the largest semicircle deficit that only
    later front (back) labels can pay.
    """
    t = len(front)
    f = sum(a * b for a, b in zip(front, back))
    for i in range(t):
        for j in range(i + 2, t):
            between_a = sum(front[i + 1 : j])
            between_b = sum(back[i + 1 : j])
            f += front[i] * front[j] * between_b + back[i] * back[j] * between_a
    xa = sum(back[u] * sum(front[:u]) for u in range(t))
    xb = sum(front[u] * sum(back[:u]) for u in range(t))
    mf = max(sum(front[: i + 1]) - sum(back[:i]) for i in range(t))
    mb = max(sum(back[: i + 1]) - sum(front[:i]) for i in range(t))
    return f, sum(front) + sum(back), sum(front), sum(back), xa, xb, mf, mb


def node_state(path, label_cap):
    """The 16 running values of the node ``path``, from its labels alone.

    The reference for the state a piece carries, in ``dfs``'s order (s, f,
    sa, sb, xa, xb, mf, mb, p0, p1, sym, rot, q1, q2, cp, fp), written from
    the ``_core`` docstring's definitions: ``prefix_state`` gives the sums;
    with c and fc the codes of (a_s, b_s) and (b_s, a_s) in base
    K = label_cap + 1, p0 (p1) is the least j >= 1 whose rotation reads
    c_j.. (fc_j..) = c_0.. through the prefix, or 0; rot is the first
    nonzero fc_{i-1} - c_i, or 0; q1 (q2) is the largest c_{i+1}, i <= t - 2,
    whose f-pivot (c-pivot) at i reads the prefix back, or 0; and sym, cp
    and fp say that the flipped prefix, the reversed prefix and the
    reversed flipped prefix read the prefix itself.
    """
    t = len(path) // 2
    front, back = path[:t], path[t:]
    f, s, sa, sb, xa, xb, mf, mb = prefix_state(front, back)
    K = label_cap + 1
    c = [a * K + b for a, b in zip(front, back)]
    fc = [b * K + a for a, b in zip(front, back)]
    p0 = next((j for j in range(1, t) if c[j:] == c[: t - j]), 0)
    p1 = next((j for j in range(1, t) if fc[j:] == c[: t - j]), 0)
    rot = next((d for d in (fc[i - 1] - c[i] for i in range(1, t)) if d), 0)
    q1 = max((c[i + 1] for i in range(t - 1) if fc[i::-1] == c[: i + 1]), default=0)
    q2 = max((c[i + 1] for i in range(t - 1) if c[i::-1] == c[: i + 1]), default=0)
    return s, f, sa, sb, xa, xb, mf, mb, p0, p1, fc == c, rot, q1, q2, c[::-1] == c, fc[::-1] == c


class TestPieceState:
    # a piece starts from the running values the search handed back with
    # it, and only its per-depth arrays come from its path: each piece's
    # state must be its node's state by definition

    @pytest.mark.parametrize("k,level,sum_cap", WALKED)
    def test_every_walked_node_carries_its_state(self, k, level, sum_cap):
        checked = 0
        for args, _, _ in _walk(k, level, sum_cap):
            path, state = args[8], args[9]
            if path:
                assert state == node_state(path, args[5]), args
                checked += 1
            if len(path) >= 4:
                # the search charges the pairs of later units without
                # min(1, sa, sb) (TestPairTerm): below the first diameter
                # every node has sa >= 1 (the adjacency floor after a_0)
                # and sb >= b_0 >= 1
                assert state[2] >= 1 and state[3] >= 1, path
        assert checked > 100

    @pytest.mark.parametrize("level", PRUNE_LEVELS)
    @pytest.mark.parametrize("k", [7, 9])
    def test_proof_pieces_carry_their_state(self, k, level, monkeypatch):
        # pieces of 50 nodes, handed back at every depth of the proof
        config = SearchConfig(k=k, prune_level=level)
        pieces = []

        def spied(*args):
            pieces.append(args)
            return run_shard(*args)

        monkeypatch.setattr(search, "run_shard", spied)
        _split(config, 50)
        carried = [args for args in pieces if args[8]]
        for args in carried:
            assert args[9] == node_state(args[8], args[5]), args
        assert len(carried) > 20
        assert max(len(args[8]) for args in carried) > 4


def least_completion_gap(front, back, n, k):
    """Least gap over the marcus leaves that extend the prefix, or None."""
    cap = k + 1
    rest = n - len(front)
    least = None
    for tail in product(range(cap + 1), repeat=2 * rest):
        full_front = list(front) + list(tail[:rest])
        full_back = list(back) + list(tail[rest:])
        labels = tuple(full_front + full_back)
        if sum(labels) > 4 * cap:
            continue
        if any(a + b == 0 for a, b in zip(full_front, full_back)):
            continue  # dead diameter
        if any(labels[i - 1] + labels[i] == 0 for i in range(2 * n)):
            continue
        d = GaleDiagram(n, labels)
        if not is_k_neighborly(d, k):
            continue
        gap = count_cofacets(d) - d.vertex_count
        if least is None or gap < least:
            least = gap
    return least


def gap_floor(f, s, sa, sb, xa, xb, dfr, dbr, rest, fut):
    """Floor on the gap (cofacets - vertices) of every leaf below a node.

    The definition the search's floors are checked against (``_core``'s
    module docstring derives it).  ``f`` and ``s`` are the node's cofacets
    and vertices, ``sa`` and ``sb`` its front and back masses, ``xa`` and
    ``xb`` the triangles each later front and back label unit closes at
    least, ``dfr`` and ``dbr`` the front and back mass its semicircle
    deficits force, ``rest`` its unassigned diameters (each needs mass) and
    ``fut`` the most mass they may hold.  Each of F later front units
    closes at least xa triangles and adds one vertex, each of B back units
    at least xb, and each pair of a later front and a later back unit at
    least min(1, sa, sb) cofacets more (``TestPairTerm``), so every leaf
    has gap at least f - s + F (xa - 1) + B (xb - 1) + F B min(1, sa, sb)
    with F >= dfr, B >= dbr and rest <= F + B <= fut.  The floor charges
    the pairs dfr dbr, their least number, and the rest its least value.
    """
    floor = f - s + dfr * (xa - 1) + dbr * (xb - 1) + dfr * dbr * min(1, sa, sb)
    if xa == 0 or xb == 0:
        return floor - (fut - dfr - dbr)  # all free mass where a unit is worth -1
    short = rest - dfr - dbr
    if short > 0:
        floor += short * (xa - 1 if xa < xb else xb - 1)  # on the cheaper side
    return floor


class TestGapFloor:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(4, 7),
        st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=4),
        st.integers(1, 2),
    )
    # prefixes on which each side's -1 and the cheaper side are needed
    @example(7, [(6, 2), (4, 3), (0, 5)], 1)
    @example(5, [(0, 3), (3, 3), (6, 5)], 1)
    @example(5, [(6, 3), (4, 2), (2, 5)], 2)
    def test_never_exceeds_a_completion(self, k, prefix, open_diameters):
        # the cut's floor for a child is gap_floor of the state after it;
        # every leaf that completes the prefix has at least that gap
        p = k + 1
        front = [min(a, p) for a, _ in prefix]
        back = [min(b, p) for _, b in prefix]
        n = len(prefix) + open_diameters
        least = least_completion_gap(front, back, n, k)
        assume(least is not None)
        f, s, sa, sb, xa, xb, mf, mb = prefix_state(front, back)
        floor = gap_floor(
            f,
            s,
            sa,
            sb,
            xa,
            xb,
            max(0, p - sa + mf),
            max(0, p - sb + mb),
            open_diameters,
            min(4 * p - s, 2 * p * open_diameters),
        )
        assert floor <= least


class TestPairTerm:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 4),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=3),
        st.integers(1, 2),
    )
    # sa = 0: back units before front units close no cofacet together, so
    # the pairs are charged only once both masses are >= 1
    @example(2, [(0, 3)], 2)
    def test_every_completion_pays_its_pairs(self, k, prefix, open_diameters):
        # F later front units and B later back units close, besides the
        # triangles xa and xb count, at least F B min(1, sa, sb) cofacets;
        # checked on every completion, whatever its labels
        p = k + 1
        front = tuple(min(a, p) for a, _ in prefix)
        back = tuple(min(b, p) for _, b in prefix)
        f, s, sa, sb, xa, xb, _, _ = prefix_state(front, back)
        n = len(prefix) + open_diameters
        for tail in product(range(p + 1), repeat=2 * open_diameters):
            later_front, later_back = tail[:open_diameters], tail[open_diameters:]
            F, B = sum(later_front), sum(later_back)
            d = GaleDiagram(n, front + later_front + back + later_back)
            floor = f - s + F * (xa - 1) + B * (xb - 1) + F * B * min(1, sa, sb)
            assert count_cofacets(d) - d.vertex_count >= floor, tail


class TestFloorRests:
    @given(
        st.integers(-40, 40),
        st.integers(0, 40),
        st.integers(0, 6),
        st.integers(0, 6),
        st.integers(0, 8),
        st.integers(0, 8),
        st.integers(0, 30),
        st.integers(1, 8),
        st.integers(-10, 60),
        st.integers(0, 2),
    )
    @example(10, 4, 0, 3, 2, 1, 20, 3, 5, 0)  # a unit worth -1: the kept r start above 0
    @example(0, 4, 3, 5, 1, 1, 20, 3, 4, 0)  # the floor rises with r: the kept r end below fut
    def test_matches_gap_floor_at_every_count(
        self, f, s, xa, xb, dfr, dbr, fut, cap, bound, mass
    ):
        # the run narrows a child's open counts to the r at which gap_floor,
        # with the mass cap of r open diameters, is at most the bound; it
        # passes the pair term, which does not depend on r, in the cofacets
        pairs = dfr * dbr * min(1, mass)
        lo, hi = floor_rests(f + pairs, s, xa, xb, dfr, dbr, fut, 2 * cap, bound)
        kept = [
            r
            for r in range(fut + 1)
            if gap_floor(f, s, mass, mass, xa, xb, dfr, dbr, r, min(fut, 2 * cap * r)) <= bound
        ]
        assert kept == list(range(max(lo, 0), min(hi, fut) + 1))
        assert lo > hi or 0 <= lo <= hi <= fut


def child_floor(front, back, a, b, open_diameters, k):
    """gap_floor of the child (a, b) of a prefix, from the child's labels alone."""
    p = k + 1
    f, s, sa, sb, xa, xb, mf, mb = prefix_state(front + [a], back + [b])
    return gap_floor(
        f,
        s,
        sa,
        sb,
        xa,
        xb,
        max(0, p - sa + mf),
        max(0, p - sb + mb),
        open_diameters,
        min(4 * p - s, 2 * p * open_diameters),
    )


class TestFrontFloor:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(4, 7),
        st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=4),
        st.integers(0, 8),
        st.tuples(st.integers(0, 8), st.integers(0, 8)),
        st.integers(0, 2),
        st.integers(0, 3),
    )
    # the front deficit still binds with sa >= 2, so h falls with a for
    # large b, and only the floor at the first paid front label ends the loop
    @example(4, [(5, 0), (0, 3)], 1, (0, 5), 0, 0)
    @example(5, [(6, 0), (0, 4)], 1, (2, 6), 1, 0)
    def test_floors_every_child_it_claims(self, k, prefix, a, b_range, open_diameters, slack):
        # the search skips front label a when h > bound, ends the b loop at a
        # cut at or past b_star, and ends the front label loop where ends
        # is set; each must skip only children whose floor exceeds the bound
        p = k + 1
        front = [min(x, p) for x, _ in prefix]
        back = [min(y, p) for _, y in prefix]
        a = min(a, p)
        lo, hi = sorted(min(b, p) for b in b_range)
        f, s, sa, sb, xa, xb, mf, mb = prefix_state(front, back)
        assume(xb + a * sb >= 1 and xa + sa * lo >= 1)  # every child has the h + T form
        h, b_star, _ = front_floor(f, s, sa, sb, xa, xb, mf, mb, p, a, lo, hi, 0)
        bound = h - 1 - slack  # h exceeds it
        _, _, ends = front_floor(f, s, sa, sb, xa, xb, mf, mb, p, a, lo, hi, bound)
        floors = [child_floor(front, back, a, b, open_diameters, k) for b in range(lo, hi + 1)]
        assert lo <= b_star <= hi
        assert min(floors) >= h
        tail = floors[b_star - lo :]
        assert tail == sorted(tail)  # the floor does not fall past b_star
        if ends:
            for later in range(a + 1, p + 1):
                for b in range(lo, hi + 1):
                    assert child_floor(front, back, later, b, open_diameters, k) > bound, (
                        later,
                        b,
                    )


class TestBoundCut:
    @pytest.mark.parametrize("level", PRUNE_LEVELS)
    @pytest.mark.parametrize("k", [2, 3])
    def test_cut_keeps_every_leaf_within_the_final_bound(self, k, level, request):
        # the cut (the per-front-label floor and both loop breaks included)
        # may drop only leaves whose gap exceeds the bound the shard ends
        # with: the start bound lowered by its best leaf
        config = SearchConfig(k=k, prune_level=level)
        value = delta3_closed_form(k)
        bounds = {value, value + 1, value + 5, _seed_gap(k, _sum_cap(config))}
        if (k, level) == (3, "marcus"):
            unbounded = request.getfixturevalue("marcus_k3_shards")
        else:
            unbounded = [(args, run_shard(*args)) for args in _shard_args(config, None)]
        if level == "marcus":
            # the unbounded space: its leaves are fixed, and stronger cuts
            # may lower its node count but never raise it
            leaves, ceiling = {2: (5051, 12727), 3: (315720, 717753)}[k]
            assert sum(full.evaluated for _, full in unbounded) == leaves
            assert sum(full.nodes for _, full in unbounded) <= ceiling
        for args, full in unbounded:
            every = set(full.leaves)
            gaps = [f - v for _, f, v in full.leaves]
            for bound in bounds:
                cut = run_shard(*args[:6], bound)
                final = min([bound, *gaps])
                kept = set(cut.leaves)
                assert kept <= every
                assert {
                    leaf for leaf, gap in zip(full.leaves, gaps) if gap <= final
                } <= kept, (args, bound)
                assert cut.nodes <= full.nodes

    def test_front_label_steps_cut_only_what_the_child_test_cuts(self, monkeypatch):
        # skipping a front label, ending its b loop and ending the front
        # label loop may drop only children that gap_floor would cut: the
        # shards must match, node for node, a search whose front_floor
        # never fires and so tests every child on its own
        cases = []
        for level in ("marcus", "minimal"):
            for k in (2, 3, 4):
                value = delta3_closed_form(k)
                for bound in (value - 1, value, value + 3):
                    cases += _shard_args(SearchConfig(k=k, prune_level=level), bound)
        cases += [(6, n, 1, "marcus", 28, 7, delta3_closed_form(6) + 3) for n in range(5, 12)]
        # one tree per run of counts: the per-a steps are taken at the least
        # open count, and the b loop ends only where every open count is cut
        for level in PRUNE_LEVELS:
            for k in (2, 3, 4, 5):
                value = delta3_closed_form(k)
                for bound in (value - 1, value, value + 3):
                    cases += _run_args(SearchConfig(k=k, prune_level=level), bound)
        fast = [run_shard(*args) for args in cases]
        # (h, b_star, ends): h below every bound, b_star past hi, never ends
        monkeypatch.setattr(
            _core, "front_floor", lambda *args: (-(10**9), args[11] + 1, False)
        )
        for args, shard in zip(cases, fast):
            assert run_shard(*args) == shard, args


class TestRunShards:
    def test_shard_leaves_no_cyclic_garbage(self):
        # the recursive dfs closure is a reference cycle; run_shard clears it
        # on return, so a shard's arrays go with the call and add nothing for
        # the cyclic collector to find, with or without a path
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            run_shard(2, 4, 0, "marcus", 12, 3, None)
            run_shard(2, 4, 0, "marcus", 12, 3, None, 5, (0, 1), node_state((0, 1), 3))
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("level", PRUNE_LEVELS)
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_run_keeps_what_its_counts_keep(self, k, level):
        # a run searches its counts in one tree with one bound, which a leaf
        # of any count lowers: within the final bound it keeps exactly the
        # leaves the one-count shards keep, and it searches fewer nodes
        config = SearchConfig(k=k, prune_level=level)
        value = delta3_closed_form(k)
        for bound in {_seed_gap(k, _sum_cap(config)), value + 3, value, value - 1}:
            single = {
                (args[1], args[2]): run_shard(*args) for args in _shard_args(config, bound)
            }
            for args in _run_args(config, bound):
                n, first, n_last = args[1], args[2], args[7]
                run = run_shard(*args)
                # a count whose label cap is below a0 has no one-count shard:
                # it adds no leaf and no node
                parts = [single[m, first] for m in range(n, n_last + 1) if (m, first) in single]
                every = [leaf for part in parts for leaf in part.leaves]
                final = min([bound] + [f - v for _, f, v in run.leaves])
                assert final == min([bound] + [f - v for _, f, v in every]), args
                assert {leaf for leaf in run.leaves if leaf[1] - leaf[2] <= final} == {
                    leaf for leaf in every if leaf[1] - leaf[2] <= final
                }, args
                assert set(run.leaves) <= set(every)
                assert run.n == n
                assert run.nodes <= sum(part.nodes for part in parts)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 5),
        st.sampled_from(PRUNE_LEVELS),
        st.integers(0, 3),
        st.integers(0, 12),
        st.integers(2, 5),
        st.integers(0, 4),
        st.integers(0, 6),
        st.integers(-5, 60),
    )
    # label cap 2, where some children's deficits overfill their open
    # diameters at the least count: the b loop's end must still match, node
    # for node, the search that tests every child
    @example(3, "marcus", 2, 2, 4, 1, 0, 27)
    def test_run_cuts_only_what_the_child_test_cuts(
        self, k, level, cap_drop, sum_extra, n, more, first, bound
    ):
        # label caps below k+1 and slack sum caps: the per-a steps, taken at
        # the least open count, and the b loop's end must match, node for
        # node, a search that tests every child at every count; within its
        # final bound the run keeps what its one-count shards keep
        cap = max(2, k + 1 - cap_drop)
        args = (k, n, min(first, cap), level, 2 * (k + 1) + sum_extra, cap, bound, n + more)
        run = run_shard(*args)
        with patch.object(_core, "front_floor", lambda *a: (-(10**9), a[11] + 1, False)):
            assert run_shard(*args) == run
        every = [
            leaf
            for m in range(n, n + more + 1)
            for leaf in run_shard(k, m, *args[2:7]).leaves
        ]
        final = min([bound] + [f - v for _, f, v in every])
        assert {leaf for leaf in run.leaves if leaf[1] - leaf[2] <= final} == {
            leaf for leaf in every if leaf[1] - leaf[2] <= final
        }

    @pytest.mark.parametrize(
        "level,k,sum_cap,counts",
        [
            ("marcus", 2, 7, {None: (30, 1), 7: (15, 1)}),
            ("marcus", 2, 9, {None: (353, 85), 7: (46, 3)}),
            ("marcus", 3, 9, {None: (67, 1), 18: (20, 0)}),
            ("marcus", 3, 12, {None: (6180, 1765), 18: (116, 3)}),
            ("marcus", 4, 11, {None: (128, 1), 33: (26, 0)}),
            ("marcus", 4, 15, {None: (125268, 43148), 33: (206, 0)}),
            ("minimal", 2, 7, {None: (30, 1), 7: (15, 1)}),
            ("minimal", 2, 9, {None: (257, 24), 7: (46, 3)}),
            ("minimal", 3, 9, {None: (65, 1), 18: (20, 0)}),
            ("minimal", 3, 12, {None: (2824, 168), 18: (116, 3)}),
            ("minimal", 4, 11, {None: (120, 1), 33: (26, 0)}),
            ("minimal", 4, 15, {None: (30593, 1294), 33: (206, 0)}),
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_binding_sum_cap_counts(self, level, k, sum_cap, counts):
        # sum caps 2(k+1)+1 and 3(k+1), without a bound and at delta3 + 3:
        # the room, the deficits and the code floors end most branches here,
        # and the nodes and leaves each run searches are pinned exactly
        assert set(counts) == {None, delta3_closed_form(k) + 3}
        config = SearchConfig(k=k, prune_level=level, sum_cap=sum_cap)
        for bound, (nodes, evaluated) in counts.items():
            runs = [run_shard(*args) for args in _run_args(config, bound)]
            assert sum(r.nodes for r in runs) == nodes, bound
            assert sum(r.evaluated for r in runs) == evaluated, bound

    @pytest.mark.parametrize("level", PRUNE_LEVELS)
    def test_unbounded_run_is_its_counts(self, level):
        # without a bound a run evaluates every leaf of every count
        config = SearchConfig(k=2, prune_level=level)
        for args in _run_args(config, None):
            n, first, n_last = args[1], args[2], args[7]
            run = run_shard(*args)
            every = [
                leaf
                for m in range(n, n_last + 1)
                for leaf in run_shard(args[0], m, first, *args[3:7]).leaves
            ]
            assert sorted(run.leaves) == sorted(every)

    @pytest.mark.parametrize("level", PRUNE_LEVELS)
    def test_runs_cover_every_shard(self, level):
        # one run per first label over every count, under a label cap that
        # admits every label its counts' one-count shards admit
        for k in (2, 3, 6):
            config = SearchConfig(k=k, prune_level=level)
            counts = _n_range(config)
            runs = _run_args(config, None)
            covered = {(m, args[2]) for args in runs for m in range(args[1], args[7] + 1)}
            assert {args[1:3] for args in _shard_args(config, None)} <= covered
            for args in runs:
                assert range(args[1], args[7] + 1) == counts
                assert args[5] >= max(_label_cap(config, m) for m in counts)
            assert len(runs) == k + 2

    @pytest.mark.parametrize("k,classes", [(2, 9), (3, 30), (4, 104), (5, 454)])
    def test_extremal_tree_keeps_the_per_count_label_cap(self, k, classes):
        # minimality and the adjacency floors imply extremal's per-count
        # label cap (search module docstring), so one tree per first label
        # under the cap k+1 evaluates no leaf above its count's cap and
        # finds exactly the extremal stream's classes
        config = SearchConfig(k=k, prune_level="extremal")
        leaves = [
            labels for args in _run_args(config, None) for labels, _, _ in run_shard(*args).leaves
        ]
        assert all(max(labels) <= _label_cap(config, len(labels) // 2) for labels in leaves)
        got = {(len(labels) // 2, least_image(labels)) for labels in leaves}
        expected = {(d.n, d.labels) for d in enumerate_diagrams(config)}
        assert got == expected
        assert len(expected) == classes


class _InlinePool:
    """Stands in for ``multiprocessing.Pool``: records its size, runs each task at once."""

    def __init__(self, processes, started):
        started.append(processes)

    def apply_async(self, func, args, callback, error_callback):
        try:
            out = func(*args)
        except Exception as exc:
            error_callback(exc)
        else:
            callback(out)

    def terminate(self):
        pass

    def join(self):
        pass


def _inline_pools(monkeypatch) -> list[int]:
    """Record the ``processes`` of every pool, run on two usable CPUs."""
    started: list[int] = []
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Pool", lambda processes: _InlinePool(processes, started))
    return started


def _split(config, budget):
    """``find_delta3`` with the given piece budget."""
    with patch.object(search, "PIECE_NODES", budget):
        return find_delta3(config)


def _counts(result):
    stats = result.stats
    return result.delta3, result.witnesses, stats.nodes, stats.evaluated, stats.pieces


class TestPieces:
    WHOLE = 1 << 40  # a budget no search spends: one piece per shard

    @pytest.mark.parametrize("level", PRUNE_LEVELS)
    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_budget_of_one_node_is_exact(self, k, level):
        # a split at every child: the bound is fixed from k = 4 on (the seed
        # is optimal), so the pieces search exactly the whole tree, every
        # witness once, and their path nodes are not counted again
        config = SearchConfig(k=k, prune_level=level, emit_all=True)
        whole = _split(config, self.WHOLE)
        split = _split(config, 1)
        assert _counts(split)[:4] == _counts(whole)[:4]
        assert whole.stats.pieces == len(_run_args(config, None))
        assert split.stats.pieces > whole.stats.nodes // 2

    @pytest.mark.parametrize("level", PRUNE_LEVELS)
    def test_budget_of_one_node_is_exact_without_a_bound(self, level):
        # a sum cap below 4(k+1) leaves the search without a bound
        config = SearchConfig(k=4, prune_level=level, sum_cap=12, emit_all=True)
        split = _split(config, 1)
        assert split.stats.pieces > 100
        assert _counts(split)[:4] == _counts(_split(config, self.WHOLE))[:4]

    @pytest.mark.parametrize("level", PRUNE_LEVELS)
    @pytest.mark.parametrize("k", [2, 3])
    def test_budget_of_one_node_keeps_the_witnesses(self, k, level):
        # a piece keeps the bound it was split off with and misses the
        # leaves its siblings find later, so it may search more; the
        # minimum and its witnesses, each once, stay the same
        config = SearchConfig(k=k, prune_level=level, emit_all=True)
        whole = _split(config, self.WHOLE)
        split = _split(config, 1)
        assert (split.delta3, split.witnesses) == (whole.delta3, whole.witnesses)

    def test_budget_of_one_node_is_exact_at_minimality_cuts(self, monkeypatch):
        # with a budget of one node every child starts a piece of its own,
        # and its parent's staircase of older labels reads the worst prefix
        # differences that the piece carried and the path filled in per
        # depth.  So every piece's zero-padded prefix is minimal: no node
        # test would fire at its first node.  The bound is fixed (k >= 4),
        # so a piece opens exactly the pieces it opens at marcus whose
        # padded prefixes are minimal, and keeps the marcus leaves that are
        # minimal.  Many of the dropped pieces have new labels that cannot
        # be decremented: an older label bars them.  The pieces search the
        # whole tree
        k = 12
        config = SearchConfig(k=k, prune_level="minimal", emit_all=True)
        whole = _split(config, self.WHOLE)
        older = 0

        def spied(*args):
            nonlocal older
            shard = run_shard(*args)
            path, opened = args[8], args[11]
            assert _minimal_prefix(path, k), path
            at_marcus = []
            marcus = run_shard(*args[:3], "marcus", *args[4:11], at_marcus)
            assert opened == [
                (*piece[:3], "minimal", *piece[4:])
                for piece in at_marcus
                if _minimal_prefix(piece[8], k)
            ]
            assert shard.leaves == [leaf for leaf in marcus.leaves if is_minimal_cycle(leaf[0], k)]
            older += sum(
                not _minimal_prefix(piece[8], k) and _newest_tight(piece[8], k)
                for piece in at_marcus
            )
            return shard

        monkeypatch.setattr(search, "run_shard", spied)
        split = _split(config, 1)
        assert _counts(split)[:4] == _counts(whole)[:4]
        assert older > 100

    def test_path_and_budget_are_checked(self):
        state = (0,) * 16  # enough running values, so each call fails at its path
        with pytest.raises(ParameterError):
            run_shard(4, 5, 0, "marcus", 20, 5, 30, 9, (1, 1), state)  # path leaves a0
        with pytest.raises(ParameterError):
            run_shard(4, 5, 0, "marcus", 20, 5, 30, 9, (0, 1, 1), state)  # half a diameter
        with pytest.raises(ParameterError):
            run_shard(4, 2, 0, "marcus", 20, 5, 30, 9, (0, 1, 1, 1), state)  # count <= depth
        with pytest.raises(ParameterError):
            run_shard(4, 2, 0, "marcus", 20, 5, 30, 9, (), (), 10)  # no opened list
        # a piece's path and state go together, the state as 16 values
        path = (0, 1)
        state = node_state(path, 5)
        for bad in ((path, ()), ((), state), (path, state[:15]), (path, state + (0,))):
            with pytest.raises(ParameterError, match="16 running values"):
                run_shard(4, 5, 0, "marcus", 20, 5, 30, 9, *bad)
        run_shard(4, 5, 0, "marcus", 20, 5, 30, 9, path, state)  # a valid piece

    def test_pieces_count_the_shard_calls(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return run_shard(*args)

        monkeypatch.setattr(search, "run_shard", counted)
        for k in (2, 10):
            calls.clear()
            result = find_delta3(SearchConfig(k=k, prune_level="marcus"))
            assert result.stats.pieces == len(calls)
        assert len(calls) > k + 2  # k = 10 outgrows one piece and splits
        assert result.to_json()["stats"]["pieces"] == len(calls)
        buffer = io.StringIO()
        write_results_jsonl(result, buffer)
        assert json.loads(buffer.getvalue().splitlines()[-1])["pieces"] == len(calls)

    def test_no_piece_outgrows_its_budget(self, monkeypatch):
        # once a piece has spent its budget it only finishes the leaf loop
        # it is in, so the search splits into even pieces: none of marcus
        # k = 16 holds more than 2,000 of its 13,618 nodes
        k = 16
        runs = []

        def spied(*args):
            shard = run_shard(*args)
            runs.append((args[10], shard.nodes))
            return shard

        monkeypatch.setattr(search, "run_shard", spied)
        find_delta3(SearchConfig(k=k, prune_level="marcus"))
        assert all(nodes <= budget + (k + 2) ** 2 for budget, nodes in runs)
        assert max(nodes for _, nodes in runs) <= search.PIECE_NODES

    def test_small_searches_start_no_pool(self, monkeypatch):
        # the parent runs every piece of a search that ends within
        # POOL_NODES nodes: marcus k <= 17 starts no pool, even at --jobs 64
        pools = _inline_pools(monkeypatch)
        for k in range(2, 18):
            result = find_delta3(SearchConfig(k=k, prune_level="marcus", jobs=64))
            assert result.stats.nodes <= search.POOL_NODES
        assert pools == []

    def test_pool_size_is_capped(self, monkeypatch):
        # with budgets of one node the parent runs one piece, and the pool
        # gets one worker per pending piece, at most jobs and at most one
        # per CPU this process may use: on one CPU none starts
        config = SearchConfig(k=2, prune_level="marcus")
        first, *rest = _run_args(config, _seed_gap(2, _sum_cap(config)))
        opened = []
        run_shard(*first, 1, opened)
        pending = len(opened) + len(rest)
        assert 3 < pending < 64
        monkeypatch.setattr(search, "PIECE_NODES", 1)
        monkeypatch.setattr(search, "POOL_NODES", 1)
        for cpus, jobs, sizes in ((64, 64, [pending]), (3, 64, [3]), (64, 2, [2]), (1, 64, [])):
            pools = _inline_pools(monkeypatch)
            monkeypatch.setattr(search, "_usable_cpus", lambda: cpus)
            find_delta3(dataclasses.replace(config, jobs=jobs))
            assert pools == sizes

    def test_no_pool_of_one_worker(self, monkeypatch):
        # extremal k = 3 leaves one piece pending after 120 nodes: the parent
        # runs it too, rather than start a pool whose one worker it would
        # only wait on
        pools = _inline_pools(monkeypatch)
        monkeypatch.setattr(search, "POOL_NODES", 120)
        config = SearchConfig(k=3, prune_level="extremal", emit_all=True)
        serial = find_delta3(config)
        assert _counts(find_delta3(dataclasses.replace(config, jobs=2))) == _counts(serial)
        assert 1 not in pools

    def test_usable_cpus(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert search._usable_cpus() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        assert search._usable_cpus() == (os.cpu_count() or 1)

    @pytest.mark.parametrize(
        "k,level,sum_cap",
        [(2, level, None) for level in PRUNE_LEVELS]
        + [(2, "marcus", 10), (3, "minimal", None), (3, "marcus", 11), (3, "marcus", 12)],
        ids=[*PRUNE_LEVELS, "marcus-k2-cap10", "minimal-k3", "marcus-k3-cap11", "marcus-k3-cap12"],
    )
    def test_stream_in_pieces_of_one_node(self, k, level, sum_cap, monkeypatch):
        # a piece finishes the leaf loop it is in and hands back the rest of
        # its shard in depth-first order: pieces of one node yield the
        # default stream and search the nodes of the whole shards.  Many
        # pieces start below reversals that read their prefix back, whose
        # floors at the last diameter come from the state the piece carries:
        # it must hold the pivot floors and flags the search had there
        config = SearchConfig(k=k, prune_level=level, sum_cap=sum_cap)
        whole = [run_shard(*args) for args in _shard_args(config, None)]
        pieces = []

        def spied(*args):
            pieces.append(run_shard(*args))
            return pieces[-1]

        default = list(enumerate_diagrams(config))
        monkeypatch.setattr(search, "run_shard", spied)
        monkeypatch.setattr(search, "PIECE_NODES", 1)
        assert list(enumerate_diagrams(config)) == default
        assert len(pieces) > len(whole)
        assert sum(piece.nodes for piece in pieces) == sum(shard.nodes for shard in whole)

    def test_stream_pieces_hold_few_leaves(self, monkeypatch, marcus_k3_shards):
        # the k=3 marcus shard (n, a0) = (8, 0) has 85,104 leaves; its
        # pieces return them in the shard's order, at most 2,000 at a time
        expected = (leaf for _, shard in marcus_k3_shards for leaf in shard.leaves)
        most = nodes = 0

        def spied(*args):
            nonlocal most, nodes
            piece = run_shard(*args)
            assert piece.leaves == list(islice(expected, len(piece.leaves))), args
            most = max(most, len(piece.leaves))
            nodes += piece.nodes
            return piece

        monkeypatch.setattr(search, "run_shard", spied)
        emitted = sum(1 for _ in enumerate_diagrams(SearchConfig(k=3, prune_level="marcus")))
        assert next(expected, None) is None
        assert emitted == sum(shard.evaluated for _, shard in marcus_k3_shards)
        assert nodes == sum(shard.nodes for _, shard in marcus_k3_shards)
        assert most <= 2000

    def test_sweep_shares_one_pool(self, monkeypatch):
        # the first marcus k past POOL_NODES spends that many nodes in the
        # parent and buys the pool; every later k sends it every piece
        pools = _inline_pools(monkeypatch)
        real_apply = _InlinePool.apply_async
        in_pool = False
        runs = []  # (k, ran in a pool task, nodes)

        def apply_async(pool, func, args, callback, error_callback):
            nonlocal in_pool
            in_pool = True
            try:
                real_apply(pool, func, args, callback, error_callback)
            finally:
                in_pool = False

        def spied(*args):
            shard = run_shard(*args)
            runs.append((args[0], in_pool, shard.nodes))
            return shard

        monkeypatch.setattr(_InlinePool, "apply_async", apply_async)
        monkeypatch.setattr(search, "run_shard", spied)
        rows = verify_theorem1(19, prune_level="marcus", jobs=2)
        assert all(row["match"] for row in rows)
        assert pools == [2]
        bought = min(k for k, pooled, _ in runs if pooled)
        assert bought < 19
        assert not any(pooled for k, pooled, _ in runs if k < bought)
        in_parent = sum(nodes for k, pooled, nodes in runs if k == bought and not pooled)
        assert search.POOL_NODES <= in_parent <= search.POOL_NODES + search.PIECE_NODES + (bought + 2) ** 2
        assert all(pooled for k, pooled, _ in runs if k > bought)


def _in_fresh_interpreter(code: str):
    """Run ``code`` in a new interpreter that imports this checkout's package.

    ``-I -S`` keeps out the environment, the user's site and its ``.pth``
    hooks, so every module loaded is loaded by the code.  The code prints
    one JSON value, which is returned.
    """
    src = os.path.dirname(os.path.dirname(search.__file__))
    prelude = f"import json, sys\nsys.path.insert(0, {src!r})\n"
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", prelude + textwrap.dedent(code)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestStartUp:
    """A process imports ``multiprocessing`` only when it starts a pool."""

    def test_searches_in_process_never_import_multiprocessing(self):
        # marcus k = 8 ends within POOL_NODES, so even at jobs=2 it starts
        # no pool, and a stream never starts one
        out = _in_fresh_interpreter("""
            import neighborly_gale, neighborly_gale.cli
            from neighborly_gale.search import SearchConfig, enumerate_diagrams, find_delta3

            find_delta3(SearchConfig(k=8, prune_level="marcus", jobs=2))
            config = SearchConfig(k=2, prune_level="minimal", sum_cap=15)
            emitted = sum(1 for _ in enumerate_diagrams(config))
            print(json.dumps([emitted, "multiprocessing" in sys.modules]))
        """)
        assert out == [30, False]

    @pytest.mark.skipif(search._usable_cpus() < 2, reason="a pool needs two usable CPUs")
    def test_first_pool_imports_multiprocessing(self):
        # with POOL_NODES = 1 the parent buys the pool at once: the search
        # loads the module then, returns the jobs=1 result, and leaves no
        # worker behind
        out = _in_fresh_interpreter("""
            from neighborly_gale import search

            def counts(jobs):
                config = search.SearchConfig(k=6, prune_level="marcus", emit_all=True, jobs=jobs)
                result = search.find_delta3(config)
                stats = result.stats
                counted = (result.delta3, result.witnesses, stats.nodes, stats.evaluated, stats.pieces)
                return [repr(counted), "multiprocessing" in sys.modules]

            serial = counts(1)
            search.POOL_NODES = 1
            parallel = counts(2)
            import multiprocessing
            print(json.dumps([serial, parallel, multiprocessing.active_children()]))
        """)
        serial, parallel, workers = out
        assert serial[1] is False and parallel[1] is True
        assert parallel[0] == serial[0]
        assert workers == []


class TestVerifyTheorem1:
    def test_through_k3(self):
        rows = verify_theorem1(3)
        assert [(r["k"], r["searched"], r["closed_form"], r["match"]) for r in rows] == [
            (2, 4, 4, True),
            (3, 15, 15, True),
        ]

    def test_domain(self):
        with pytest.raises(ParameterError):
            verify_theorem1(1)
        with pytest.raises(ParameterError):
            verify_theorem1(29)
        with pytest.raises(ParameterError):
            verify_theorem1(3.0)
        assert verify_theorem1(8)[-1]["k"] == 8

    def test_through_k12(self):
        rows = verify_theorem1(12)
        assert [r["k"] for r in rows] == list(range(2, 13))
        assert all(r["match"] for r in rows), rows

    def test_k7_extended_search(self):
        # beyond the certified range; the searched value still matches
        result = find_delta3(SearchConfig(k=7, prune_level="extremal", emit_all=True))
        assert result.delta3 == delta3_closed_form(7) == 96
        assert GaleDiagram(2, (8, 8, 8, 8)) in result.witnesses

    def test_k7_marcus(self):
        # the provably complete level: Theorem 1's value and its only witness
        result = find_delta3(SearchConfig(k=7, prune_level="marcus", emit_all=True))
        assert result.delta3 == delta3_closed_form(7) == 96
        assert result.witnesses == (GaleDiagram(2, (8, 8, 8, 8)),)
        assert result.stats.nodes <= 3731

    def test_marcus_through_k10(self):
        # the provably complete level matches the closed form, k = 2..10
        rows = verify_theorem1(10, prune_level="marcus")
        assert [r["k"] for r in rows] == list(range(2, 11))
        assert all(r["match"] for r in rows), rows


class TestResultSerialization:
    def test_jsonl_round_trip(self):
        result = find_delta3(SearchConfig(k=2, prune_level="extremal", emit_all=True))
        buffer = io.StringIO()
        write_results_jsonl(result, buffer)
        lines = [json.loads(line) for line in buffer.getvalue().splitlines()]
        *witness_lines, summary = lines
        assert summary["delta3"] == 4
        assert summary["witness_count"] == len(witness_lines)
        for line in witness_lines:
            diagram = GaleDiagram.from_json(line["diagram"])
            assert line["cofacets"] - line["vertices"] == result.delta3
            assert count_cofacets(diagram) == line["cofacets"]

    def test_result_to_json(self):
        result = find_delta3(SearchConfig(k=2))
        payload = result.to_json()
        assert payload["delta3"] == 4
        assert payload["stats"]["nodes"] == result.stats.nodes

    def test_key_order(self):
        # the schema README documents, key for key and in order
        result = find_delta3(SearchConfig(k=2, emit_all=True))
        payload = result.to_json()
        assert list(payload) == ["k", "prune_level", "delta3", "witnesses", "stats"]
        assert list(payload["stats"]) == ["nodes", "evaluated", "wall_time", "pieces"]
        buffer = io.StringIO()
        write_results_jsonl(result, buffer)
        *witness_lines, summary = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert witness_lines
        for line in witness_lines:
            assert list(line) == ["k", "delta3", "diagram", "cofacets", "vertices"]
        assert list(summary) == [
            "k", "delta3", "prune_level", "witness_count",
            "nodes", "evaluated", "wall_time", "pieces",
        ]


class TestConjectureGuard:
    def test_error_payload(self):
        d = GaleDiagram(2, (3, 3, 3, 3))
        err = CounterexampleError(d, 3, 5)
        assert err.diagram == d
        assert "3 cofacets" in str(err)

    def test_error_pickles_with_its_fields(self):
        d = GaleDiagram(2, (3, 3, 3, 3))
        err = pickle.loads(pickle.dumps(CounterexampleError(d, 3, 5)))
        assert (err.diagram, err.cofacets, err.vertices) == (d, 3, 5)
        assert "3 cofacets" in str(err)

    def test_error_reaches_parent_from_pool_worker(self):
        # an error that cannot be unpickled kills the pool's result handler
        # and leaves the caller waiting forever; the timeout turns that into
        # a failure
        with Pool(processes=2) as pool:
            pending = pool.apply_async(_raise_counterexample)
            with pytest.raises(CounterexampleError) as info:
                pending.get(timeout=30)
        assert info.value.diagram == GaleDiagram(2, (3, 3, 3, 3))
        assert (info.value.cofacets, info.value.vertices) == (3, 5)


    @pytest.mark.skipif(
        get_start_method() != "fork", reason="the patched shard must reach forked workers"
    )
    def test_worker_error_does_not_wait_for_other_shards(self, monkeypatch):
        # one shard raises at once while every other one sleeps: the error
        # must reach the caller before the sleeping shards end.  The
        # parent's first shard, a0 = 0, spends POOL_NODES at once, so every
        # other shard goes to the pool.
        monkeypatch.setattr(search, "run_shard", _spend_then_raise_or_sleep)
        pools = _count_pools(monkeypatch)
        start = time.monotonic()
        with pytest.raises(CounterexampleError):
            find_delta3(SearchConfig(k=2, prune_level="marcus", jobs=2))
        assert time.monotonic() - start < 5
        assert pools == [2]
        assert active_children() == []

    def test_in_process_error_starts_no_pool(self, monkeypatch):
        # the parent runs the first pieces itself: its first shard raises
        # before any pool exists, and none is started
        monkeypatch.setattr(search, "run_shard", _raise_or_sleep)
        pools = _count_pools(monkeypatch)
        start = time.monotonic()
        with pytest.raises(CounterexampleError):
            find_delta3(SearchConfig(k=2, prune_level="marcus", jobs=2))
        assert time.monotonic() - start < 5
        assert pools == []


def _count_pools(monkeypatch) -> list[int]:
    """Record the ``processes`` of every pool, run on two usable CPUs; they stay real."""
    started: list[int] = []
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)

    def counted(processes):
        started.append(processes)
        return Pool(processes=processes)

    monkeypatch.setattr(multiprocessing, "Pool", counted)
    return started


def _record_tasks(monkeypatch) -> list[list[tuple]]:
    """Record the pieces of every task sent to a real pool on two usable CPUs."""
    tasks: list[list[tuple]] = []

    class Recording(multiprocessing.pool.Pool):
        def apply_async(self, func, args=(), *rest, **kwargs):
            tasks.append(args[0])
            return super().apply_async(func, args, *rest, **kwargs)

    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Pool", Recording)
    return tasks


def _raise_counterexample():
    raise CounterexampleError(GaleDiagram(2, (3, 3, 3, 3)), 3, 5)


def _raise_or_sleep(k, n, first_a, *rest):
    if first_a == 0:
        _raise_counterexample()
    time.sleep(10)


def _spend_then_raise_or_sleep(k, n, first_a, *rest):
    # a0 = 0 spends the parent's whole budget, a0 = 1 raises, the rest sleep
    if first_a == 0:
        return _core.ShardResult(n, first_a, [], search.POOL_NODES, 0)
    _raise_or_sleep(k, n, first_a - 1, *rest)
