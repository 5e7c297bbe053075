"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""
import random
import time
from itertools import product

import pytest

from neighborly_gale.bounds import binomial, corollary2_bound, fj_lower_bound, gmatrix_entry, g_vector_kneighborly
from neighborly_gale.constructions import (
    VFPair,
    build_example1,
    build_example2,
    build_example3,
    join,
    pyramid,
    recursive_family,
)
from neighborly_gale.diagram import (
    GaleDiagram,
    canonical_form,
    count_cofacets,
    displace,
    is_k_neighborly,
    semicircle_sums,
)
from neighborly_gale.oracle import oracle_count_cofacets
from neighborly_gale.search import (
    SearchConfig,
    _classes,
    delta3_closed_form,
    enumerate_diagrams,
    find_delta3,
)

PRUNE_LEVELS = ("marcus", "minimal", "extremal")


def report(line: str) -> None:
    print(line, flush=True)


@pytest.fixture(scope="module")
def theorem1_sweep():
    """Criterion 2 search runs, shared with the criterion 8 safety check."""
    t0 = time.monotonic()
    results = {}
    for k in range(2, 7):
        for level in PRUNE_LEVELS:
            results[(k, level)] = find_delta3(
                SearchConfig(k=k, prune_level=level, emit_all=True)
            )
    return results, time.monotonic() - t0


def test_criterion_1_golden_figure_counts():
    diagrams = [build_example1(2), build_example2(2), build_example3(2)]
    count_cofacets(diagrams[0])  # warm-up outside the timed window
    t0 = time.perf_counter()
    counts = [count_cofacets(d) for d in diagrams]
    elapsed = time.perf_counter() - t0
    vertices = [d.vertex_count for d in diagrams]
    assert counts == [18, 12, 14]
    assert vertices == [12, 8, 7]
    assert elapsed < 0.001
    report(
        f"criterion 1 (golden figure counts): PASS "
        f"(counts {counts}, vertices {vertices}, {elapsed * 1e6:.0f} us)"
    )


def test_criterion_2_gap_minimum_reproduction(theorem1_sweep):
    results, elapsed = theorem1_sweep
    expected = {2: 4, 3: 15, 4: 30, 5: 48, 6: 70}
    for k, want in expected.items():
        assert delta3_closed_form(k) == want
        for level in PRUNE_LEVELS:
            result = results[(k, level)]
            assert result.delta3 == want, (k, level, result.delta3)
    for k in (2, 3):
        target = canonical_form(build_example2(k))
        for level in PRUNE_LEVELS:
            assert target in results[(k, level)].witnesses, (k, level)
    for k in (4, 5, 6):
        target = canonical_form(build_example1(k))
        for level in PRUNE_LEVELS:
            assert target in results[(k, level)].witnesses, (k, level)
    assert elapsed <= 300.0
    report(
        f"criterion 2 (gap minimum vs closed form, k=2..6, all prune levels): PASS "
        f"(values {list(expected.values())}, total wall {elapsed:.1f} s)"
    )


def test_criterion_3_oracle_equivalence():
    checked = 0
    for n in (2, 3, 4):
        for labels in product(range(4), repeat=2 * n):
            d = GaleDiagram(n, labels)
            assert count_cofacets(d) == oracle_count_cofacets(d), d
            checked += 1
    exhaustive = checked

    rng = random.Random(60119)
    sampled = 0
    while sampled < 10_000:
        n = rng.randint(2, 8)
        labels = tuple(rng.randint(0, 4) for _ in range(2 * n))
        if sum(labels) > 40:  # the oracle's documented size guard
            continue
        d = GaleDiagram(n, labels, center=rng.randint(0, 2))
        assert count_cofacets(d) == oracle_count_cofacets(d), d
        sampled += 1
    report(
        f"criterion 3 (oracle equivalence): PASS "
        f"({exhaustive} exhaustive + {sampled} random diagrams, zero mismatches)"
    )


def test_criterion_4_marcus_theorem_check():
    for k in (2, 3):
        cap = 4 * (k + 1)
        slack_cap = cap + (3 if k == 2 else 1)
        sums = {}
        at_cap = set()
        for d in enumerate_diagrams(
            SearchConfig(k=k, prune_level="minimal", sum_cap=slack_cap)
        ):
            s = sum(d.labels)
            sums[s] = sums.get(s, 0) + 1
            if s == cap:
                at_cap.add((d.n, d.labels))
        assert max(sums) == cap, f"minimal diagram above the sum bound for k={k}"
        square = canonical_form(GaleDiagram(2, (k + 1,) * 4))
        assert at_cap == {(2, square.labels)}, at_cap
        report(
            f"criterion 4 (sum bound for minimal diagrams, k={k}): PASS "
            f"(scanned sums up to {slack_cap}, max seen {max(sums)}, "
            f"unique class at the bound is the 4-gon)"
        )


def test_criterion_5_displace_property():
    rng = random.Random(424243)
    for k in (2, 3, 4):
        diagrams = 0
        moves = 0
        preserved_checks = 0
        while diagrams < 1000:
            n = rng.randint(3, 7)
            two_n = 2 * n
            labels = [rng.randint(0, k + 1) for _ in range(two_n)]
            d = GaleDiagram(n, tuple(labels))
            if not is_k_neighborly(d, k):
                continue
            sums = semicircle_sums(d)
            admissible = [
                i
                for i in range(two_n)
                if labels[i] > 0
                and labels[(i + n) % two_n] == 0
                and labels[(i + n - 1) % two_n] > 0
            ]
            if not admissible:
                continue
            diagrams += 1
            for i in admissible:
                moved = displace(d, i)
                drop = count_cofacets(d) - count_cofacets(moved)
                assert drop >= k, (d, i, drop)
                gray = sums[(i - 1) % two_n]
                if gray >= k + 2:
                    assert is_k_neighborly(moved, k), (d, i)
                    preserved_checks += 1
                moves += 1
        report(
            f"criterion 5 (displace drops >= k, k={k}): PASS "
            f"({diagrams} diagrams, {moves} moves, "
            f"{preserved_checks} slack cases stayed neighborly)"
        )


def test_criterion_6_gtheorem_consistency():
    rows = 0
    for d in range(2, 13):
        for n in range(d + 2, d + 7):
            for k in range(1, d // 2 + 1):
                g = g_vector_kneighborly(d, n, k)
                for j in range(k):
                    total = sum(g[i] * gmatrix_entry(d, i, j + 1) for i in range(j + 2))
                    assert total == binomial(n, j + 1), (d, n, k, j)
                    rows += 1
    anchor = fj_lower_bound(4, 7, 2, 3)
    assert anchor == 14
    assert corollary2_bound(4, 2) == 14
    assert count_cofacets(build_example3(2)) == 14
    report(
        f"criterion 6 (g-theorem consistency): PASS "
        f"({rows} system rows, anchor chain 14 = 14 = 14)"
    )


def test_criterion_7_construction_arithmetic():
    assert recursive_family(1, 6) == VFPair(9, 12, 18)
    rng = random.Random(5151)
    for _ in range(100):
        d1, d2 = rng.randint(1, 12), rng.randint(1, 12)
        p = VFPair(d1, rng.randint(d1 + 1, d1 + 25), rng.randint(d1 + 1, d1 + 25))
        q = VFPair(d2, rng.randint(d2 + 1, d2 + 25), rng.randint(d2 + 1, d2 + 25))
        assert pyramid(p).gap == p.gap
        assert join(p, q).gap == p.gap + q.gap
    report(
        "criterion 7 (construction arithmetic): PASS "
        "(family(1,6) = (9,12,18), 100 gap-invariance cases)"
    )


def test_criterion_8_conjecture_safety(theorem1_sweep, marcus_k3_shards):
    results, _ = theorem1_sweep
    worst = min(result.delta3 for result in results.values())
    assert worst >= 0
    # spot-streams: every enumerated diagram individually respects the bound
    scanned = 0
    for k in (2, 3):
        for level in PRUNE_LEVELS:
            if (k, level) == (3, "marcus"):
                # the shared unbounded shards, built into classes by the
                # stream's own emission path
                stream = _classes(shard for _, shard in marcus_k3_shards)
            else:
                stream = enumerate_diagrams(SearchConfig(k=k, prune_level=level))
            for d in stream:
                assert count_cofacets(d) - d.vertex_count >= 0, d
                scanned += 1
    report(
        f"criterion 8 (cofacets >= vertices on everything searched): PASS "
        f"(minimum gap observed {worst}, {scanned} streamed diagrams re-checked)"
    )
