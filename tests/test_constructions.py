"""Construction arithmetic and the three example diagram families."""
import random

import pytest

from neighborly_gale.bounds import binomial
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
    is_k_neighborly,
    is_minimal,
    validate,
)
from neighborly_gale.errors import ParameterError


class TestVFPair:
    def test_gap(self):
        assert VFPair(4, 6, 9).gap == 3

    def test_validation(self):
        with pytest.raises(ParameterError):
            VFPair(4, 4, 9)
        with pytest.raises(ParameterError):
            VFPair(4, 6, 4)

    @pytest.mark.parametrize(
        "d,vertices,facets",
        [(1.5, 3, 3), (2.0, 4, 4), (2, 4.0, 4), (2, 4, "4"), (True, 2, 2), (3, 4, 4.0)],
    )
    def test_rejects_non_integers(self, d, vertices, facets):
        with pytest.raises(ParameterError):
            VFPair(d=d, vertices=vertices, facets=facets)

    def test_json(self):
        assert VFPair(4, 6, 9).to_json() == {"d": 4, "vertices": 6, "facets": 9}


class TestPyramid:
    def test_basic(self):
        assert pyramid(VFPair(4, 6, 9)) == VFPair(5, 7, 10)

    def test_simplex(self):
        assert pyramid(VFPair(4, 5, 5)) == VFPair(5, 6, 6)

    def test_gap_invariant(self):
        rng = random.Random(7)
        for _ in range(100):
            d = rng.randint(2, 20)
            v = rng.randint(d + 1, d + 30)
            f = rng.randint(d + 1, d + 30)
            p = VFPair(d, v, f)
            assert pyramid(p).gap == p.gap


class TestJoin:
    def test_basic(self):
        p = VFPair(4, 6, 9)
        assert join(p, p) == VFPair(9, 12, 18)

    def test_segments_make_simplex(self):
        segment = VFPair(1, 2, 2)
        assert join(segment, segment) == VFPair(3, 4, 4)

    def test_associative(self):
        rng = random.Random(11)
        for _ in range(100):
            ps = [
                VFPair(d, rng.randint(d + 1, d + 9), rng.randint(d + 1, d + 9))
                for d in (rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 8))
            ]
            assert join(join(ps[0], ps[1]), ps[2]) == join(ps[0], join(ps[1], ps[2]))

    def test_gap_additive(self):
        rng = random.Random(13)
        for _ in range(100):
            d1, d2 = rng.randint(1, 10), rng.randint(1, 10)
            p = VFPair(d1, rng.randint(d1 + 1, d1 + 20), rng.randint(d1 + 1, d1 + 20))
            q = VFPair(d2, rng.randint(d2 + 1, d2 + 20), rng.randint(d2 + 1, d2 + 20))
            assert join(p, q).gap == p.gap + q.gap


class TestRecursiveFamily:
    def test_base(self):
        assert recursive_family(0, 6) == VFPair(4, 6, 9)

    def test_first_join(self):
        assert recursive_family(1, 6) == VFPair(9, 12, 18)

    def test_tightest_member(self):
        member = recursive_family(2, 5)
        assert member == VFPair(19, 20, 20)
        assert member.gap == 0

    def test_matches_iterated_join(self):
        for n in range(5, 11):
            current = recursive_family(0, n)
            for m in range(1, 5):
                current = join(current, current)
                assert current == recursive_family(m, n)

    def test_difference_bound(self):
        # gap < vertices (vertices - d - 1) / (0.4 d), degenerate 0 = 0 at n = 5
        for m in range(0, 5):
            for n in range(5, 11):
                member = recursive_family(m, n)
                rhs = member.vertices * (member.vertices - member.d - 1) / (0.4 * member.d)
                if n == 5:
                    assert member.gap == 0 and rhs == 0
                else:
                    assert member.gap < rhs

    def test_domain(self):
        with pytest.raises(ParameterError):
            recursive_family(-1, 6)
        with pytest.raises(ParameterError):
            recursive_family(0, 4)


class TestExampleBuilders:
    def test_figure_counts(self):
        e1, e2, e3 = build_example1(2), build_example2(2), build_example3(2)
        assert (count_cofacets(e1), e1.vertex_count) == (18, 12)
        assert (count_cofacets(e2), e2.vertex_count) == (12, 8)
        assert (count_cofacets(e3), e3.vertex_count) == (14, 7)

    def test_example3_simplicial(self):
        assert validate(build_example3(2), 2).simplicial

    def test_builders_are_k_neighborly(self):
        for k in range(2, 9):
            assert is_k_neighborly(build_example1(k), k)
            assert is_k_neighborly(build_example2(k), k)
            assert is_k_neighborly(build_example3(k), k)

    def test_square_family_closed_form(self):
        for k in range(2, 9):
            d = build_example1(k)
            assert count_cofacets(d) == 2 * (k + 1) ** 2
            assert d.vertex_count == 4 * (k + 1)

    def test_all_ones_family_closed_form(self):
        for k in range(2, 9):
            d = build_example2(k)
            assert count_cofacets(d) == 2 * binomial(k + 2, 3) + (k + 2)
            assert d.vertex_count == 2 * k + 4

    def test_alternating_family_closed_form(self):
        for k in range(2, 9):
            d = build_example3(k)
            assert count_cofacets(d) == (2 * k + 3) * (k + 2) * (k + 1) // 6
            assert d.vertex_count == 2 * k + 3

    def test_alternating_gap_dominates(self):
        for k in range(2, 9):
            gaps = {
                name: count_cofacets(d) - d.vertex_count
                for name, d in (
                    ("square", build_example1(k)),
                    ("ones", build_example2(k)),
                    ("alternating", build_example3(k)),
                )
            }
            assert gaps["alternating"] == (2 * k + 3) * (k + 4) * (k - 1) // 6
            assert gaps["alternating"] > gaps["square"]
            assert gaps["alternating"] > gaps["ones"]

    def test_minimality(self):
        for k in (2, 3, 4):
            assert is_minimal(build_example1(k), k)
            assert is_minimal(build_example2(k), k)

    def test_rotation_accepted_via_canonical_form(self):
        d = build_example3(2)
        rotated = GaleDiagram(d.n, d.labels[1:] + d.labels[:1])
        assert canonical_form(rotated) == canonical_form(d)

    def test_domain(self):
        for builder in (build_example1, build_example2, build_example3):
            with pytest.raises(ParameterError):
                builder(1)

    @pytest.mark.parametrize("builder", [build_example1, build_example2, build_example3])
    @pytest.mark.parametrize("k", [2.0, 3.5, True, "2", None])
    def test_k_must_be_an_exact_int(self, builder, k):
        with pytest.raises(ParameterError):
            builder(k)
