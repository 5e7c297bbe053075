"""Geometric counter: orientation predicate and agreement with the fast count."""
import math
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neighborly_gale.diagram import GaleDiagram, count_cofacets
from neighborly_gale.errors import OracleSizeError, ParameterError
from neighborly_gale.oracle import (
    oracle_count_cofacets,
    point_on_circle,
    triangle_contains_origin,
)


class TestGeometry:
    def test_points_on_unit_circle(self):
        for n in range(2, 11):
            for i in range(2 * n):
                pt = point_on_circle(i, n)
                assert abs(pt.x * pt.x + pt.y * pt.y - 1.0) < 1e-12

    def test_clockwise_orientation(self):
        # position 1 sits clockwise (negative y) of position 0
        pt = point_on_circle(1, 4)
        assert pt.y < 0

    @pytest.mark.parametrize("n", [0, -3])
    def test_no_polygon_below_one_diameter(self, n):
        # a 2n-gon needs n >= 1: n = 0 would divide by zero
        with pytest.raises(ParameterError, match="n >= 1"):
            point_on_circle(1, n)
        with pytest.raises(ParameterError, match="n >= 1"):
            triangle_contains_origin(0, 1, 2, n=n)

    def test_containing_triple(self):
        assert triangle_contains_origin(1, 4, 6, n=4)

    def test_antipodal_edge_is_out(self):
        # positions 1, 3, 5 on the 8-gon: the 1-5 gap equals n
        assert not triangle_contains_origin(1, 3, 5, n=4)
        assert not triangle_contains_origin(0, 1, 2, n=2)

    def test_semicircle_triple_is_out(self):
        assert not triangle_contains_origin(0, 1, 2, n=4)
        assert not triangle_contains_origin(0, 2, 3, n=4)

    def test_rotation_stability(self):
        for n in (3, 4, 7):
            for a, b, c in [(0, 3, 2 * n - 2), (1, n, n + 1), (0, n - 1, n + 2)]:
                reference = triangle_contains_origin(a, b, c, n=n)
                for r in range(1, 2 * n):
                    rotated = sorted(((a + r) % (2 * n), (b + r) % (2 * n), (c + r) % (2 * n)))
                    assert triangle_contains_origin(*rotated, n=n) == reference

    def test_matches_gap_rule(self):
        for n in range(2, 9):
            two_n = 2 * n
            for a in range(two_n - 2):
                for b in range(a + 1, two_n - 1):
                    for c in range(b + 1, two_n):
                        gaps_ok = (
                            b - a < n and c - b < n and two_n - (c - a) < n
                        )
                        assert triangle_contains_origin(a, b, c, n=n) == gaps_ok


class TestOracleCount:
    def test_figure_counts(self):
        assert oracle_count_cofacets(GaleDiagram(2, (3, 3, 3, 3))) == 18
        assert oracle_count_cofacets(GaleDiagram(4, (1,) * 8)) == 12
        assert oracle_count_cofacets(GaleDiagram(7, (0, 1) * 7)) == 14

    def test_size_guard_diameters(self):
        with pytest.raises(OracleSizeError):
            oracle_count_cofacets(GaleDiagram(11, (1,) * 22))

    def test_size_guard_mass(self):
        with pytest.raises(OracleSizeError):
            oracle_count_cofacets(GaleDiagram(2, (11, 10, 10, 10)))

    def test_exhaustive_tiny(self):
        for n in (2, 3):
            for labels in product(range(3), repeat=2 * n):
                d = GaleDiagram(n, labels)
                assert count_cofacets(d) == oracle_count_cofacets(d)

    @given(
        st.integers(2, 8).flatmap(
            lambda n: st.builds(
                GaleDiagram,
                n=st.just(n),
                labels=st.tuples(*[st.integers(0, 4)] * (2 * n)),
                center=st.integers(0, 3),
            )
        )
    )
    @settings(max_examples=400)
    def test_agreement_random(self, d):
        if sum(d.labels) > 40:  # stay inside the oracle's size guard
            return
        assert count_cofacets(d) == oracle_count_cofacets(d)

    def test_agreement_seeded_sweep(self):
        rng = random.Random(271828)
        checked = 0
        while checked < 2000:
            n = rng.randint(2, 8)
            labels = tuple(rng.randint(0, 4) for _ in range(2 * n))
            if sum(labels) > 40:
                continue
            d = GaleDiagram(n, labels, center=rng.randint(0, 2))
            assert count_cofacets(d) == oracle_count_cofacets(d)
            checked += 1
