"""Closed-form bounds, the g-theorem machinery, and the Euler relation."""
import pytest

from neighborly_gale.bounds import (
    BOUND_REGISTRY,
    FVector,
    binomial,
    corollary2_bound,
    d_k,
    euler_check,
    evaluate_bound,
    fj_lower_bound,
    g_vector_kneighborly,
    gmatrix_entry,
    neighborly_facets,
    simplicial_lbt,
    smallvert_bound,
)
from neighborly_gale.errors import ParameterError


class TestBinomial:
    def test_out_of_range_is_zero(self):
        assert binomial(3, -1) == 0
        assert binomial(3, 4) == 0
        assert binomial(-2, 1) == 0

    def test_basics(self):
        assert binomial(5, 0) == 1
        assert binomial(5, 2) == 10


class TestSimplicialLbt:
    def test_simplex(self):
        assert simplicial_lbt(4, 5) == 5

    def test_seven_vertices(self):
        assert simplicial_lbt(4, 7) == 11

    def test_octahedron_like(self):
        assert simplicial_lbt(3, 8) == 12

    def test_domain(self):
        with pytest.raises(ParameterError):
            simplicial_lbt(1, 3)
        with pytest.raises(ParameterError):
            simplicial_lbt(4, 4)


class TestNeighborlyFacets:
    def test_values(self):
        assert neighborly_facets(2, 6) == 9
        assert neighborly_facets(2, 7) == 14
        assert neighborly_facets(3, 8) == 16

    def test_domain(self):
        with pytest.raises(ParameterError):
            neighborly_facets(2, 4)
        with pytest.raises(ParameterError):
            neighborly_facets(1, 5)

    def test_division_always_exact(self):
        for k in range(2, 8):
            for n in range(2 * k + 1, 2 * k + 30):
                neighborly_facets(k, n)  # raises InexactDivisionError on failure


class TestGMatrix:
    def test_unit_diagonal(self):
        for d in range(2, 13):
            for i in range(d // 2 + 1):
                assert gmatrix_entry(d, i, i) == 1

    def test_upper_triangular_left_block(self):
        for d in range(2, 13):
            for i in range(d // 2 + 1):
                for j in range(i):
                    assert gmatrix_entry(d, i, j) == 0

    def test_entries(self):
        assert gmatrix_entry(4, 1, 2) == 4
        assert gmatrix_entry(4, 0, 4) == 5

    def test_last_column_linear(self):
        for d in range(2, 13):
            for i in range(d // 2 + 1):
                assert gmatrix_entry(d, i, d) == d + 1 - 2 * i

    def test_nonnegative(self):
        for d in range(1, 13):
            for i in range(d // 2 + 1):
                for j in range(d + 1):
                    assert gmatrix_entry(d, i, j) >= 0

    def test_range_errors(self):
        with pytest.raises(ParameterError):
            gmatrix_entry(4, 3, 0)
        with pytest.raises(ParameterError):
            gmatrix_entry(4, 0, 5)


class TestGVector:
    def test_minimal_vertex_count(self):
        assert g_vector_kneighborly(6, 8, 3) == (1, 1, 1, 1)

    def test_small_case(self):
        assert g_vector_kneighborly(4, 7, 2) == (1, 2, 3)

    def test_larger_case(self):
        assert g_vector_kneighborly(6, 10, 3) == (1, 3, 6, 10)

    def test_system_consistency_scan(self):
        # substituting the g-vector into the transfer system must reproduce
        # the complete-skeleton face counts C(n, j+1) for every j < k
        for d in range(2, 13):
            for n in range(d + 2, d + 7):
                for k in range(1, d // 2 + 1):
                    g = g_vector_kneighborly(d, n, k)
                    for j in range(k):
                        total = sum(
                            g[i] * gmatrix_entry(d, i, j + 1) for i in range(j + 2)
                        )
                        assert total == binomial(n, j + 1)

    def test_domain(self):
        with pytest.raises(ParameterError):
            g_vector_kneighborly(4, 5, 2)
        with pytest.raises(ParameterError):
            g_vector_kneighborly(4, 7, 3)


class TestFjLowerBound:
    def test_matches_example3_count(self):
        assert fj_lower_bound(4, 7, 2, 3) == 14

    def test_matches_neighborly_six_vertices(self):
        assert fj_lower_bound(4, 6, 2, 3) == 9

    def test_facet_coefficient_specialization(self):
        # at j = d-1 the matrix coefficient collapses to d+1-2i
        for d in (4, 6, 8):
            for n in (d + 2, d + 4):
                for k in range(1, d // 2 + 1):
                    expected = sum(
                        (d + 1 - 2 * i) * binomial(n - d - 2 + i, i)
                        for i in range(k + 1)
                    )
                    assert fj_lower_bound(d, n, k, d - 1) == expected

    def test_minimal_vertex_count_specialization(self):
        for d in (4, 6, 8, 10):
            for k in range(1, d // 2 + 1):
                assert fj_lower_bound(d, d + 2, k, d - 1) == (k + 1) * (d + 1 - k)

    def test_dominates_smallvert(self):
        for d in range(4, 13):
            for k in range(2, d // 2 + 1):
                for n in range(d + 2, d + 7):
                    assert fj_lower_bound(d, n, k, d - 1) >= smallvert_bound(d, k)


class TestSmallvert:
    def test_values(self):
        assert smallvert_bound(4, 2) == 9
        assert smallvert_bound(6, 2) == 11
        assert smallvert_bound(6, 3) == 16

    def test_base_case_matches_neighborly(self):
        for k in (2, 3, 4):
            assert smallvert_bound(2 * k, k) == neighborly_facets(k, 2 * k + 2)

    def test_domain(self):
        with pytest.raises(ParameterError):
            smallvert_bound(3, 2)


class TestCorollary2:
    def test_values(self):
        assert corollary2_bound(4, 2) == 14
        assert corollary2_bound(6, 3) == 30

    def test_strictly_beats_gap_bound(self):
        # simplicial diagrams always exceed the generic 2(k^2-1) gap
        for k in range(2, 7):
            for d in range(2 * k, 21):
                assert corollary2_bound(d, k) - (d + 3) > 2 * (k * k - 1)

    def test_agrees_with_gtheorem_row(self):
        for k in range(1, 7):
            for d in range(2 * k, 2 * k + 9):
                assert corollary2_bound(d, k) == fj_lower_bound(d, d + 3, k, d - 1)

    def test_domain(self):
        with pytest.raises(ParameterError):
            corollary2_bound(3, 2)


class TestDk:
    def test_single_term(self):
        assert d_k(1, 5) == -5

    def test_two_terms(self):
        assert d_k(2, 7) == 14

    def test_monotone_in_n(self):
        # the leading binomial carries sign (-1)^k, so strict growth in n
        # holds for even k, the only case the bound chain uses
        for k in (2, 4, 6):
            values = [d_k(k, n) for n in range(2 * k, 2 * k + 51)]
            assert all(x < y for x, y in zip(values, values[1:]))


class TestEuler:
    def test_tetrahedron(self):
        assert euler_check(FVector(3, (1, 4, 6, 4)))

    def test_neighborly_four_polytope(self):
        assert euler_check(FVector(4, (1, 6, 15, 18, 9)))

    def test_perturbation_breaks(self):
        good = (1, 6, 15, 18, 9)
        for i in range(1, 5):
            bad = list(good)
            bad[i] += 1
            assert not euler_check(FVector(4, tuple(bad)))

    def test_fvector_validation(self):
        with pytest.raises(ParameterError):
            FVector(3, (2, 4, 6, 4))
        with pytest.raises(ParameterError):
            FVector(3, (1, 4, 6))

    @pytest.mark.parametrize(
        "d,entries",
        [
            (2, (1, 3.9, 3)),  # would be truncated to (1, 3, 3)
            (2, (1, "4", 4)),
            (2, (1, True, 3)),
            (2.0, (1, 3, 3)),
            (True, (1, 2)),
        ],
    )
    def test_fvector_rejects_non_integers(self, d, entries):
        with pytest.raises(ParameterError):
            FVector(d=d, entries=entries)


class TestExactInts:
    # floats and bools gave wrong values or a bare TypeError
    @pytest.mark.parametrize(
        "func,args",
        [
            (binomial, (2.0, 3)),
            (binomial, (5, True)),
            (simplicial_lbt, (4.0, 7)),
            (simplicial_lbt, (2, 3.5)),
            (neighborly_facets, (2, 7.0)),
            (neighborly_facets, (2.0, 7)),
            (gmatrix_entry, (4, 1.0, 2)),
            (gmatrix_entry, (4, 1, True)),
            (g_vector_kneighborly, (4, 7.5, 2)),
            (g_vector_kneighborly, (4.0, 7, 2)),
            (fj_lower_bound, (4, 7, 2, 1.0)),
            (fj_lower_bound, (4, 7, True, 1)),
            (smallvert_bound, (6, 2.0)),
            (smallvert_bound, (6.0, 2)),
            (corollary2_bound, (4.0, 2)),
            (corollary2_bound, (4, True)),
            (d_k, (True, 4)),
            (d_k, (2, 4.0)),
        ],
    )
    def test_rejects_non_integers(self, func, args):
        with pytest.raises(ParameterError):
            func(*args)

    def test_registry_rejects_non_integers(self):
        with pytest.raises(ParameterError):
            evaluate_bound("lbt", d=4.5, n=7)


class TestRegistry:
    def test_known_names(self):
        assert set(BOUND_REGISTRY) == {"lbt", "ubt", "gtheorem", "smallvert", "corollary2"}

    def test_evaluate(self):
        report = evaluate_bound("corollary2", d=4, k=2)
        assert report.value == 14
        assert report.params == {"d": 4, "k": 2}
        assert report.citation

    def test_missing_parameter(self):
        with pytest.raises(ParameterError):
            evaluate_bound("gtheorem", d=4, n=7, k=2)

    def test_unknown_name(self):
        with pytest.raises(ParameterError):
            evaluate_bound("nope", d=1)
