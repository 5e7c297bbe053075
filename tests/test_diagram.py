"""Core diagram operations: counts, predicates, moves, canonicalization."""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neighborly_gale.diagram import (
    GaleDiagram,
    canonical_form,
    count_cofacets,
    dihedral_orbit,
    displace,
    is_k_neighborly,
    is_minimal,
    is_minimal_cycle,
    least_image,
    list_cofacets,
    reduce,
    semicircle_sums,
    validate,
)
from neighborly_gale.errors import (
    DegenerateDiagramError,
    InvalidMoveError,
    ParameterError,
)
from neighborly_gale.oracle import oracle_count_cofacets

EX1 = GaleDiagram(2, (3, 3, 3, 3))
EX2 = GaleDiagram(4, (1,) * 8)
EX3 = GaleDiagram(7, (0, 1) * 7)


def diagrams(max_n=8, max_label=4, max_center=2):
    return st.integers(2, max_n).flatmap(
        lambda n: st.builds(
            GaleDiagram,
            n=st.just(n),
            labels=st.tuples(*[st.integers(0, max_label)] * (2 * n)),
            center=st.integers(0, max_center),
        )
    )


class TestConstruction:
    def test_rejects_single_diameter(self):
        with pytest.raises(ParameterError):
            GaleDiagram(1, (1, 1))

    def test_rejects_wrong_length(self):
        with pytest.raises(ParameterError):
            GaleDiagram(3, (1, 1, 1, 1))

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            GaleDiagram(2, (1, -1, 1, 1))
        with pytest.raises(ParameterError):
            GaleDiagram(2, (1, 1, 1, 1), center=-1)

    @pytest.mark.parametrize(
        "n,labels,center",
        [
            (2, (2.9, 1, 1, 1), 0),
            (2.0, (1, 1, 1, 1), 0),
            (2, (1, 1, 1, 1), 0.5),
            (2, (True, 1, 1, 1), 0),
            (2, (1, 1, 1, 1), False),
        ],
    )
    def test_rejects_non_integers(self, n, labels, center):
        # a float would be truncated and a bool is an int subclass
        with pytest.raises(ParameterError):
            GaleDiagram(n, labels, center=center)

    @pytest.mark.parametrize(
        "n,labels,center",
        [
            (2, (1, 1, 1.0, 1), 0),
            (2, (1, 1, 1, False), 0),
            (2, (0, 0, 3, -2), 0),
            (2, (1, 1, 1, 1), -1),
            (3, (1, 1, 1, 1), 0),
            (2, (1, 1, 1, 1, 1), 0),
            (1, (1, 1), 0),
            (0, (), 0),
        ],
    )
    def test_both_public_paths_reject(self, n, labels, center):
        # the constructor and from_json check every field; only the search's
        # own diagrams skip the checks
        with pytest.raises(ParameterError):
            GaleDiagram(n, labels, center=center)
        with pytest.raises(ParameterError):
            GaleDiagram.from_json({"n": n, "labels": list(labels), "center": center})

    def test_unchecked_constructor_is_not_exported(self):
        import neighborly_gale

        assert not hasattr(neighborly_gale, "_unchecked")
        with pytest.raises(ImportError):
            from neighborly_gale import _unchecked  # noqa: F401

    def test_label_wraparound(self):
        d = GaleDiagram(2, (5, 6, 7, 8))
        assert d.label(4) == 5
        assert d.label(-1) == 8
        assert d.label(7) == 8

    def test_vertex_count_includes_center(self):
        assert GaleDiagram(2, (1, 1, 1, 1), center=3).vertex_count == 7

    def test_json_round_trip(self):
        d = GaleDiagram(3, (0, 1, 2, 3, 4, 5), center=2)
        assert GaleDiagram.from_json(d.to_json()) == d

    def test_json_rejects_bad_length(self):
        with pytest.raises(ParameterError):
            GaleDiagram.from_json({"n": 3, "center": 0, "labels": [1, 1, 1, 1]})

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": 2.7, "labels": [2.9, 1, 1, 1]},
            {"n": 2, "labels": [2.0, 1, 1, 1]},
            {"n": 2, "center": 1.5, "labels": [1, 1, 1, 1]},
            {"n": 2, "labels": [True, 1, 1, 1]},
            {"n": "2", "labels": [1, 1, 1, 1]},
        ],
    )
    def test_json_rejects_non_integers(self, obj):
        with pytest.raises(ParameterError):
            GaleDiagram.from_json(obj)


class TestSemicircleSums:
    def test_width_one_windows(self):
        assert semicircle_sums(EX1) == [3, 3, 3, 3]

    def test_all_ones(self):
        assert semicircle_sums(EX2) == [3] * 8

    def test_alternating(self):
        assert semicircle_sums(EX3) == [3] * 14

    def test_matches_direct_formula(self):
        d = GaleDiagram(4, (2, 0, 1, 5, 3, 0, 0, 7))
        two_n = 8
        expected = [
            sum(d.labels[(i + j) % two_n] for j in range(1, 4)) for i in range(two_n)
        ]
        assert semicircle_sums(d) == expected

    @given(
        st.integers(2, 10).flatmap(
            lambda n: st.lists(st.integers(0, 9), min_size=2 * n, max_size=2 * n)
        )
    )
    def test_matches_direct_formula_on_random_cycles(self, labels):
        n = len(labels) // 2
        d = GaleDiagram(n, tuple(labels))
        expected = [
            sum(labels[(i + j) % (2 * n)] for j in range(1, n)) for i in range(2 * n)
        ]
        assert semicircle_sums(d) == expected


class TestNeighborliness:
    def test_square_with_full_labels(self):
        assert is_k_neighborly(EX1, 2)
        assert not is_k_neighborly(EX1, 3)

    def test_all_ones(self):
        assert is_k_neighborly(EX2, 2)

    def test_k_must_be_positive(self):
        with pytest.raises(ParameterError):
            is_k_neighborly(EX1, 0)

    @given(diagrams(max_n=6, max_label=3))
    def test_increment_never_destroys(self, d):
        base = min(semicircle_sums(d))
        for i in range(2 * d.n):
            bumped = list(d.labels)
            bumped[i] += 1
            assert min(semicircle_sums(GaleDiagram(d.n, tuple(bumped)))) >= base


class TestValidate:
    def test_example3_is_simplicial(self):
        report = validate(EX3, 2)
        assert report.simplicial
        assert report.neighborly
        assert report.all_structural
        assert report.dimension == 4

    def test_complete_diameters_not_simplicial(self):
        report = validate(EX1, 2)
        assert not report.simplicial
        assert report.first_violations["S"] == 0

    def test_positive_center_not_simplicial(self):
        report = validate(GaleDiagram(7, (0, 1) * 7, center=1), 2)
        assert not report.simplicial

    def test_p3_failure_position(self):
        report = validate(GaleDiagram(3, (1, 0, 0, 1, 1, 1)), 2)
        assert not report.p3
        assert report.first_violations["P3"] == 1

    def test_p2_failure(self):
        report = validate(GaleDiagram(3, (0, 1, 1, 0, 1, 1)), 1)
        assert not report.p2
        assert report.first_violations["P2"] == 0

    def test_p1_fails_below_dimension_one(self):
        report = validate(GaleDiagram(2, (1, 0, 1, 0)), 1)
        assert not report.p1

    @given(diagrams(max_n=6, max_label=3), st.integers(1, 4))
    def test_neighborly_implies_p4(self, d, k):
        report = validate(d, k)
        if report.neighborly:
            assert report.p4


class TestCountCofacets:
    def test_figure_counts(self):
        assert count_cofacets(EX1) == 18
        assert count_cofacets(EX2) == 12
        assert count_cofacets(EX3) == 14

    def test_vertex_counts(self):
        assert EX1.vertex_count == 12
        assert EX2.vertex_count == 8
        assert EX3.vertex_count == 7

    def test_center_adds_singletons(self):
        base = count_cofacets(EX2)
        assert count_cofacets(GaleDiagram(4, (1,) * 8, center=5)) == base + 5

    @given(diagrams(max_n=6, max_label=3, max_center=3))
    def test_center_shift_invariant(self, d):
        stripped = GaleDiagram(d.n, d.labels, center=0)
        assert count_cofacets(d) - count_cofacets(stripped) == d.center
        # the facet-vertex gap does not depend on the center label
        assert count_cofacets(d) - d.vertex_count == (
            count_cofacets(stripped) - stripped.vertex_count
        )

    @given(diagrams(max_n=7, max_label=4))
    def test_rotation_reflection_invariant(self, d):
        reference = count_cofacets(d)
        two_n = 2 * d.n
        rotated = d.labels[3 % two_n :] + d.labels[: 3 % two_n]
        assert count_cofacets(GaleDiagram(d.n, rotated, center=d.center)) == reference
        assert count_cofacets(GaleDiagram(d.n, d.labels[::-1], center=d.center)) == reference


class TestListCofacets:
    def test_square_pairs(self):
        cofacets = list_cofacets(EX1)
        assert sorted((c.kind, c.positions, c.multiplicity) for c in cofacets) == [
            ("pair", (0,), 9),
            ("pair", (1,), 9),
        ]

    def test_all_ones_split(self):
        cofacets = list_cofacets(EX2)
        kinds = [c.kind for c in cofacets]
        assert kinds.count("pair") == 4
        assert kinds.count("triangle") == 8
        assert all(c.multiplicity == 1 for c in cofacets)

    def test_empty_for_incomplete_diameter(self):
        assert list_cofacets(GaleDiagram(2, (2, 0, 0, 0))) == []

    def test_center_cofacet_listed(self):
        cofacets = list_cofacets(GaleDiagram(2, (2, 0, 0, 0), center=4))
        assert cofacets == [c for c in cofacets if c.kind == "center"]
        assert cofacets[0].multiplicity == 4

    @given(diagrams(max_n=10, max_label=3, max_center=2))
    def test_multiplicities_sum_to_count(self, d):
        cofacets = list_cofacets(d)
        assert sum(c.multiplicity for c in cofacets) == count_cofacets(d)
        assert len({(c.kind, c.positions) for c in cofacets}) == len(cofacets)

    @given(diagrams(max_n=6, max_label=3))
    def test_triangle_gap_condition(self, d):
        n = d.n
        for c in list_cofacets(d):
            if c.kind == "triangle":
                a, b, cc = c.positions
                gaps = (b - a, cc - b, 2 * n - (cc - a))
                assert all(0 < g < n for g in gaps)


class TestReduce:
    def test_delete_step(self):
        reduced = reduce(GaleDiagram(3, (1, 2, 0, 1, 2, 0)))
        assert (reduced.n, reduced.labels) == (2, (1, 2, 1, 2))

    def test_glue_step(self):
        before = GaleDiagram(3, (2, 0, 0, 2, 1, 1))
        reduced = reduce(before)
        assert (reduced.n, reduced.labels) == (2, (2, 0, 2, 2))
        assert count_cofacets(reduced) == count_cofacets(before)

    def test_fixed_point(self):
        assert reduce(EX2) == EX2

    def test_degenerate(self):
        with pytest.raises(DegenerateDiagramError):
            reduce(GaleDiagram(2, (0, 1, 0, 1)))

    @given(diagrams(max_n=7, max_label=3, max_center=2))
    @settings(max_examples=300)
    def test_preserves_counts_and_neighborliness(self, d):
        try:
            reduced = reduce(d)
        except DegenerateDiagramError:
            return
        assert count_cofacets(reduced) == count_cofacets(d)
        assert oracle_count_cofacets(reduced) == oracle_count_cofacets(d)
        for k in (1, 2, 3, 4):
            assert is_k_neighborly(reduced, k) == is_k_neighborly(d, k)
        report = validate(reduced, 2)
        assert report.p2 and report.p3


class TestDisplace:
    def test_worked_move(self):
        d = GaleDiagram(4, (2, 2, 2, 0, 2, 2, 2, 2))
        moved = displace(d, 7)
        assert moved.labels == (2, 2, 2, 0, 2, 2, 3, 1)
        assert count_cofacets(d) == 52
        assert count_cofacets(moved) == 46
        assert count_cofacets(d) - count_cofacets(moved) >= 2

    def test_guard_nonzero_antipode(self):
        with pytest.raises(InvalidMoveError):
            displace(EX1, 0)

    def test_guard_zero_source(self):
        with pytest.raises(InvalidMoveError):
            displace(GaleDiagram(4, (0, 2, 2, 0, 2, 2, 2, 2)), 0)

    def test_guard_zero_neighbour(self):
        with pytest.raises(InvalidMoveError):
            displace(GaleDiagram(4, (2, 2, 0, 0, 2, 2, 2, 2)), 7)

    def test_neighborliness_preserved_with_slack(self):
        # semicircle i..i+n-2 sums to k+2, the tight case of the move lemma
        d = GaleDiagram(4, (1, 2, 2, 0, 2, 1, 1, 1))
        k = 2
        i = 7
        assert is_k_neighborly(d, k)
        gray = sum(d.label(j) for j in range(i, i + d.n - 1))
        assert gray >= k + 2
        assert is_k_neighborly(displace(d, i), k)


class TestMinimality:
    def test_square(self):
        assert is_minimal(EX1, 2)

    def test_bumped_square(self):
        assert not is_minimal(GaleDiagram(2, (4, 3, 3, 3)), 2)

    def test_all_ones(self):
        assert is_minimal(EX2, 2)

    def test_requires_neighborly(self):
        with pytest.raises(ParameterError):
            is_minimal(GaleDiagram(2, (1, 1, 1, 1)), 2)

    @given(diagrams(max_n=6, max_label=4, max_center=0))
    def test_matches_definition(self, d):
        k = 2
        if not is_k_neighborly(d, k):
            return
        by_definition = True
        for i in range(2 * d.n):
            if d.labels[i] == 0:
                continue
            dec = list(d.labels)
            dec[i] -= 1
            if is_k_neighborly(GaleDiagram(d.n, tuple(dec)), k):
                by_definition = False
                break
        assert is_minimal(d, k) == by_definition

    @given(
        st.integers(2, 8).flatmap(
            lambda n: st.tuples(*[st.integers(0, 4)] * (2 * n))
        ),
        st.integers(1, 5),
    )
    def test_cycle_rule_on_any_cycle(self, labels, k):
        # the rule the search also applies to partial, not yet neighborly
        # cycles: every positive label lies in a semicircle of mass <= k+1
        two_n = len(labels)
        n = two_n // 2
        sums = semicircle_sums(GaleDiagram(n, labels))
        expected = all(
            labels[i] == 0 or any(sums[(i - t) % two_n] <= k + 1 for t in range(1, n))
            for i in range(two_n)
        )
        assert is_minimal_cycle(labels, k) == expected


class TestCanonicalForm:
    def test_symmetric_fixed_point(self):
        assert canonical_form(EX1).labels == (3, 3, 3, 3)

    def test_rotation_orbit(self):
        a = canonical_form(GaleDiagram(3, (0, 1, 2, 0, 1, 2)))
        b = canonical_form(GaleDiagram(3, (1, 2, 0, 1, 2, 0)))
        assert a.labels == b.labels

    def test_reflection_orbit(self):
        a = canonical_form(GaleDiagram(3, (1, 2, 3, 1, 2, 3)))
        b = canonical_form(GaleDiagram(3, (3, 2, 1, 3, 2, 1)))
        assert a.labels == b.labels

    def test_keeps_the_center(self):
        canon = canonical_form(GaleDiagram(3, (1, 2, 0, 1, 2, 0), center=2))
        public = GaleDiagram(3, (0, 1, 2, 0, 1, 2), center=2)
        assert canon == public and hash(canon) == hash(public)
        assert canon.center == 2 and type(canon.labels) is tuple

    @given(diagrams(max_n=6, max_label=3))
    def test_orbit_invariance_and_idempotence(self, d):
        canon = canonical_form(d)
        assert canonical_form(canon) == canon
        for image in dihedral_orbit(d.labels):
            assert canonical_form(GaleDiagram(d.n, image, center=d.center)) == canon

    @given(diagrams(max_n=6, max_label=3))
    def test_canonical_preserves_counts(self, d):
        assert count_cofacets(canonical_form(d)) == count_cofacets(d)


def _periodic_cycles():
    # a word of length p repeated to length 2n, n = 2..10: many tied rotations
    def repeat(n, p):
        word = st.lists(st.integers(0, 2), min_size=p, max_size=p)
        return word.map(lambda w: tuple(w * (2 * n // p)))

    return st.integers(2, 10).flatmap(
        lambda n: st.sampled_from([p for p in range(1, 2 * n) if 2 * n % p == 0]).flatmap(
            lambda p: repeat(n, p)
        )
    )


def _palindromic_cycles():
    # labels[i] == labels[-i]: the cycle is its own reflection through position 0
    return st.integers(2, 10).flatmap(
        lambda n: st.lists(st.integers(0, 2), min_size=n + 1, max_size=n + 1).map(
            lambda half: tuple(half + half[-2:0:-1])
        )
    )


def _tied_minima_cycles():
    # most labels at the least value, and some cycles all at it, so that
    # many rotations start at a least label
    return st.one_of(
        st.tuples(st.integers(2, 12), st.integers(0, 4)).flatmap(
            lambda nv: st.tuples(*[st.sampled_from((nv[1],) * 4 + (nv[1] + 1, nv[1] + 3))] * (2 * nv[0]))
        ),
        st.builds(lambda n, v: (v,) * (2 * n), st.integers(2, 12), st.integers(0, 4)),
    )


class TestLeastImage:
    @given(
        st.one_of(
            st.integers(2, 10).flatmap(
                lambda n: st.tuples(*[st.integers(0, 2)] * (2 * n))
            ),
            _periodic_cycles(),
            _palindromic_cycles(),
            _tied_minima_cycles(),
        )
    )
    @example((0, 0, 0, 0))
    @example((3,) * 24)
    @example((1, 0, 1, 0, 1, 0))
    @example((0, 1, 2, 1, 2, 1))
    @example((2, 1, 0, 0, 1, 2))
    def test_is_least_of_the_orbit(self, labels):
        assert least_image(labels) == min(dihedral_orbit(labels))
