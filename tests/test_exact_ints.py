"""Every public int parameter is an exact int, checked in one place.

Each row is a valid call and the names of its int parameters.  Putting a
bool or a float in any one of them must raise ``ParameterError`` that names
it; for a tuple parameter the first element is replaced.
"""
import re
from pathlib import Path

import pytest

import neighborly_gale
from neighborly_gale.bounds import (
    FVector,
    binomial,
    corollary2_bound,
    d_k,
    fj_lower_bound,
    g_vector_kneighborly,
    gmatrix_entry,
    neighborly_facets,
    simplicial_lbt,
    smallvert_bound,
)
from neighborly_gale.constructions import (
    VFPair,
    build_example1,
    build_example2,
    build_example3,
    recursive_family,
)
from neighborly_gale.diagram import (
    GaleDiagram,
    displace,
    is_k_neighborly,
    is_minimal,
    is_minimal_cycle,
    validate,
)
from neighborly_gale.errors import ParameterError, require_ints
from neighborly_gale.oracle import point_on_circle, triangle_contains_origin
from neighborly_gale.search import SearchConfig, delta3_closed_form, verify_theorem1

FOURGON = GaleDiagram(2, (3, 3, 3, 3))  # 2-neighborly and minimal
MOVABLE = GaleDiagram(3, (1, 1, 1, 0, 1, 1))  # admits displace at position 0

# (func, valid keyword arguments, int parameters)
SURFACE = [
    (binomial, {"a": 5, "b": 2}, ("a", "b")),
    (simplicial_lbt, {"d": 4, "n": 7}, ("d", "n")),
    (neighborly_facets, {"k": 2, "n": 7}, ("k", "n")),
    (gmatrix_entry, {"d": 4, "i": 1, "j": 2}, ("d", "i", "j")),
    (g_vector_kneighborly, {"d": 4, "n": 7, "k": 2}, ("d", "n", "k")),
    (fj_lower_bound, {"d": 4, "n": 7, "k": 2, "j": 1}, ("d", "n", "k", "j")),
    (smallvert_bound, {"d": 6, "k": 2}, ("d", "k")),
    (corollary2_bound, {"d": 4, "k": 2}, ("d", "k")),
    (d_k, {"k": 2, "n": 4}, ("k", "n")),
    (FVector, {"d": 2, "entries": (1, 3, 3)}, ("d", "entries")),
    (VFPair, {"d": 4, "vertices": 6, "facets": 9}, ("d", "vertices", "facets")),
    (recursive_family, {"m": 1, "n": 5}, ("m", "n")),
    (build_example1, {"k": 2}, ("k",)),
    (build_example2, {"k": 2}, ("k",)),
    (build_example3, {"k": 2}, ("k",)),
    (GaleDiagram, {"n": 2, "labels": (1, 1, 1, 1), "center": 0}, ("n", "labels", "center")),
    (FOURGON.label, {"i": 1}, ("i",)),
    (displace, {"diagram": MOVABLE, "i": 0}, ("i",)),
    (is_k_neighborly, {"diagram": FOURGON, "k": 2}, ("k",)),
    (validate, {"diagram": FOURGON, "k": 2}, ("k",)),
    (is_minimal, {"diagram": FOURGON, "k": 2}, ("k",)),
    (is_minimal_cycle, {"labels": (1,) * 8, "k": 2}, ("k",)),
    (triangle_contains_origin, {"a": 0, "b": 2, "c": 4, "n": 3}, ("a", "b", "c", "n")),
    (point_on_circle, {"i": 1, "n": 3}, ("i", "n")),
    (
        SearchConfig,
        {"k": 3, "jobs": 1, "sum_cap": 20, "n_max": 4},
        ("k", "jobs", "sum_cap", "n_max"),
    ),
    (delta3_closed_form, {"k": 3}, ("k",)),
    (verify_theorem1, {"k_max": 2, "jobs": 1}, ("k_max", "jobs")),
]

CASES = [
    pytest.param(func, kwargs, name, bad, id=f"{func.__name__}-{name}-{type(bad).__name__}")
    for func, kwargs, names in SURFACE
    for name in names
    for bad in (True, 1.0)
]


@pytest.mark.parametrize(
    "func,kwargs", [(f, kw) for f, kw, _ in SURFACE], ids=[f.__name__ for f, _, _ in SURFACE]
)
def test_valid_call_passes(func, kwargs):
    # the rows below change one parameter of a call that is otherwise valid
    func(**kwargs)


@pytest.mark.parametrize("func,kwargs,name,bad", CASES)
def test_bool_or_float_raises(func, kwargs, name, bad):
    value = kwargs[name]
    if isinstance(value, tuple):
        value = (bad, *value[1:])
    else:
        value = bad
    with pytest.raises(ParameterError, match=rf"must be integers: .*\b{name}="):
        func(**{**kwargs, name: value})


@pytest.mark.parametrize("jobs", [None, "2"])
def test_verify_theorem1_checks_jobs_first(jobs):
    # jobs is capped at the usable CPUs before any SearchConfig checks it;
    # a non-int there is a parameter error, not a bare TypeError
    with pytest.raises(ParameterError, match=r"must be integers: jobs="):
        verify_theorem1(2, jobs=jobs)


@pytest.mark.parametrize(
    "func,kwargs", [(GaleDiagram, {"n": 2, "labels": 5}), (FVector, {"d": 2, "entries": 5})]
)
def test_non_sequence_raises(func, kwargs):
    # the sequence is converted before any check; what is not one is still a
    # parameter error, not a bare TypeError
    with pytest.raises(ParameterError, match="must be a sequence of integers"):
        func(**kwargs)


def test_error_names_every_failing_parameter():
    with pytest.raises(ParameterError) as info:
        require_ints(a=1, b=2.0, c=(1, True), d=(3, 4))
    assert str(info.value) == "parameters must be integers: b=2.0, c=(1, True)"


@pytest.mark.parametrize("value", [None, "3", [1, 2], (1, (2,)), 3.0, False])
def test_non_ints_raise(value):
    with pytest.raises(ParameterError):
        require_ints(x=value)


def test_ints_and_int_tuples_pass():
    assert require_ints(a=0, b=-5, c=(), d=(1, 2, 3)) is None


def test_rule_lives_only_in_errors():
    # a tenth copy of the exact-int test would drift from the helper; new
    # entry points call errors.require_ints instead
    source = Path(neighborly_gale.__file__).parent
    copies = [
        f"{path.name}:{lineno}"
        for path in sorted(source.glob("*.py"))
        if path.name != "errors.py"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\bis not int\b", line)
    ]
    assert copies == []
