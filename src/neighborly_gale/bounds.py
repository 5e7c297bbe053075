"""Closed-form facet-count bounds and f-vector utilities.

All arithmetic is exact integer arithmetic; formulas that divide must divide
exactly and raise otherwise instead of rounding.  Parameters must be exact
ints (``errors.require_ints``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InexactDivisionError, ParameterError, require_ints


def binomial(a: int, b: int) -> int:
    """C(a, b) with the convention C(a, b) = 0 for b < 0 or b > a."""
    require_ints(a=a, b=b)
    if b < 0 or b > a or a < 0:
        return 0
    return math.comb(a, b)


@dataclass(frozen=True)
class FVector:
    """Face counts (f_-1, f_0, ..., f_{d-1}) of a d-polytope; f_-1 = 1."""

    d: int
    entries: tuple[int, ...]

    def __post_init__(self):
        try:
            entries = tuple(self.entries)
        except TypeError as exc:
            raise ParameterError(
                f"entries must be a sequence of integers, got {self.entries!r}"
            ) from exc
        object.__setattr__(self, "entries", entries)
        require_ints(d=self.d, entries=entries)
        if self.d < 1:
            raise ParameterError(f"dimension must be >= 1, got {self.d}")
        if len(self.entries) != self.d + 1:
            raise ParameterError(
                f"expected {self.d + 1} entries (f_-1 .. f_{self.d - 1}), "
                f"got {len(self.entries)}"
            )
        if self.entries[0] != 1:
            raise ParameterError("f_-1 must equal 1 (the empty face)")
        if any(x < 0 for x in self.entries):
            raise ParameterError("face counts must be nonnegative")

    def face_count(self, j: int) -> int:
        """f_j for j in -1 .. d-1."""
        return self.entries[j + 1]


@dataclass(frozen=True)
class BoundReport:
    name: str
    params: dict
    value: int
    citation: str

    def to_json(self) -> dict:
        return {
            "bound": self.name,
            "params": dict(self.params),
            "value": self.value,
            "citation": self.citation,
        }


def simplicial_lbt(d: int, n: int) -> int:
    """Minimum facet count of a simplicial d-polytope with n vertices."""
    require_ints(d=d, n=n)
    if d < 2:
        raise ParameterError(f"dimension must be >= 2, got {d}")
    if n < d + 1:
        raise ParameterError(f"need at least d+1 = {d + 1} vertices, got {n}")
    return (d - 1) * (n - d) + 2


def neighborly_facets(k: int, n: int) -> int:
    """Facet count of a neighborly 2k-polytope with n vertices: n/(n-k) C(n-k, k)."""
    require_ints(k=k, n=n)
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if n <= 2 * k:
        raise ParameterError(f"need n > 2k = {2 * k} vertices, got {n}")
    numerator = n * binomial(n - k, k)
    if numerator % (n - k):
        raise InexactDivisionError(
            f"n C(n-k, k) = {numerator} is not divisible by n-k = {n - k}"
        )
    return numerator // (n - k)


def gmatrix_entry(d: int, i: int, j: int) -> int:
    """Entry (i, j) of the g-theorem transfer matrix for dimension d."""
    require_ints(d=d, i=i, j=j)
    if d < 1:
        raise ParameterError(f"dimension must be >= 1, got {d}")
    if not 0 <= i <= d // 2:
        raise ParameterError(f"row {i} outside 0..{d // 2}")
    if not 0 <= j <= d:
        raise ParameterError(f"column {j} outside 0..{d}")
    return binomial(d + 1 - i, d + 1 - j) - binomial(i, d + 1 - j)


def g_vector_kneighborly(d: int, n: int, k: int) -> tuple[int, ...]:
    """g_0 .. g_k of a simplicial k-neighborly d-polytope with n vertices.

    g_j = C(n-d-2+j, j); substituting into the g-theorem system reproduces
    f_j = C(n, j+1) for every j < k.
    """
    require_ints(d=d, n=n, k=k)
    if not 1 <= k <= d // 2:
        raise ParameterError(f"need 1 <= k <= d/2, got k={k}, d={d}")
    if n < d + 2:
        raise ParameterError(f"need n >= d+2 = {d + 2}, got {n}")
    return tuple(binomial(n - d - 2 + j, j) for j in range(k + 1))


def fj_lower_bound(d: int, n: int, k: int, j: int) -> int:
    """Face-count floor for simplicial k-neighborly d-polytopes, any j.

    f_j >= sum over i <= k of M(i, j+1) g_i, with M the transfer matrix
    ``gmatrix_entry`` and g the k-neighborly g-vector.
    """
    require_ints(d=d, n=n, k=k, j=j)
    g = g_vector_kneighborly(d, n, k)
    if not 0 <= j <= d - 1:
        raise ParameterError(f"face index {j} outside 0..{d - 1}")
    return sum(gmatrix_entry(d, i, j + 1) * g_i for i, g_i in enumerate(g))


def smallvert_bound(d: int, k: int) -> int:
    """Facet floor d + 1 + k^2 for k-neighborly d-polytopes that are not simplexes."""
    require_ints(d=d, k=k)
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if d < 2 * k:
        raise ParameterError(f"need d >= 2k = {2 * k}, got {d}")
    return d + 1 + k * k


def corollary2_bound(d: int, k: int) -> int:
    """Facet floor for simplicial k-neighborly d-polytopes with d+3 vertices."""
    require_ints(d=d, k=k)
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if d < 2 * k:
        raise ParameterError(f"need d >= 2k = {2 * k}, got {d}")
    numerator = (k + 1) * (k + 2) * (3 * d + 3 - 4 * k)
    if numerator % 6:
        raise InexactDivisionError(f"{numerator} is not divisible by 6")
    return numerator // 6


def d_k(k: int, n: int) -> int:
    """Alternating binomial sum D_k(n) = sum_{i=1..k} (-1)^i C(n, i)."""
    require_ints(k=k, n=n)
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if n < 2 * k:
        raise ParameterError(f"need n >= 2k = {2 * k}, got {n}")
    return sum((-1) ** i * binomial(n, i) for i in range(1, k + 1))


def euler_check(f: FVector) -> bool:
    """Euler relation: alternating face-count sum equals 1 - (-1)^d."""
    total = 0
    for i, x in enumerate(f.entries[1:]):
        total += x if i % 2 == 0 else -x
    return total == 1 - (-1) ** f.d


# CLI-facing registry: name -> (callable, parameter names, citation)
BOUND_REGISTRY = {
    "lbt": (
        simplicial_lbt,
        ("d", "n"),
        "lower bound theorem for simplicial polytopes",
    ),
    "ubt": (
        neighborly_facets,
        ("k", "n"),
        "facet count of neighborly polytopes in dimension 2k",
    ),
    "gtheorem": (
        fj_lower_bound,
        ("d", "n", "k", "j"),
        "g-theorem face-count floor for simplicial k-neighborly polytopes",
    ),
    "smallvert": (
        smallvert_bound,
        ("d", "k"),
        "facet floor d+1+k^2 for non-simplex k-neighborly polytopes",
    ),
    "corollary2": (
        corollary2_bound,
        ("d", "k"),
        "facet floor for simplicial k-neighborly polytopes with d+3 vertices",
    ),
}


def evaluate_bound(name: str, **params) -> BoundReport:
    """Evaluate a registered bound by name with keyword parameters."""
    if name not in BOUND_REGISTRY:
        raise ParameterError(
            f"unknown bound {name!r}; choose from {sorted(BOUND_REGISTRY)}"
        )
    func, wanted, citation = BOUND_REGISTRY[name]
    missing = [w for w in wanted if params.get(w) is None]
    if missing:
        raise ParameterError(f"bound {name!r} needs parameters {missing}")
    args = {w: params[w] for w in wanted}
    return BoundReport(name=name, params=args, value=func(**args), citation=citation)
