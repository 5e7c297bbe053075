"""Vertex/facet bookkeeping for polytope constructions and example diagrams.

Pyramids and joins act on (dimension, vertices, facets) triples only; that is
all the constructions here need, and both preserve the facet-vertex gap
additively.
"""
from __future__ import annotations

from dataclasses import dataclass

from .diagram import GaleDiagram
from .errors import ParameterError, require_ints


@dataclass(frozen=True)
class VFPair:
    """Dimension, vertex count and facet count of a polytope."""

    d: int
    vertices: int
    facets: int

    def __post_init__(self):
        require_ints(d=self.d, vertices=self.vertices, facets=self.facets)
        if self.d < 1:
            raise ParameterError(f"dimension must be >= 1, got {self.d}")
        if self.vertices < self.d + 1:
            raise ParameterError(
                f"a {self.d}-polytope needs at least {self.d + 1} vertices"
            )
        if self.facets < self.d + 1:
            raise ParameterError(
                f"a {self.d}-polytope needs at least {self.d + 1} facets"
            )

    @property
    def gap(self) -> int:
        return self.facets - self.vertices

    def to_json(self) -> dict:
        return {"d": self.d, "vertices": self.vertices, "facets": self.facets}


def pyramid(p: VFPair) -> VFPair:
    """Pyramid over the base: one more dimension, vertex and facet."""
    return VFPair(d=p.d + 1, vertices=p.vertices + 1, facets=p.facets + 1)


def join(p: VFPair, q: VFPair) -> VFPair:
    """Join of two polytopes: dimensions add plus one, vertices and facets add."""
    return VFPair(d=p.d + q.d + 1, vertices=p.vertices + q.vertices, facets=p.facets + q.facets)


def recursive_family(m: int, n: int) -> VFPair:
    """The m-fold self-join of a 2-neighborly 4-polytope with n vertices.

    Closed form: dimension 5*2^m - 1, 2^m n vertices, 2^{m-1} n (n-3) facets
    (n(n-3)/2 at m=0; n(n-3) is always even).
    """
    require_ints(m=m, n=n)
    if m < 0:
        raise ParameterError(f"m must be >= 0, got {m}")
    if n < 5:
        raise ParameterError(f"base needs n >= 5 vertices, got {n}")
    return VFPair(
        d=5 * 2**m - 1,
        vertices=2**m * n,
        facets=(2**m * n * (n - 3)) // 2,
    )


def _check_k(k: int) -> None:
    require_ints(k=k)
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")


def build_example1(k: int) -> GaleDiagram:
    """Two diameters, every label k+1: the gap-minimizing diagram for k >= 4."""
    _check_k(k)
    return GaleDiagram(n=2, labels=(k + 1,) * 4)


def build_example2(k: int) -> GaleDiagram:
    """k+2 diameters with unit labels: the gap-minimizing diagram for k <= 3."""
    _check_k(k)
    return GaleDiagram(n=k + 2, labels=(1,) * (2 * k + 4))


def build_example3(k: int) -> GaleDiagram:
    """2k+3 diameters with alternating 0/1 labels: a simplicial diagram."""
    _check_k(k)
    return GaleDiagram(n=2 * k + 3, labels=(0, 1) * (2 * k + 3))


EXAMPLE_BUILDERS = {
    "example1": build_example1,
    "example2": build_example2,
    "example3": build_example3,
}
