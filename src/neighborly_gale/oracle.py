"""Geometric brute-force cofacet counter used to cross-check the fast one.

Places the labeled positions on the unit circle and decides triangle
containment of the origin with strict orientation tests, with no reference to
the combinatorial gap rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .diagram import GaleDiagram
from .errors import OracleSizeError, ParameterError, require_ints

# Strict-sign threshold for the orientation determinant.  On a regular 2n-gon
# with n <= 10 every nonzero orientation magnitude is at least sin(pi/10),
# which is why the guard below caps n at 10.
ORIENT_EPS = 1e-9

MAX_DIAMETERS = 10
MAX_TOTAL_LABEL = 40


@dataclass(frozen=True)
class PlanarPoint:
    x: float
    y: float


def point_on_circle(i: int, n: int) -> PlanarPoint:
    """Unit-circle position of vertex i of the 2n-gon, going clockwise."""
    require_ints(i=i, n=n)
    _require_polygon(n)
    return _point_on_circle(i, n)


def _require_polygon(n: int) -> None:
    if n < 1:
        raise ParameterError(f"a 2n-gon needs n >= 1, got n={n}")


def _point_on_circle(i: int, n: int) -> PlanarPoint:
    """``point_on_circle`` for arguments already checked."""
    angle = math.pi * i / n
    return PlanarPoint(math.cos(angle), -math.sin(angle))


def _cross(p: PlanarPoint, q: PlanarPoint) -> float:
    return p.x * q.y - p.y * q.x


def triangle_contains_origin(a: int, b: int, c: int, n: int) -> bool:
    """True iff the triangle on positions a, b, c strictly contains the origin.

    Antipodal pairs among the triple put the origin on an edge; the strict
    sign test classifies those as not contained.
    """
    require_ints(a=a, b=b, c=c, n=n)
    _require_polygon(n)
    pa = _point_on_circle(a, n)
    pb = _point_on_circle(b, n)
    pc = _point_on_circle(c, n)
    d1 = _cross(pa, pb)
    d2 = _cross(pb, pc)
    d3 = _cross(pc, pa)
    if d1 > ORIENT_EPS and d2 > ORIENT_EPS and d3 > ORIENT_EPS:
        return True
    if d1 < -ORIENT_EPS and d2 < -ORIENT_EPS and d3 < -ORIENT_EPS:
        return True
    return False


_triangle_table: dict[int, frozenset[tuple[int, int, int]]] = {}


def _valid_triangles(n: int) -> frozenset[tuple[int, int, int]]:
    """All ascending position triples containing the origin, cached per n."""
    table = _triangle_table.get(n)
    if table is None:
        table = frozenset(
            t
            for t in combinations(range(2 * n), 3)
            if triangle_contains_origin(*t, n=n)
        )
        _triangle_table[n] = table
    return table


def oracle_count_cofacets(diagram: GaleDiagram) -> int:
    """Count cofacets geometrically; guarded to n <= 10 and label sum <= 40."""
    n = diagram.n
    labels = diagram.labels
    if n > MAX_DIAMETERS:
        raise OracleSizeError(f"oracle guard: n={n} exceeds {MAX_DIAMETERS}")
    if sum(labels) > MAX_TOTAL_LABEL:
        raise OracleSizeError(
            f"oracle guard: label sum {sum(labels)} exceeds {MAX_TOTAL_LABEL}"
        )
    total = diagram.center
    for i in range(n):
        total += labels[i] * labels[i + n]
    positives = [i for i in range(2 * n) if labels[i] > 0]
    valid = _valid_triangles(n)
    for t in combinations(positives, 3):
        if t in valid:
            total += labels[t[0]] * labels[t[1]] * labels[t[2]]
    return total
