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

# Strict-sign threshold for the orientation determinant.  On the regular
# 2n-gon the least nonzero orientation magnitude is sin(pi/n), far above
# 1e-9 for any n, so the threshold does not limit n.  The guards below are
# the oracle's documented domain: the label sum bounds the work of one call.
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
    return _contains_origin(_point_on_circle(a, n), _point_on_circle(b, n), _point_on_circle(c, n))


def _contains_origin(pa: PlanarPoint, pb: PlanarPoint, pc: PlanarPoint) -> bool:
    """The strict orientation test of ``triangle_contains_origin`` on its points."""
    d1 = _cross(pa, pb)
    d2 = _cross(pb, pc)
    d3 = _cross(pc, pa)
    if d1 > ORIENT_EPS and d2 > ORIENT_EPS and d3 > ORIENT_EPS:
        return True
    if d1 < -ORIENT_EPS and d2 < -ORIENT_EPS and d3 < -ORIENT_EPS:
        return True
    return False


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
    points = [_point_on_circle(i, n) for i in range(2 * n)]
    positives = [i for i in range(2 * n) if labels[i] > 0]
    for a, b, c in combinations(positives, 3):
        if _contains_origin(points[a], points[b], points[c]):
            total += labels[a] * labels[b] * labels[c]
    return total
