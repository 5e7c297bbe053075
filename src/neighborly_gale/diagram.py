"""Reduced Gale diagrams on a labeled 2n-gon.

A diagram assigns nonnegative integer multiplicities to the 2n vertices of a
regular 2n-gon (positions 0..2n-1 clockwise, all index arithmetic mod 2n) and
to the center.  Cofacets are the center points, the complete antipodal pairs,
and the position triples whose triangle strictly contains the center; their
total count equals the facet count of the encoded polytope.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .errors import DegenerateDiagramError, InvalidMoveError, ParameterError, require_ints


@dataclass(frozen=True)
class GaleDiagram:
    """Label multiset on a 2n-gon plus a center label.

    The encoded polytope has ``center + sum(labels)`` vertices and dimension
    ``vertex_count - 3``.
    """

    n: int
    labels: tuple[int, ...]
    center: int = 0

    def __post_init__(self):
        try:
            labels = tuple(self.labels)
        except TypeError as exc:
            raise ParameterError(
                f"labels must be a sequence of integers, got {self.labels!r}"
            ) from exc
        object.__setattr__(self, "labels", labels)
        require_ints(n=self.n, labels=labels, center=self.center)
        if self.n < 2:
            raise ParameterError(f"need at least 2 diameters, got n={self.n}")
        if len(self.labels) != 2 * self.n:
            raise ParameterError(
                f"expected {2 * self.n} labels for n={self.n}, got {len(self.labels)}"
            )
        if min(labels) < 0:
            raise ParameterError("labels must be nonnegative")
        if self.center < 0:
            raise ParameterError("center label must be nonnegative")

    @property
    def vertex_count(self) -> int:
        return self.center + sum(self.labels)

    @property
    def dimension(self) -> int:
        return self.vertex_count - 3

    def label(self, i: int) -> int:
        """Label at position i, with wraparound: label(i) == label(i mod 2n)."""
        require_ints(i=i)
        return self.labels[i % (2 * self.n)]

    def to_json(self) -> dict:
        return {"n": self.n, "center": self.center, "labels": list(self.labels)}

    @classmethod
    def from_json(cls, obj: dict) -> "GaleDiagram":
        try:
            n = obj["n"]
            center = obj.get("center", 0)
            labels = tuple(obj["labels"])
        except (KeyError, TypeError) as exc:
            raise ParameterError(f"malformed diagram object: {exc}") from exc
        return cls(n=n, labels=labels, center=center)


def _unchecked(n: int, labels: tuple[int, ...], center: int = 0) -> GaleDiagram:
    """A ``GaleDiagram`` built without ``__post_init__``'s checks.

    Only for labels known to be valid: an image of a validated diagram's
    labels, or a leaf that the search built.  The result compares and
    hashes equal to ``GaleDiagram(n, labels, center)``.  Bad input must go
    through the public constructor, which checks every field.
    """
    diagram = object.__new__(GaleDiagram)
    object.__setattr__(diagram, "n", n)
    object.__setattr__(diagram, "labels", labels)
    object.__setattr__(diagram, "center", center)
    return diagram


@dataclass(frozen=True)
class Cofacet:
    """A facet witness: the center, an antipodal pair, or an origin triangle.

    ``positions`` is empty for the center, ``(i,)`` with i < n for the pair
    {i, i+n}, and an ascending triple ``(a, b, c)`` for a triangle.
    ``multiplicity`` is the product of the labels involved.
    """

    kind: str
    positions: tuple[int, ...]
    multiplicity: int


@dataclass(frozen=True)
class ValidationReport:
    """Pass/fail flags for the diagram properties, with first violations.

    ``first_violations`` maps a failed property name to the first index where
    it fails: the diameter index for P2 and S, the start position of the
    offending adjacent pair for P3, and the semicircle start position for P4
    and N.
    """

    k: int
    dimension: int
    p1: bool
    p2: bool
    p3: bool
    p4: bool
    neighborly: bool
    simplicial: bool
    first_violations: dict[str, int]

    @property
    def all_structural(self) -> bool:
        return self.p1 and self.p2 and self.p3 and self.p4

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "dimension": self.dimension,
            "P1": self.p1,
            "P2": self.p2,
            "P3": self.p3,
            "P4": self.p4,
            "N": self.neighborly,
            "S": self.simplicial,
            "first_violations": dict(self.first_violations),
        }


def semicircle_sums(diagram: GaleDiagram) -> list[int]:
    """Sum of the n-1 labels strictly between each position and its antipode.

    Entry i is the sum over positions i+1 .. i+n-1 (mod 2n).
    """
    return _cycle_semicircle_sums(diagram.labels)


def _cycle_semicircle_sums(labels: tuple[int, ...]) -> list[int]:
    """``semicircle_sums`` of a bare label cycle of length 2n."""
    n = len(labels) // 2
    current = sum(labels[1:n])
    out = [current]
    # from position i-1 to i, label i leaves the semicircle and label i+n-1
    # (mod 2n) enters it: labels n .. 2n-1, then 0 .. n-2
    for enter, leave in zip(labels[n:] + labels[: n - 1], labels[1:]):
        current += enter - leave
        out.append(current)
    return out


def _check_k(k: int) -> None:
    require_ints(k=k)
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")


def is_k_neighborly(diagram: GaleDiagram, k: int) -> bool:
    """True iff every open semicircle carries label mass at least k+1."""
    _check_k(k)
    return min(semicircle_sums(diagram)) >= k + 1


def validate(diagram: GaleDiagram, k: int) -> ValidationReport:
    """Check the structural properties P1-P4 plus neighborliness and simpliciality."""
    _check_k(k)
    n = diagram.n
    labels = diagram.labels
    two_n = 2 * n
    sums = semicircle_sums(diagram)
    # the indices where each property fails, drawn lazily up to the first
    failing = {
        "P2": (i for i in range(n) if labels[i] + labels[i + n] == 0),
        "P3": (i for i in range(two_n) if labels[i] + labels[(i + 1) % two_n] == 0),
        "P4": (i for i, s in enumerate(sums) if s < 2),
        "N": (i for i, s in enumerate(sums) if s < k + 1),
        "S": (i for i in range(n) if labels[i] * labels[i + n] > 0),
    }
    if diagram.center > 0:
        failing["S"] = iter((-1,))
    violations: dict[str, int] = {}
    for name, indices in failing.items():
        first = next(indices, None)
        if first is not None:
            violations[name] = first
    dimension = diagram.vertex_count - 3
    return ValidationReport(
        k=k,
        dimension=dimension,
        p1=dimension >= 1,
        p2="P2" not in violations,
        p3="P3" not in violations,
        p4="P4" not in violations,
        neighborly="N" not in violations,
        simplicial="S" not in violations,
        first_violations=violations,
    )


def count_cofacets(diagram: GaleDiagram) -> int:
    """Exact cofacet count: center points, complete diameters, origin triangles.

    One pass in diameter order completes each triangle at its largest
    diameter index; ``_core``'s docstring derives the recurrence.
    """
    n = diagram.n
    labels = diagram.labels
    total = diagram.center
    sa = sb = xa = xb = 0
    for a, b in zip(labels[:n], labels[n:]):
        total += a * (b + xa) + b * xb
        xa += b * sa
        xb += a * sb
        sa += a
        sb += b
    return total


def list_cofacets(diagram: GaleDiagram) -> list[Cofacet]:
    """Explicit cofacet list; multiplicities sum to count_cofacets(diagram)."""
    n = diagram.n
    labels = diagram.labels
    two_n = 2 * n
    out: list[Cofacet] = []
    if diagram.center > 0:
        out.append(Cofacet("center", (), diagram.center))
    for i in range(n):
        m = labels[i] * labels[i + n]
        if m > 0:
            out.append(Cofacet("pair", (i,), m))
    for a in range(two_n - 2):
        if labels[a] == 0:
            continue
        for b in range(a + 1, min(a + n, two_n)):
            if labels[b] == 0:
                continue
            for c in range(max(b + 1, a + n + 1), min(b + n, two_n)):
                m = labels[a] * labels[b] * labels[c]
                if m > 0:
                    out.append(Cofacet("triangle", (a, b, c), m))
    return out


def _drop_diameter(labels: tuple[int, ...], n: int, i: int) -> tuple[int, ...]:
    """Remove positions i and i+n; former antipodal pairs stay antipodal."""
    two_n = 2 * n
    j1, j2 = i % two_n, (i + n) % two_n
    return tuple(x for t, x in enumerate(labels) if t != j1 and t != j2)


def reduce(diagram: GaleDiagram) -> GaleDiagram:
    """Apply delete and glue steps until P2 and P3 hold.

    Deleting an all-zero diameter and gluing two adjacent zero labels (their
    antipodes merge additively) both preserve the cofacet count and
    k-neighborliness for every k.  Raises DegenerateDiagramError if a needed
    step would leave fewer than 2 diameters.
    """
    n = diagram.n
    labels = diagram.labels
    while True:
        two_n = 2 * n
        dead = next(
            (i for i in range(n) if labels[i] == 0 and labels[i + n] == 0), None
        )
        if dead is not None:
            if n == 2:
                raise DegenerateDiagramError(
                    "cannot delete a diameter from a 2-diameter diagram"
                )
            labels = _drop_diameter(labels, n, dead)
            n -= 1
            continue
        glue = next(
            (i for i in range(two_n) if labels[i] == 0 and labels[(i + 1) % two_n] == 0),
            None,
        )
        if glue is not None:
            if n == 2:
                raise DegenerateDiagramError(
                    "cannot glue diameters in a 2-diameter diagram"
                )
            j2 = (glue + 1 + n) % two_n
            target = (glue + n) % two_n
            merged = list(labels)
            merged[target] += merged[j2]
            labels = _drop_diameter(tuple(merged), n, glue + 1)
            n -= 1
            continue
        return GaleDiagram(n=n, labels=labels, center=diagram.center)


def displace(diagram: GaleDiagram, i: int) -> GaleDiagram:
    """Move one unit of label mass from position i to position i-1.

    Requires labels[i] > 0, labels[i+n] == 0 and labels[i+n-1] > 0.  On a
    k-neighborly diagram this drops the cofacet count by at least k, and the
    result stays k-neighborly whenever the semicircle i .. i+n-2 sums to at
    least k+2.
    """
    require_ints(i=i)
    n = diagram.n
    two_n = 2 * n
    i %= two_n
    labels = diagram.labels
    if labels[i] == 0:
        raise InvalidMoveError(f"position {i} carries no label to move")
    if labels[(i + n) % two_n] != 0:
        raise InvalidMoveError(f"antipode of position {i} must have label 0")
    if labels[(i + n - 1) % two_n] == 0:
        raise InvalidMoveError(f"position {(i + n - 1) % two_n} must have a positive label")
    moved = list(labels)
    moved[i] -= 1
    moved[(i - 1) % two_n] += 1
    return GaleDiagram(n=n, labels=tuple(moved), center=diagram.center)


def is_minimal(diagram: GaleDiagram, k: int) -> bool:
    """True iff decrementing any positive label breaks k-neighborliness."""
    if not is_k_neighborly(diagram, k):
        raise ParameterError("is_minimal requires a k-neighborly diagram")
    return is_minimal_cycle(diagram.labels, k)


def is_minimal_cycle(labels: tuple[int, ...], k: int) -> bool:
    """True iff every positive label lies in a semicircle of mass at most k+1.

    On a k-neighborly cycle this is ``is_minimal``: no label can be
    decremented.
    """
    require_ints(k=k)
    two_n = len(labels)
    n = two_n // 2
    sums = _cycle_semicircle_sums(labels)
    tight = k + 1
    # decrementing i keeps property N iff every semicircle containing i has
    # slack.  Those are the semicircles of positions i-n+1 .. i-1, so i can
    # be decremented iff the last tight one before i is at least n back.
    for j in range(two_n - 1, -1, -1):
        if sums[j] <= tight:
            last = j - two_n  # the last tight semicircle before position 0
            break
    else:
        return not any(labels)
    for i, x in enumerate(labels):
        if x and i - last >= n:
            return False
        if sums[i] <= tight:
            last = i
    return True


def dihedral_orbit(labels: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Rotations of a label cycle, identity first, then those of its reverse; lazily."""
    two_n = len(labels)
    for doubled in (labels + labels, labels[::-1] * 2):
        for r in range(two_n):
            yield doubled[r : r + two_n]


def least_image(labels: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least image of a label cycle under ``dihedral_orbit``.

    The least image starts at a least label, so only the rotations of the
    cycle and of its reverse that start there compete.  ``tuple.index``
    hops from one such start to the next in the doubled cycle, and each
    image is compared with the best so far, so the pass holds one image at
    a time.  This is the form that ``canonical_form`` and
    ``enumerate_diagrams`` emit.
    """
    two_n = len(labels)
    low = min(labels)
    best = None
    for cycle in (labels, labels[::-1]):
        doubled = cycle + cycle
        i = doubled.index(low)
        while i < two_n:
            image = doubled[i : i + two_n]
            if best is None or image < best:
                best = image
            i = doubled.index(low, i + 1)
    return best


def canonical_form(diagram: GaleDiagram) -> GaleDiagram:
    """Lexicographically least label cycle over all rotations and reflections."""
    return _unchecked(diagram.n, least_image(diagram.labels), diagram.center)

