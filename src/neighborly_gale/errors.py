"""Exception types shared across the package, and its one exact-int check.

``require_ints`` guards every public int parameter: the ``bounds``
functions, ``FVector``, ``VFPair``, ``recursive_family``, the example
builders, ``GaleDiagram`` and ``.label``, ``is_k_neighborly``, ``validate``,
``displace``, ``is_minimal``, ``is_minimal_cycle``,
``triangle_contains_origin``, ``point_on_circle``, ``SearchConfig``,
``delta3_closed_form`` and ``verify_theorem1``.
"""


class DiagramError(Exception):
    """Base class for all diagram and bound computation errors."""


class ParameterError(DiagramError, ValueError):
    """A precondition on the arguments was violated."""


def require_ints(**named) -> None:
    """Raise ``ParameterError`` naming each value that is not an exact int.

    A tuple is checked element by element.  A float would be truncated or
    move a threshold, and a bool is an int subclass: either would pass the
    range checks with a value the caller did not mean.
    """
    wrong = ""
    for name, value in named.items():
        if type(value) is not int and (
            type(value) is not tuple or any(type(v) is not int for v in value)
        ):
            wrong += f", {name}={value!r}"
    if wrong:
        raise ParameterError(f"parameters must be integers: {wrong[2:]}")


class DegenerateDiagramError(DiagramError):
    """A reduction step would drop the diagram below two diameters."""


class InvalidMoveError(DiagramError):
    """A displace move was attempted on positions that do not admit it."""


class OracleSizeError(DiagramError):
    """The geometric oracle was asked to count a diagram beyond its size guard."""


class InexactDivisionError(DiagramError, ValueError):
    """An integer formula did not divide exactly; signals parameter misuse."""


class CounterexampleError(DiagramError):
    """A diagram with fewer cofacets than vertices was encountered.

    This would contradict the facets >= vertices conjecture for k-neighborly
    polytopes, so the search aborts immediately and carries the witness.
    """

    def __init__(self, diagram, cofacets: int, vertices: int):
        self.diagram = diagram
        self.cofacets = cofacets
        self.vertices = vertices
        super().__init__(
            f"diagram with {cofacets} cofacets but {vertices} vertices: "
            f"n={diagram.n} labels={list(diagram.labels)} center={diagram.center}"
        )

    def __reduce__(self):
        # rebuild from the fields, so the error crosses process boundaries
        return type(self), (self.diagram, self.cofacets, self.vertices)
