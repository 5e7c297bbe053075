"""Exception types shared across the package."""


class DiagramError(Exception):
    """Base class for all diagram and bound computation errors."""


class ParameterError(DiagramError, ValueError):
    """A precondition on the arguments was violated."""


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
