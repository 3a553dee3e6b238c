"""Exception taxonomy for gmequiv.

Every error raised deliberately by this package derives from GmequivError, so
callers can catch one base class at the CLI boundary and map it to an exit
code. Parsing errors carry enough structure (character offset, expectation
set) to reproduce a caret diagnostic without reading the text again.
"""

from __future__ import annotations


class GmequivError(Exception):
    """Base class for all gmequiv errors."""


class ExpressionSyntaxError(GmequivError):
    """Malformed kernel expression text.

    Attributes
    ----------
    offset : int
        0-based character offset into the source string where parsing
        failed.
    expected : str
        Human-readable description of what the parser expected there.

    The message shows the line of the source that holds the offset, with a
    caret under the offset; the caret's prefix keeps that line's tabs, so
    a terminal puts it under the fault whatever its tab width.
    """

    def __init__(self, source: str, offset: int, expected: str):
        self.source = source
        self.offset = offset
        self.expected = expected
        start = source.rfind("\n", 0, offset) + 1
        line = source[start:].split("\n", 1)[0]
        caret = "".join(c if c == "\t" else " " for c in source[start:offset]) + "^"
        super().__init__(
            f"syntax error at offset {offset}: expected {expected}\n"
            f"  {line}\n  {caret}"
        )


class UnknownIdentifier(GmequivError):
    """Identifier that is neither the time variable nor a known function."""

    def __init__(self, name: str, offset: int = -1):
        self.name = name
        self.offset = offset
        super().__init__(f"unknown identifier {name!r}")


class EvaluationError(GmequivError):
    """Expression evaluation left the real domain (log of a non-positive
    number, square root of a negative, division by zero, overflow)."""


class AssumptionViolation(GmequivError):
    """The kernel factor pair fails the standing shape assumption:
    u*v must be nonnegative on [0,1] and positive inside, and q = u/v
    must be strictly increasing from q(0) = 0."""


class KernelDegenerate(GmequivError):
    """Operation requires structure this kernel lacks (e.g. a finite
    time-change horizon)."""


class QuadratureFailure(GmequivError):
    """Adaptive quadrature could not reach the requested tolerance.

    Attributes
    ----------
    message : str
        What missed, without the achieved tolerance.
    achieved : float
        The relative tolerance actually achieved.
    """

    def __init__(self, message: str, achieved: float):
        self.message = message
        self.achieved = achieved
        super().__init__(f"{message} (achieved relative tolerance {achieved:.3e})")


class SingularCovariance(GmequivError):
    """Covariance matrix of the requested observation set is singular."""


class GridMismatch(GmequivError):
    """A path grid does not contain the required design points."""


class DegenerateCell(GmequivError):
    """A cell has zero q-increment, so the per-cell weight is undefined."""


class HermitianViolation(GmequivError):
    """Fourier coefficients break the conjugate symmetry required of a
    real-valued function, or an evaluation produced a non-negligible
    imaginary part."""


class GridMissingEndpoints(GmequivError):
    """A functional needs path values at specific points (e.g. both
    endpoints) that the sample grid does not provide."""
