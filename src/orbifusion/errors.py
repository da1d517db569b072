"""Exception taxonomy shared across the package.

The classes mirror the CLI exit codes: schema problems (malformed files,
bad flags) are distinct from mathematical failures (axiom violations,
failed assumptions), which are distinct from structurally unsupported
inputs (orbit sizes the construction does not cover).
"""

from __future__ import annotations


class OrbifusionError(Exception):
    """Base class for every error raised by this package."""


class SchemaError(OrbifusionError):
    """Malformed input: bad file format, unknown labels, negative counts.

    Raised before any computation starts. CLI exit code 3.
    """


class InputError(OrbifusionError):
    """Well-formed input that violates an operation's precondition.

    Examples: a weight outside the level alcove, a permutation of the
    wrong order, a degenerate request. CLI exit code 1.
    """


class ValidationError(OrbifusionError):
    """A ring failed axiom validation where a validated ring was required.

    Carries the offending report on the ``report`` attribute. CLI exit
    code 1.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class AssumptionError(OrbifusionError):
    """One of the working assumptions (A1, A2, A3) does not hold.

    ``item`` names the failed assumption. CLI exit code 1.
    """

    def __init__(self, item: str, message: str):
        super().__init__(f"assumption ({item}) fails: {message}")
        self.item = item


class ObstructionRequiredError(OrbifusionError):
    """The gcd bound was inconclusive and no explicit obstruction was given.

    The decomposition depends on the actual root of unity, so the caller
    must supply it (or take it from the catalog registry). CLI exit code 1.
    """


class AmbiguousMatchingError(OrbifusionError):
    """The odd side of a graph symmetry cannot be inferred uniquely.

    The caller must pass an explicit vertex permutation. CLI exit code 1.
    """


class UnsupportedStructureError(OrbifusionError):
    """Structurally valid input outside the supported combinatorics.

    Orbits of size strictly between 1 and n, or two adjacent fixed
    vertices under a graph fold. CLI exit code 2.
    """


class NumericError(OrbifusionError):
    """A floating-point computation failed its own safety gate.

    Examples: a power iteration (dimensions, graph norm) that does not
    converge, or dimensions that fail their positivity, product or
    duality checks. CLI exit code 1.
    """
