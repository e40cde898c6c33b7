"""Exception hierarchy.

Every failure mode a caller can react to gets its own class; the CLI maps
them to exit codes (validation and parse problems: 1, resource bounds: 3).
"""


class PrecrossedError(Exception):
    """Base class for all package errors."""


class ValidationError(PrecrossedError):
    """An algebraic object failed one of its table axioms."""


class NotLatinSquare(ValidationError):
    pass


class NotAssociative(ValidationError):
    pass


class NoIdentity(ValidationError):
    pass


class NotBijective(ValidationError):
    pass


class NotSelfDistributive(ValidationError):
    pass


class NotEquivariant(ValidationError):
    pass


class ActionInvalid(ValidationError):
    pass


class NotHomomorphism(ValidationError):
    pass


class NotByAutomorphisms(ValidationError):
    pass


class NotClosed(ValidationError):
    pass


class ModeMismatch(PrecrossedError):
    """Word or builder operation applied across incompatible word modes."""


class IndexOutOfRange(PrecrossedError):
    """Face or degeneracy index outside 0..degree."""


class ResourceBound(PrecrossedError):
    """An enumeration or matrix exceeded the configured cap."""


class DegreeOutOfRange(PrecrossedError):
    """Homology requested beyond the degrees carried by the complex."""


class NotChainMap(PrecrossedError):
    """A simplicial map failed to commute with the face or degeneracy operators."""


class Incompatible(PrecrossedError):
    """Object kind does not match the requested pipeline."""


class ParseError(ValidationError):
    """Registry file is malformed or references an undeclared name."""
