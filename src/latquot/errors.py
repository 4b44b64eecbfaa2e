"""Exception hierarchy shared by all latquot modules."""


class LatticeError(Exception):
    """Base class for all latquot errors."""


class DuplicateElement(LatticeError):
    pass


class UnknownElement(LatticeError):
    pass


class CycleDetected(LatticeError):
    """The cover relation's closure is not antisymmetric."""


class NotALattice(LatticeError):
    """A pair of elements lacks a unique meet or join.

    Carries the offending pair and which bound is missing.
    """

    def __init__(self, x, y, which):
        self.witness = (x, y)
        self.which = which  # "meet" or "join"
        super().__init__(f"no unique {which} for ({x}, {y})")


class EmptyGeneratorSet(LatticeError):
    pass


class SizeLimitExceeded(LatticeError):
    pass


class MalformedPartition(LatticeError):
    pass


class NotACongruence(LatticeError):
    def __init__(self, witness):
        self.witness = witness  # (x, y, c, op)
        x, y, c, op = witness
        super().__init__(f"not a congruence: {x} ~ {y} but {op} with {c} breaks")


class LatticeMismatch(LatticeError):
    pass


class NotAboveKernel(LatticeError):
    pass


class UnboundVariable(LatticeError):
    pass


class UnsupportedRank(LatticeError):
    pass


class UnknownLattice(LatticeError, KeyError):
    """A name that is not in the catalog; a KeyError too, since the catalog
    is looked up by name."""

    __str__ = LatticeError.__str__  # the message, not KeyError's repr of it


class TermSyntaxError(LatticeError):
    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")
