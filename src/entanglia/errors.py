"""Exception types named after the precondition they report.

All derive from EntangliaError (a ValueError), so callers may catch the
broad class; the CLI maps them to exit code 3 with the precondition named.
"""


class EntangliaError(ValueError):
    pass


# linear algebra kernel
class MissingDims(EntangliaError):
    pass


class BadSubset(EntangliaError):
    pass


class NotHermitian(EntangliaError):
    pass


class NotPSD(EntangliaError):
    pass


class ComplexRoots(EntangliaError):
    pass


# majorization
class TraceMismatch(EntangliaError):
    pass


class NonFinite(EntangliaError):
    pass


class NotMajorized(EntangliaError):
    pass


# states and measures
class BadSplit(EntangliaError):
    pass


class BadParam(EntangliaError):
    pass


class NotDensity(EntangliaError):
    pass


class BadDims(EntangliaError):
    pass


# LOCC engine
class RankMismatch(EntangliaError):
    pass


class NotIncomparable3x3(EntangliaError):
    pass


class NoPlanFound(EntangliaError):
    pass


class EmptyRange(EntangliaError):
    pass


class Degenerate(EntangliaError):
    pass


class TooLarge(EntangliaError):
    pass


# bound entanglement / hiding
class OddN(EntangliaError):
    pass


class BadLabel(EntangliaError):
    pass


class BadSecret(EntangliaError):
    pass


class BadParty(EntangliaError):
    pass


class NotGHZDiagonal(EntangliaError):
    pass


class NotDyadic(EntangliaError):
    pass
