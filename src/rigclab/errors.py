"""Domain exceptions shared across the package."""


class LabError(Exception):
    """Base class for every domain error raised by rigclab."""


# -- pmf ----------------------------------------------------------------------

class EmptySupport(LabError):
    pass


class NotNormalized(LabError):
    pass


class NegativeWeight(LabError):
    pass


class ZeroMean(LabError):
    pass


class SupportContainsZero(LabError):
    pass


class OutOfDomain(LabError):
    pass


class OutOfRange(LabError):
    pass


# -- community ----------------------------------------------------------------

class TooManyEdges(LabError):
    pass


class TooManyVertices(LabError):
    pass


# -- model --------------------------------------------------------------------

class HalfEdgeMismatch(LabError):
    pass


class ZeroDegree(LabError):
    pass


class InconsistentMatching(LabError):
    pass


# -- theory -------------------------------------------------------------------

class ExcludedRegime(LabError):
    pass


class NotSupercritical(LabError):
    pass


# -- explore ------------------------------------------------------------------

class DomainHorizon(LabError):
    pass


class EmptyGrid(LabError):
    pass


# -- cli ----------------------------------------------------------------------

class ConfigError(LabError):
    pass


class KeyMismatch(LabError):
    pass
