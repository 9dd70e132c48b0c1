"""Exception types shared across the package, and the value types' equality."""


def _slot_eq(self, other):
    """``__eq__`` by value for a ``__slots__`` class, whose instances it
    leaves unhashable: the slots compared in order, within one class."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return ([getattr(self, n) for n in self.__slots__]
            == [getattr(other, n) for n in self.__slots__])


class CvtAllocError(Exception):
    """Base class for all library errors."""


# --- density ---------------------------------------------------------------

class UnboundFreeParameter(CvtAllocError):
    """A density with an unbound free parameter was used in an integral."""


class EmptyCell(CvtAllocError):
    """A Voronoi cell carries (numerically) zero probability mass."""


class NoFreeParameter(CvtAllocError):
    """bind_free_parameter called on a fully concrete density."""


class InvalidParameterValue(CvtAllocError, ValueError):
    """A user-supplied value is out of range or malformed: a density
    parameter that breaks its family's invariant, a density without the
    free parameter a solve needs, a domain, a count of agents or
    generators, a tolerance or an iteration budget."""


# --- tessellation ----------------------------------------------------------

class UnsortedGenerators(CvtAllocError):
    """Generators are not strictly increasing."""


class GeneratorOutOfDomain(CvtAllocError):
    """A generator lies outside the open interval (a, b)."""


class DuplicateGenerators(CvtAllocError):
    """Two generators are closer than the degeneracy gap."""


# --- static allocation -----------------------------------------------------

class InvalidCandidate(CvtAllocError):
    """Solver candidate violates ordering/domain/parameter constraints."""


class SolverDiverged(CvtAllocError):
    """Newton iteration failed to reach the residual tolerance.

    Carries the best iterate found in ``best``, its norm in
    ``residual_norm`` and the norm of each tested iterate in ``history``
    (empty when no start was usable) for diagnostics, with the Newton
    ``path`` ("dense" or "banded") and the ``start`` the solve took.
    """

    def __init__(self, message, best=None, residual_norm=None, history=(),
                 path=None, start=None):
        super().__init__(message)
        self.best, self.residual_norm, self.history = best, residual_norm, history
        self.path, self.start = path, start


class InfeasibleProblem(CvtAllocError):
    """The mean allocation r/N is not attainable inside the domain."""


# --- dynamic allocation ----------------------------------------------------

class MissingDesiredInput(CvtAllocError):
    """negotiate_round called without a desired amount for some agent."""


class DomainTooNarrow(CvtAllocError):
    """Domain truncates the Gaussian too much for the shift property."""


# --- simulation ------------------------------------------------------------

class InvalidScenario(CvtAllocError, ValueError):
    """A scenario configuration is malformed or inconsistent."""


# --- thermal ---------------------------------------------------------------

class NonHurwitz(CvtAllocError):
    """Continuous-time A matrix has an eigenvalue with nonnegative real part."""


class Uncontrollable(CvtAllocError):
    """(Ad, Bd) pair is not controllable; pole placement impossible."""
