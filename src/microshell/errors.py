"""Exception hierarchy shared across the library."""


class MicroshellError(Exception):
    """Base class for all library errors."""


class InvalidObservableSet(MicroshellError):
    """Observable family violates the structural requirements."""


class DomainError(MicroshellError):
    """Tilt vector lies outside the domain of the log-partition function."""


class QuadratureError(MicroshellError):
    """Quadrature found no resolvable support or missed its tolerance."""


class ArgumentError(MicroshellError):
    """Argument outside its documented range."""


class Infeasible(MicroshellError):
    """The reduced moment-matching problem has no solution (S2 prefix or
    inadmissible targets)."""


class SolverStall(MicroshellError):
    """Newton iteration hit its cap without converging or certifying
    boundary drift."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class NoFullTilt(MicroshellError):
    """No interior tilt with negative last coordinate matches all moments;
    numerical signature of the extraneous regime."""


class ClassificationInconclusive(MicroshellError):
    """Phase classification could not be decided; carries partial solves."""

    def __init__(self, message, reduced=None, full=None):
        super().__init__(message)
        self.reduced = reduced
        self.full = full


class FeasibilityError(MicroshellError):
    """Could not construct a configuration inside the constraint shell."""


class MixingFailure(MicroshellError):
    """Chain acceptance rate collapsed after adaptation."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class BuildError(MicroshellError):
    """The kernel library could not be built."""


class EmptyShell(MicroshellError):
    """Brute-force grid found no cell inside the constraint shell."""
