"""Exception types shared across the package.

Validation problems (bad model parameters, malformed configs) raise
``ValueError`` subclasses; tolerance and convergence failures raise
``NumericalError`` subclasses. The CLI maps the former to exit code 2
and the latter to exit code 3.
"""


class SpecError(ValueError):
    """Invalid model parameters or simulation inputs."""


class ConfigError(SpecError):
    """Malformed CLI flags or config file contents."""


class NumericalError(RuntimeError):
    """A numerical tolerance was violated."""


class CutoffError(NumericalError):
    """Photon-number cutoff too small for the requested accuracy."""


class TailError(CutoffError):
    """Moment inversion reached the cutoff cap with its tail criterion unmet."""


class ConvergenceError(NumericalError):
    """Step refinement failed to reach the requested tolerance."""
