"""Exception types shared across the package, and the integer check that
raises one.

Validation problems (bad model parameters, malformed configs) raise
``ValueError`` subclasses; tolerance and convergence failures raise
``NumericalError`` subclasses. The CLI maps the former to exit code 2
and the latter to exit code 3.
"""

import numbers


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


def check_integer(value, name: str, least: int, label: str | None = None) -> None:
    """Raise :class:`SpecError` naming ``name`` unless ``value`` is an integer
    (not a bool) >= ``least``; ``label`` is the name in the message's subject."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise SpecError(f"{label or name} must be an integer >= {least}, got {name}={value!r}")
