"""Operators and superoperators for a coherently driven two-level emitter.

Conventions, fixed once and used everywhere:

* Basis ordering is ``{|g>, |e>}`` (index 0 = ground, 1 = excited), so
  ``SIGMA_Z = diag(-1, +1)`` and the excited state has eigenvalue +1.
* Density matrices are 2x2 complex arrays in this basis.
* Superoperators are 4x4 complex arrays acting on the column-stacked
  vectorization of a 2x2 matrix (columns concatenated in order), i.e.
  ``vectorize(m) = m.flatten(order="F")`` and the map ``rho -> A rho B``
  has matrix ``kron(B.T, A)``.
* Time is dimensionless: one unit is the emitter relaxation time for the
  single-line topology, and the inverse relaxation rate into the strong
  line for the two-line topology.

The drive is parametrized by the envelope ``N_in(t)``, the incoming photon
flux in photons per relaxation time. The equation of motion is

    single line:  drho/dt = i(delta/2)[sz, rho] + D(sm) rho
                            - i sqrt(N_in(t)/2) [sx, rho]
    two lines:    drho/dt = i(delta/2)[sz, rho] + (1+a) D(sm) rho
                            - i sqrt(a N_in(t)) [sx, rho]

with the Lindblad dissipator D(c) rho = c rho c+ - (c+ c rho + rho c+ c)/2.
The monitored output channel is the reflected field for the single line
(jump weight 1/2) and the strongly coupled line for the two-line topology
(jump weight 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import SpecError

__all__ = [
    "SIGMA_MINUS", "SIGMA_PLUS", "SIGMA_X", "SIGMA_Z", "IDENTITY2",
    "GROUND", "EXCITED",
    "SquarePulse", "SampledPulse", "SingleLine", "TwoLine", "DriveSpec",
    "Channel", "vectorize", "devectorize", "dissipator",
    "drive_amplitude", "drive_hamiltonian", "effective_hamiltonian",
    "build_liouvillian", "jump_superop", "decay_channels",
    "drive_intervals", "total_decay_rate", "default_window",
]


def _locked(m) -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    arr.setflags(write=False)
    return arr


SIGMA_MINUS = _locked([[0, 1], [0, 0]])   # sm |e> = |g>
SIGMA_PLUS = _locked([[0, 0], [1, 0]])    # sp |g> = |e>
SIGMA_X = _locked([[0, 1], [1, 0]])
SIGMA_Z = _locked([[-1, 0], [0, 1]])
IDENTITY2 = _locked(np.eye(2))
GROUND = _locked([[1, 0], [0, 0]])        # |g><g|
EXCITED = _locked([[0, 0], [0, 1]])       # |e><e|


# ---------------------------------------------------------------------------
# Drive envelopes and topologies

def _check_detuning(delta: float) -> None:
    if not math.isfinite(delta):
        raise SpecError(f"detuning must be finite, got delta={delta}")


@dataclass(frozen=True)
class SquarePulse:
    """Rectangular envelope: flux ``N/T`` on ``[0, T)``, zero elsewhere.

    Parameters
    ----------
    T : float
        Pulse width in relaxation-time units, finite and > 0.
    N : float
        Total mean photon number in the pulse, finite and >= 0.
    """

    T: float
    N: float

    def __post_init__(self):
        if not 0 < self.T < math.inf:
            raise SpecError(f"pulse width must satisfy 0 < T < inf, got T={self.T}")
        if not 0 <= self.N < math.inf:
            raise SpecError(f"photon number must satisfy 0 <= N < inf, got N={self.N}")

    @property
    def end(self) -> float:
        return self.T

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return (0.0, self.T)

    def flux(self, t: float) -> float:
        return self.N / self.T if 0.0 <= t < self.T else 0.0


@dataclass(frozen=True)
class SampledPulse:
    """Envelope given by samples ``(t_i, flux_i)`` with linear interpolation.

    Outside the sampled range the flux is zero; a nonzero first or last
    sample therefore produces a step discontinuity at that knot. All
    samples must be finite.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        values = tuple(float(v) for v in self.values)
        if len(times) != len(values):
            raise SpecError("sample times and values must have equal length")
        if len(times) < 2:
            raise SpecError("a sampled envelope needs at least two samples")
        for name, seq in (("times", times), ("values", values)):
            if not all(map(math.isfinite, seq)):
                raise SpecError(f"sample {name} must be finite, got {seq}")
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise SpecError("sample times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def end(self) -> float:
        return self.times[-1]

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return self.times

    def flux(self, t: float) -> float:
        if t < self.times[0] or t > self.times[-1]:
            return 0.0
        return float(np.interp(t, self.times, self.values))


@dataclass(frozen=True)
class SingleLine:
    """Emitter in an infinite line; the reflected field is monitored.

    ``delta`` is the drive detuning in units of the relaxation rate, finite.
    """

    delta: float = 0.0

    def __post_init__(self):
        _check_detuning(self.delta)


@dataclass(frozen=True)
class TwoLine:
    """Emitter coupled to two semi-infinite lines, driven through the weak one.

    ``a`` is the weak-to-strong coupling ratio, constrained to 0 < a <= 1.
    The strongly coupled output line is monitored.
    """

    a: float
    delta: float = 0.0

    def __post_init__(self):
        if not 0 < self.a <= 1:
            raise SpecError(f"coupling ratio must satisfy 0 < a <= 1, got a={self.a}")
        _check_detuning(self.delta)


Pulse = SquarePulse | SampledPulse
Topology = SingleLine | TwoLine

# Residual excitation decays as exp(-rate * t) after the pulse; 12 decay
# constants keep the truncated tail below 1e-5.
_WINDOW_DECAY_CONSTANTS = 12.0


def total_decay_rate(topology: Topology) -> float:
    """Summed emission rate into all channels, in the topology's time unit."""
    return 1.0 + topology.a if isinstance(topology, TwoLine) else 1.0


def default_window(pulse: Pulse, topology: Topology) -> float:
    return pulse.end + _WINDOW_DECAY_CONSTANTS / total_decay_rate(topology)


@dataclass(frozen=True)
class DriveSpec:
    """Complete description of one scattering run.

    Combines the drive envelope, the line topology, and the counting window
    ``[0, t_end]``. When ``t_end`` is omitted it defaults to the pulse end
    plus 12 decay constants of the total emission rate; a given ``t_end``
    must be finite.
    """

    pulse: Pulse
    topology: Topology = field(default_factory=SingleLine)
    t_end: float | None = None

    def __post_init__(self):
        if self.t_end is None:
            object.__setattr__(self, "t_end", default_window(self.pulse, self.topology))
        if not math.isfinite(self.t_end):
            raise SpecError(f"counting window must be finite, got t_end={self.t_end}")
        if self.t_end < self.pulse.end:
            raise SpecError(
                f"counting window t_end={self.t_end} must contain the pulse "
                f"(pulse ends at t={self.pulse.end})"
            )

    @property
    def delta(self) -> float:
        return self.topology.delta

    def breakpoints(self) -> tuple[float, ...]:
        """Envelope discontinuity/knot times restricted to the window."""
        pts = {0.0, float(self.t_end)}
        pts.update(t for t in self.pulse.breakpoints if 0.0 < t < self.t_end)
        return tuple(sorted(pts))


class Channel(NamedTuple):
    """One decay channel: jump operator is sigma- with the given rate weight."""

    name: str
    weight: float
    monitored: bool


def decay_channels(spec: DriveSpec) -> tuple[Channel, ...]:
    """All emission channels of the topology; weights sum to the total rate."""
    if isinstance(spec.topology, TwoLine):
        return (Channel("strong", 1.0, True), Channel("weak", spec.topology.a, False))
    return (Channel("left", 0.5, True), Channel("right", 0.5, False))


# ---------------------------------------------------------------------------
# Vectorization and superoperator construction

def vectorize(m) -> np.ndarray:
    """Column-stack a 2x2 matrix into a 4-vector."""
    return np.asarray(m, dtype=complex).flatten(order="F")


def devectorize(v) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    return np.asarray(v, dtype=complex).reshape((2, 2), order="F")


def _left_mult(a) -> np.ndarray:
    return np.kron(IDENTITY2, a)


def _right_mult(b) -> np.ndarray:
    return np.kron(np.asarray(b).T, IDENTITY2)


def dissipator(c) -> np.ndarray:
    """Superoperator of ``rho -> c rho c+ - (c+ c rho + rho c+ c) / 2``."""
    c = np.asarray(c, dtype=complex)
    cdc = c.conj().T @ c
    return np.kron(c.conj(), c) - 0.5 * (_left_mult(cdc) + _right_mult(cdc))


def _hamiltonian_superop(h) -> np.ndarray:
    """Superoperator of ``rho -> -i [h, rho]``."""
    return -1j * (_left_mult(h) - _right_mult(h))


def drive_amplitude(spec: DriveSpec, t: float) -> float:
    """Coefficient of the sigma-x commutator at time ``t``.

    Equals ``sqrt(N_in(t)/2)`` for the single line and ``sqrt(a N_in(t))``
    for the two-line topology. Raises for negative flux values.
    """
    flux = spec.pulse.flux(t)
    if flux < 0:
        raise SpecError(f"drive flux must be non-negative, got N_in({t}) = {flux}")
    return math.sqrt(drive_coefficient(spec.topology) * flux)


def drive_hamiltonian(spec: DriveSpec, t: float) -> np.ndarray:
    """Rotating-frame Hamiltonian ``-(delta/2) sz + amplitude(t) sx``."""
    return -0.5 * spec.delta * SIGMA_Z + drive_amplitude(spec, t) * SIGMA_X


def effective_hamiltonian(spec: DriveSpec, t: float) -> np.ndarray:
    """Non-Hermitian generator for quantum-jump evolution between jumps."""
    rate = total_decay_rate(spec.topology)
    return drive_hamiltonian(spec, t) - 0.5j * rate * (SIGMA_PLUS @ SIGMA_MINUS)


# Superoperators of rho -> -i[sz, rho], of D(sm) and of rho -> -i[sx, rho];
# every generator of the model is a combination of these three.
_PRECESSION = _locked(_hamiltonian_superop(SIGMA_Z))
_DECAY = _locked(dissipator(SIGMA_MINUS))
_DRIVE = _locked(_hamiltonian_superop(SIGMA_X))


def liouvillian_parts(topology: Topology) -> tuple[np.ndarray, np.ndarray]:
    """Drive-independent generator and the unit-amplitude drive term.

    The full generator is affine in the drive amplitude:
    ``L(t) = static + amplitude(t) * drive``, with
    ``static = -(delta/2) S_z + gamma D(sm)`` for the superoperator S_z of
    ``-i[sz, .]`` and the total decay rate gamma. ``drive`` is read-only.
    """
    return -0.5 * topology.delta * _PRECESSION + total_decay_rate(topology) * _DECAY, _DRIVE


def drive_coefficient(topology: Topology) -> float:
    """Factor c in the drive amplitude ``sqrt(c * N_in(t))``."""
    return topology.a if isinstance(topology, TwoLine) else 0.5


def build_liouvillian(spec: DriveSpec, t: float) -> np.ndarray:
    """Generator of the master equation at time ``t`` as a 4x4 superoperator."""
    static, drive = liouvillian_parts(spec.topology)
    return static + drive_amplitude(spec, t) * drive


_JUMP_SINGLE = _locked(0.5 * np.kron(SIGMA_MINUS, SIGMA_MINUS))
_JUMP_TWO = _locked(np.kron(SIGMA_MINUS, SIGMA_MINUS))


def jump_superop(spec: DriveSpec) -> np.ndarray:
    """Jump superoperator of the monitored output channel (read-only).

    Single line (reflected field): ``rho -> sm rho sp / 2``. Two lines
    (strong output line): ``rho -> sm rho sp``. One application represents
    one detected photon; applying it twice annihilates any state.
    """
    return _JUMP_TWO if isinstance(spec.topology, TwoLine) else _JUMP_SINGLE


def drive_intervals(spec: DriveSpec) -> list[tuple[float, float, float | None]]:
    """Partition of the window at the envelope breakpoints.

    Returns ``[(t0, t1, amplitude), ...]`` covering ``[0, t_end]`` in order.
    ``amplitude`` is the :func:`drive_amplitude` of an interval where the
    flux is constant (every interval of a square pulse, flat tops and
    rectangles of a sampled one, the undriven tail), and ``None`` where the
    flux varies linearly.
    """
    flux = spec.pulse.flux
    edges = spec.breakpoints()
    out = []
    for t0, t1 in zip(edges, edges[1:]):
        # the flux is linear between breakpoints: equal values at two
        # interior points make it constant across the interval
        constant = flux(0.75 * t0 + 0.25 * t1) == flux(0.25 * t0 + 0.75 * t1)
        out.append((t0, t1, drive_amplitude(spec, 0.5 * (t0 + t1)) if constant else None))
    return out
