"""Photon-number statistics of the monitored output channel.

Two independent routes produce the count distribution over the window:

* Moment inversion. Auxiliary matrices ``mu_m`` obey the hierarchy
  ``d mu_m / dt = L(t) mu_m + njump mu_{m-1}`` with ``mu_0 = rho`` and
  ``mu_m(0) = 0``; each insertion of ``njump`` followed by propagation
  reproduces one time-ordered factor of the m-point intensity correlator,
  so the ordered-simplex integral of that correlator, the m-th binomial
  moment ``N_m = sum_n C(n, m) P_n`` of the count distribution, equals the
  window integral of ``trace(njump mu_{m-1})``. Because propagation is
  trace preserving, that integral telescopes to ``trace(mu_m(t_end))``,
  which is how the moments are evaluated here (no quadrature error). The
  distribution follows by inclusion-exclusion inversion.

* Jump-resolved counting. Splitting the generator as ``(L - njump) +
  njump`` resolves the state by the number of emissions into the monitored
  channel: ``d rho_n / dt = (L - njump) rho_n + njump rho_{n-1}``, and
  ``P_n = trace(rho_n(t_end))`` directly.

Both hierarchies are block lower-bidiagonal linear systems, advanced up to
the pulse end: square pulses of one topology, at any widths, as one stack
of exact exponentials (:func:`_pulse_traces`), and a sampled envelope by
:func:`photonstat.propagator.advance` (exact on flat parts, CF4 verified by
step halving where it varies). The undriven tail from the pulse end to
``t_end`` adds to every level trace in closed form (:func:`_end_traces`).
A row of square pulses (a sweep row) climbs the cutoff ladder together,
one stacked hierarchy per rung over its points still short of their
criterion; the exact ``P_1`` of :func:`one_photon_probability` is the
k = 1 jump-counting rung of the same stack.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CutoffError, NumericalError, SpecError, TailError
from .liouville import (
    GROUND,
    DriveSpec,
    SquarePulse,
    Topology,
    drive_coefficient,
    jump_superop,
    total_decay_rate,
    vectorize,
)
from .propagator import (
    _TO_R,
    _block_expm,
    advance,
    propagator_between,
    real_parts,
    validate_density,
)

__all__ = [
    "PhotonStats", "binomial_moments", "correlator", "invert_moments",
    "counting_distribution", "moments_from_probabilities", "photon_statistics",
    "one_photon_probability", "verify_dual",
]

# Cutoff policy: raise k until the top moment N_k is below TAIL_TOLERANCE,
# and report N_k as the tail bound. N_k does not bound the inversion's
# truncation error in P_n: on the fig2 map that error reaches 7.1e-7 where
# N_k < 1e-8 (ROADMAP.md, item 3). A drive whose top moment is still above
# TAIL_TOLERANCE at MAX_CUTOFF raises TailError instead of inverting a
# truncated series.
TAIL_TOLERANCE = 1e-8
MAX_CUTOFF = 16
START_CUTOFF = 4
# Clamping band for roundoff-negative probabilities.
NEGATIVE_TOLERANCE = 1e-9
# Completeness required of the jump-resolved distribution.
NORMALIZATION_TOLERANCE = 1e-6
# Componentwise agreement required between the two deterministic routes.
DUAL_TOLERANCE = 1e-6


@dataclass(frozen=True)
class PhotonStats:
    """Binomial moments and count probabilities for one run.

    ``moments[m-1]`` holds the m-th binomial moment for m = 1..k and
    ``probabilities[n]`` holds P_n for n = 0..k. ``tail_bound`` is the top
    moment N_k for moment inversion and the missing mass ``1 - sum P_n``
    for jump counting. The former is not a bound on the error of the P_n
    (ROADMAP.md, item 3).
    """

    moments: np.ndarray
    probabilities: np.ndarray
    cutoff_k: int
    tail_bound: float
    method: str

    def __post_init__(self):
        self.moments.setflags(write=False)
        self.probabilities.setflags(write=False)

    @property
    def p1(self) -> float:
        return float(self.probabilities[1])


# ---------------------------------------------------------------------------
# Hierarchy integration

def _level_traces(specs, k: int, rho0, resolved: bool) -> np.ndarray:
    """Traces of hierarchy levels 0..k at t_end, from ``rho0`` (default
    ``|g><g|``), one row per spec of ``specs``: square pulses of one
    topology, or a single spec of any envelope."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise SpecError(f"cutoff k must be an integer >= 1, got k={k!r}")
    if isinstance(specs[0].pulse, SquarePulse):
        T, N, t_end = np.array([(s.pulse.T, s.pulse.N, s.t_end) for s in specs], dtype=float).T
        return _pulse_traces(specs[0].topology, T, N, t_end, k, rho0, resolved)
    (spec,) = specs
    y = np.zeros(4 * (k + 1), dtype=complex)
    y[:4] = vectorize(GROUND if rho0 is None else validate_density(rho0))
    # per-part error budget, the tail counted; endpoint errors propagate
    # non-expansively
    tol = TAIL_TOLERANCE / (len(spec.breakpoints()) - 1)
    # nothing drives the emitter after the pulse end
    stop = min(max(0.0, spec.pulse.end), spec.t_end)
    levels = advance(spec, y, 0.0, stop, tol, resolved).reshape(1, k + 1, 4).real
    return _end_traces(levels[..., 0], levels[..., 3], spec.topology, spec.t_end - stop, resolved)


def _pulse_traces(topology: Topology, T, N: np.ndarray, t_end, k: int, rho0,
                  resolved: bool) -> np.ndarray:
    """:func:`_level_traces` of square pulses on ``topology`` of widths ``T``,
    photon numbers ``N`` and windows ``t_end`` (arrays, or scalars for all),
    one kernel slice per pulse over its own width: each row is bit for bit
    the pulse alone."""
    static, drive, jump = real_parts(topology)
    amps = np.sqrt(drive_coefficient(topology) * (N / T))
    pulse = _block_expm((static - jump if resolved else static) + amps[:, None, None] * drive,
                        jump, k, T)
    if rho0 is None:  # |g><g| is the first unit vector of r
        state = pulse[:, :, 0]
    else:  # complex, as in advance, where a start carries imaginary roundoff in r
        r0 = _TO_R @ vectorize(validate_density(rho0))
        state = pulse[:, :, :4] @ (r0 if r0.imag.any() else r0.real)
    # the populations of level j sit at rows 4 j and 4 j + 1 of r
    levels = state.real.reshape(len(N), k + 1, 4)
    return _end_traces(levels[..., 0], levels[..., 1], topology, t_end - T, resolved)


def _end_traces(ground: np.ndarray, excited: np.ndarray, topology: Topology,
                tail: np.ndarray, resolved: bool) -> np.ndarray:
    """Traces of the hierarchy levels 0..k (last axis) whose populations are
    ``ground`` and ``excited`` (one row per point) after undriven tails of
    lengths ``tail`` (an array, or a scalar for all).

    Every level's excited population decays as ``exp(-gamma t)``, and the
    monitored share ``gamma_mon / gamma`` of that decay feeds the level
    above, so level m gains ``c`` times the excited population of level
    m - 1 and, with ``resolved`` (jump counting), loses ``c`` times its own,
    where ``c = (gamma_mon / gamma) (1 - exp(-gamma tail))``.
    """
    rate = total_decay_rate(topology)
    monitored = real_parts(topology)[2][0, 1]  # J moves gamma_mon rho_ee one level up
    # math.expm1 once per distinct tail (np.expm1 may differ in the last bit)
    tails = np.ravel(tail).tolist()
    shares = {t: monitored / rate * -math.expm1(-rate * t) for t in set(tails)}
    share = np.array([shares[t] for t in tails])[:, None]
    fed = np.zeros_like(excited)
    fed[..., 1:] = excited[..., :-1]
    return ground + excited + share * (fed - excited if resolved else fed)


def _clamp_moments(vals: np.ndarray) -> np.ndarray:
    return np.where((vals < 0) & (vals > -NEGATIVE_TOLERANCE), 0.0, vals)


def _complete_distribution(traces: np.ndarray, n_max: int) -> np.ndarray:
    probs = _clamp_probabilities(traces)
    missing = 1.0 - probs.sum()
    if missing > NORMALIZATION_TOLERANCE:
        raise CutoffError(
            f"probability {missing:.3e} lies beyond n_max={n_max}; insufficient n_max"
        )
    return probs


# ---------------------------------------------------------------------------
# Public operations

def binomial_moments(spec: DriveSpec, k: int, rho0=None) -> np.ndarray:
    """Binomial moments 1..k of the monitored count distribution.

    Returns ``[N_1, ..., N_k]`` where ``N_m`` is the ordered m-fold
    coincidence integral over the counting window, starting from ``rho0``
    (default ``|g><g|``).
    """
    return _clamp_moments(_level_traces([spec], k, rho0, resolved=False)[0, 1:])


def counting_distribution(spec: DriveSpec, n_max: int, rho0=None) -> np.ndarray:
    """Count probabilities ``P_0 .. P_n_max`` by jump-resolved propagation.

    Starts from ``rho0`` (default ``|g><g|``). Raises :class:`CutoffError`
    when more than ``NORMALIZATION_TOLERANCE`` of the probability lies
    beyond ``n_max``.
    """
    return _complete_distribution(_level_traces([spec], n_max, rho0, resolved=True)[0], n_max)


def _clamp_probabilities(probs: np.ndarray) -> np.ndarray:
    if probs.min() < -NEGATIVE_TOLERANCE:
        raise NumericalError(
            f"probability {probs.min():.3e} below -{NEGATIVE_TOLERANCE}; "
            "inadequate cutoff or integration error"
        )
    return np.where(probs < 0, 0.0, probs)


def invert_moments(moments) -> np.ndarray:
    """Recover ``P_0 .. P_k`` from binomial moments ``N_1 .. N_k``.

    Uses the inclusion-exclusion inversion
    ``P_n = sum_{m>=n} (-1)^(m-n) C(m, n) N_m`` with ``N_0 = 1``. Values in
    ``[-1e-9, 0)`` are clamped to zero; anything more negative raises.
    """
    moments = np.asarray(moments, dtype=float)
    if moments.ndim != 1 or len(moments) < 1:
        raise SpecError("need at least the first binomial moment")
    full = np.concatenate(([1.0], moments))
    _, signed, lower = _binomials(len(moments))
    # term (m, n) sits at row m, column n
    return _clamp_probabilities(_column_sums(np.where(lower, signed * full[:, None], 0.0)))


def moments_from_probabilities(probs, k: int) -> np.ndarray:
    """Binomial moments ``N_1 .. N_k`` implied by a count distribution."""
    probs = np.asarray(probs, dtype=float)
    binom, _, lower = _binomials(max(len(probs) - 1, k))
    # term (n, m) sits at row n, column m - 1
    cols = slice(1, k + 1)
    return _column_sums(np.where(lower[:len(probs), cols],
                                 binom[:len(probs), cols] * probs[:, None], 0.0))


def _column_sums(terms: np.ndarray) -> np.ndarray:
    """Each column summed in row order, as a left-to-right ``sum`` of the
    formula's terms would (``np.add.accumulate`` is sequential)."""
    if not len(terms):
        return np.zeros(terms.shape[1])
    return np.add.accumulate(terms, axis=0)[-1]


@lru_cache(maxsize=None)
def _binomials(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``C(m, n)``, ``(-1)^(m-n) C(m, n)`` and the mask ``n <= m``, at row m
    and column n for m, n = 0..k (read-only)."""
    binom = np.array([[math.comb(m, n) for n in range(k + 1)] for m in range(k + 1)],
                     dtype=float)
    m, n = np.indices(binom.shape)
    parts = binom, np.where((m - n) % 2, -binom, binom), n <= m
    for part in parts:
        part.setflags(write=False)
    return parts


def correlator(spec: DriveSpec, times, rho0=None) -> float:
    """Time-ordered m-point intensity correlator at the given times.

    With ``njump = jump_superop(spec)``, evaluates
    ``trace(njump P(t_m, t_{m-1}) ... njump rho(t_1))`` for
    non-decreasing times inside the window, starting from ``rho0`` (default
    ``|g><g|``). Vanishes identically whenever two times coincide, since
    ``njump @ njump = 0``.
    """
    times = [float(t) for t in np.atleast_1d(times)]
    if any(t1 < t0 for t0, t1 in zip(times, times[1:])):
        raise SpecError(f"correlation times must be non-decreasing, got {times}")
    if times[0] < 0 or times[-1] > spec.t_end:
        raise SpecError("correlation times must lie inside the counting window")
    njump = jump_superop(spec)
    v = propagator_between(spec, 0.0, times[0]) @ vectorize(
        GROUND if rho0 is None else validate_density(rho0))
    v = njump @ v
    for t0, t1 in zip(times, times[1:]):
        v = njump @ (propagator_between(spec, t0, t1) @ v)
    val = (v[0] + v[3]).real
    if abs((v[0] + v[3]).imag) > 1e-10:
        raise NumericalError("correlator has a non-negligible imaginary part")
    if val < -1e-12:
        raise NumericalError(f"correlator value {val:.3e} below -1e-12")
    return float(val)


def one_photon_probability(topology: Topology, T: float, photon_numbers) -> np.ndarray:
    """Exact ``P_1`` of square pulses of width ``T`` at every photon number.

    Starts from ``|g><g|`` and counts over the default window. Level 1 of
    the jump-resolved hierarchy depends only on level 0, so ``P_1 = trace
    rho_1(t_end)`` is exact with no cutoff at k = 1, whose generator is the
    8x8 block form ``[[L - J, 0], [J, L - J]]`` (Van Loan's block form for
    integrals of matrix exponentials). It is the k = 1 jump-counting rung of
    the pulse stack the counting routes use, so each value is bit for bit
    independent of the other photon numbers passed with it.
    """
    ns = np.asarray(photon_numbers, dtype=float).reshape(-1)
    if not ((ns >= 0) & (ns < math.inf)).all():
        raise SpecError("photon numbers must be finite with N >= 0, "
                        f"got {ns[~((ns >= 0) & (ns < math.inf))][0]}")
    t_end = DriveSpec(SquarePulse(T=T, N=0.0), topology).t_end
    return _pulse_traces(topology, T, ns, t_end, 1, None, True)[:, 1] if len(ns) else ns


def photon_statistics(spec: DriveSpec, method: str = "moment-inversion",
                      k: int | None = None, rho0=None) -> PhotonStats:
    """Full count statistics of the monitored channel for one run.

    ``method`` selects the moment-inversion or jump-counting route. With
    ``k=None`` the cutoff starts at ``START_CUTOFF`` and is raised in steps
    of 2, at most to ``MAX_CUTOFF``, until the top moment falls below
    ``TAIL_TOLERANCE``, respectively until the jump-resolved distribution is
    complete to ``NORMALIZATION_TOLERANCE``; the reported ``tail_bound`` is
    the top moment, respectively the missing probability mass. Reaching
    ``MAX_CUTOFF`` with the criterion unmet raises :class:`TailError`,
    respectively :class:`CutoffError`. A ``rho0`` other than the default
    ``|g><g|`` is checked by ``validate_density``.
    """
    stats = _row_statistics([spec], method, k, rho0)[0]
    if isinstance(stats, NumericalError):
        raise stats
    return stats


def _row_statistics(specs, method: str = "moment-inversion", k: int | None = None,
                   rho0=None) -> list:
    """:func:`photon_statistics` of every spec of a row sharing topology and
    breakpoints (one sweep row: one T, all its N).

    The row climbs one cutoff ladder: at each rung the points not yet
    settled are one stacked hierarchy, and a point leaves the stack once
    its criterion is met. Entry i is the :class:`PhotonStats` of
    ``specs[i]``, or the :class:`NumericalError` it raised; either is bit
    for bit what ``photon_statistics(specs[i], ...)`` returns or raises.
    """
    if method not in ("moment-inversion", "jump-counting"):
        raise SpecError(f"unknown method {method!r}")
    ladder = (k,) if k is not None else tuple(range(START_CUTOFF, MAX_CUTOFF + 1, 2))
    out: list = [None] * len(specs)
    pending = list(range(len(specs)))
    for cutoff in ladder:
        if not pending:
            break
        traces = _level_traces([specs[i] for i in pending], cutoff, rho0,
                               resolved=method == "jump-counting")
        for i, levels in zip(pending, traces):
            try:
                out[i] = _settle(levels, method, cutoff, final=cutoff == ladder[-1],
                                 fixed=k is not None)
            except NumericalError as exc:
                out[i] = exc
        pending = [i for i in pending if out[i] is None]
    return out


def _settle(levels: np.ndarray, method: str, cutoff: int, final: bool,
            fixed: bool) -> PhotonStats | None:
    """Statistics from the level traces at ``cutoff``, or None to climb on."""
    if method == "moment-inversion":
        moments = _clamp_moments(levels[1:])
        if fixed or moments[-1] < TAIL_TOLERANCE:
            return PhotonStats(moments=moments, probabilities=invert_moments(moments),
                               cutoff_k=cutoff, tail_bound=float(moments[-1]), method=method)
        if final:
            raise TailError(
                f"top binomial moment N_{cutoff} = {moments[-1]:.3e} is still >= "
                f"{TAIL_TOLERANCE:g} at the cutoff cap k = {MAX_CUTOFF} (mean count "
                f"N_1 = {moments[0]:.4g}); the drive is beyond moment inversion")
        return None
    try:
        probs = _complete_distribution(levels, cutoff)
    except CutoffError:
        if final:
            raise
        return None
    return PhotonStats(moments=moments_from_probabilities(probs, cutoff),
                       probabilities=probs, cutoff_k=cutoff,
                       tail_bound=float(max(0.0, 1.0 - probs.sum())), method=method)


def verify_dual(spec: DriveSpec, moments: PhotonStats, rho0=None,
                where: str = "") -> PhotonStats:
    """Jump-counting statistics of ``spec`` from ``rho0`` at the cutoff of ``moments``.

    Raises :class:`NumericalError`, naming ``where``, unless they agree with
    the moment-inversion result ``moments`` componentwise to ``DUAL_TOLERANCE``.
    """
    counting = photon_statistics(spec, "jump-counting", k=moments.cutoff_k, rho0=rho0)
    gap = float(np.max(np.abs(moments.probabilities - counting.probabilities)))
    if gap > DUAL_TOLERANCE:
        raise NumericalError(f"moment-inversion and jump-counting disagree by {gap:.3e}"
                             + (f" at {where}" if where else ""))
    return counting
