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
of exact exponentials whose first block columns hold the level states
(:func:`_pulse_stack`), and a sampled envelope per rung by
:func:`photonstat.propagator.advance` (exact on flat parts, sixth-order
Magnus verified by step halving where it varies, first checks stacked). The
undriven tail from the pulse end to ``t_end`` adds to every level trace in
closed form (:func:`_end_traces`). A row of square pulses (a sweep row) climbs the
cutoff ladder together: one stacked hierarchy per rung over its points still
short of their criterion, settled as arrays. The exact ``P_1`` of
:func:`one_photon_probability` is the k = 1 jump-counting rung of the stack
(:func:`_one_photon`), at per-point widths and tails, so a row of maximizers
evaluates all its probes in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CutoffError, NumericalError, SpecError, TailError, check_integer
from .liouville import (
    GROUND,
    DriveSpec,
    SquarePulse,
    Topology,
    default_window,
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
# N_k < 1e-8 (ROADMAP.md, item 2). A drive whose top moment is still above
# TAIL_TOLERANCE at MAX_CUTOFF raises TailError instead of inverting a
# truncated series.
TAIL_TOLERANCE = 1e-8
MAX_CUTOFF = 16
START_CUTOFF = 4
# Largest explicit cutoff: at k = 256 a 120-point sweep row's kernel work
# buffer (propagator._Work) is about 1.1 GB.
MAX_EXPLICIT_CUTOFF = 256
# Clamping band for roundoff-negative probabilities; also the roundoff allowed
# in a mean count above its bound (see photon_statistics).
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
    (ROADMAP.md, item 2).
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

def _check_cutoff(k) -> None:
    check_integer(k, "k", 1, "cutoff k")
    if k > MAX_EXPLICIT_CUTOFF:
        raise SpecError(f"cutoff k must be at most {MAX_EXPLICIT_CUTOFF}, got k={k!r}")


def _level_traces(specs, k: int, rho0, resolved: bool) -> np.ndarray:
    """Traces of hierarchy levels 0..k at t_end, from ``rho0`` (default
    ``|g><g|``), one row per spec of ``specs``: square pulses of one
    topology, or a single spec of any envelope."""
    _check_cutoff(k)
    if isinstance(specs[0].pulse, SquarePulse):
        T, N, t_end = np.array([(s.pulse.T, s.pulse.N, s.t_end) for s in specs], dtype=float).T
        topology = specs[0].topology
        return _pulse_stack(topology, T, N, _tail_share(topology, t_end - T), k, rho0, resolved)
    (spec,) = specs
    y = np.zeros(4 * (k + 1), dtype=complex)
    y[:4] = vectorize(GROUND if rho0 is None else validate_density(rho0))
    # per-part error budget, the tail counted; endpoint errors propagate
    # non-expansively
    tol = TAIL_TOLERANCE / (len(spec.breakpoints()) - 1)
    # nothing drives the emitter after the pulse end
    stop = min(max(0.0, spec.pulse.end), spec.t_end)
    levels = advance(spec, y, 0.0, stop, tol, resolved).reshape(1, k + 1, 4).real
    return _end_traces(levels[..., 0], levels[..., 3],
                       _tail_share(spec.topology, spec.t_end - stop), resolved)


def _pulse_stack(topology: Topology, T, N, share, k: int, rho0, resolved: bool) -> np.ndarray:
    """:func:`_level_traces` of square pulses on ``topology`` of widths ``T`` (an array,
    or a scalar for all) and photon numbers ``N`` (an array), whose undriven tails
    have the :func:`_tail_share` ``share`` (a column, or a scalar for all): one kernel
    slice per pulse, each row bit for bit the pulse alone."""
    static, drive, jump = real_parts(topology)
    if rho0 is not None:  # complex, as in advance, where a start carries imaginary roundoff in r
        r0 = _TO_R @ vectorize(validate_density(rho0))
        r0 = r0 if r0.imag.any() else r0.real
    amps = np.sqrt(drive_coefficient(topology) * (N / T))
    column = _block_expm((static - jump if resolved else static) + amps[:, None, None] * drive,
                         jump, k, T)
    # level m's state F_m r0 (column 0 for |g><g|) has its populations at entries 0 and 1
    state = (column[..., 0] if rho0 is None else column @ r0).real
    return _end_traces(state[..., 0], state[..., 1], share, resolved)


def _tail_share(topology: Topology, tail):
    """``c = (gamma_mon / gamma) (1 - exp(-gamma tail))`` of :func:`_end_traces` by
    ``math.expm1`` (``np.expm1`` may differ in the last bit): one float for tails
    ``tail`` of one length, else a column of one share per tail."""
    rate = total_decay_rate(topology)
    monitored = real_parts(topology)[2][0, 1]  # J moves gamma_mon rho_ee one level up
    tails = np.ravel(tail)
    if (tails == tails[0]).all():
        return monitored / rate * -math.expm1(-rate * float(tails[0]))
    return np.array([monitored / rate * -math.expm1(-rate * t) for t in tails.tolist()])[:, None]


def _end_traces(ground: np.ndarray, excited: np.ndarray, share, resolved: bool) -> np.ndarray:
    """Traces of the hierarchy levels 0..k (last axis) whose populations are
    ``ground`` and ``excited`` (one row per point) after an undriven tail of
    share ``share`` (see :func:`_tail_share`).

    Every level's excited population decays as ``exp(-gamma t)``, and the
    monitored share ``gamma_mon / gamma`` of that decay feeds the level
    above, so level m gains ``c`` times the excited population of level
    m - 1 and, with ``resolved`` (jump counting), loses ``c`` times its own.
    """
    fed = np.zeros_like(excited)
    fed[..., 1:] = excited[..., :-1]
    return ground + excited + share * (fed - excited if resolved else fed)


def _photons_sent(spec: DriveSpec) -> float:
    """Photons the drive of ``spec`` sends inside its window: ``N`` of a square pulse,
    the trapezoid area inside ``[0, t_end]`` of a sampled envelope (it ends by t_end)."""
    if isinstance(spec.pulse, SquarePulse):
        return spec.pulse.N
    times = np.maximum(spec.pulse.times, 0.0)
    flux = np.interp(times, spec.pulse.times, spec.pulse.values)
    return float(np.sum(0.5 * (flux[1:] + flux[:-1]) * np.diff(times)))


def _clamp_moments(vals: np.ndarray) -> np.ndarray:
    return np.where((vals < 0) & (vals > -NEGATIVE_TOLERANCE), 0.0, vals)


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
    """Count probabilities ``P_0 .. P_n_max`` by jump counting at the fixed cutoff
    ``n_max``, from ``rho0`` (default ``|g><g|``); :class:`CutoffError` when
    more than ``NORMALIZATION_TOLERANCE`` of the probability lies beyond it."""
    _check_cutoff(n_max)  # None too, on which photon_statistics would climb the ladder
    return photon_statistics(spec, "jump-counting", k=n_max, rho0=rho0).probabilities


def _negative_probability(low: float) -> NumericalError:
    return NumericalError(f"probability {low:.3e} below -{NEGATIVE_TOLERANCE}; "
                          "inadequate cutoff or integration error")


def invert_moments(moments) -> np.ndarray:
    """Recover ``P_0 .. P_k`` from binomial moments ``N_1 .. N_k``.

    Uses the inclusion-exclusion inversion
    ``P_n = sum_{m>=n} (-1)^(m-n) C(m, n) N_m`` with ``N_0 = 1``. Values in
    ``[-1e-9, 0)`` are clamped to zero; anything more negative raises.
    """
    moments = np.asarray(moments, dtype=float)
    if moments.ndim != 1 or len(moments) < 1:
        raise SpecError("need at least the first binomial moment")
    if not np.isfinite(moments).all():
        raise SpecError(f"moments must be finite, got {moments.tolist()}")
    probs = _inverted(moments)
    if probs.min() < -NEGATIVE_TOLERANCE:
        raise _negative_probability(probs.min())
    return np.where(probs < 0, 0.0, probs)


def _inverted(moments: np.ndarray) -> np.ndarray:
    """:func:`invert_moments` unclamped, over the last axis (one point per row)."""
    full = np.ones(moments.shape[:-1] + (moments.shape[-1] + 1,))
    full[..., 1:] = moments
    _, signed, lower = _binomials(moments.shape[-1])
    # term (m, n) sits at row m, column n of each point's table
    return _column_sums(np.where(lower, signed * full[..., :, None], 0.0))


def moments_from_probabilities(probs, k: int) -> np.ndarray:
    """Binomial moments ``N_1 .. N_k`` implied by a count distribution (last axis)."""
    probs = np.asarray(probs, dtype=float)
    binom, _, lower = _binomials(max(probs.shape[-1] - 1, k))
    # term (n, m) sits at row n, column m - 1 of each point's table
    rows, cols = slice(probs.shape[-1]), slice(1, k + 1)
    return _column_sums(np.where(lower[rows, cols], binom[rows, cols] * probs[..., None], 0.0))


def _column_sums(terms: np.ndarray) -> np.ndarray:
    """Each column of the tables on the last two axes summed in row order, as a
    left-to-right ``sum`` of the formula's terms would (``accumulate`` is sequential)."""
    if not terms.shape[-2]:
        return np.zeros(terms.shape[:-2] + terms.shape[-1:])
    return np.add.accumulate(terms, axis=-2)[..., -1, :]


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
    if not times:
        raise SpecError("need at least one correlation time")
    if not all(map(math.isfinite, times)):
        raise SpecError(f"correlation times must be finite, got {times}")
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
    return _one_photon(topology, T, _window_share(topology, T), ns)


def _window_share(topology: Topology, T: float) -> float:
    """The :func:`_tail_share` of a square pulse of width ``T`` counted over the default window."""
    return _tail_share(topology, default_window(SquarePulse(T=T, N=0.0), topology) - T)  # checks T


def _one_photon(topology: Topology, T, share, N: np.ndarray) -> np.ndarray:
    """:func:`one_photon_probability` of unchecked square pulses as :func:`_pulse_stack`
    takes them, each window given by its tail's share (see :func:`_window_share`): one
    k = 1 kernel call, none for no photon numbers."""
    return _pulse_stack(topology, T, N, share, 1, None, True)[:, 1] if len(N) else N


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
    respectively :class:`CutoffError`. Moment inversion raises
    :class:`NumericalError` for a mean count ``N_1`` above the photons the
    drive sends inside the window plus the initial excited population, by
    more than ``NEGATIVE_TOLERANCE`` relative to the larger of 1 and that
    bound. A ``rho0`` other than the default ``|g><g|`` is checked by
    ``validate_density``.
    """
    stats = _row_statistics([spec], method, k, rho0)[0]
    if isinstance(stats, NumericalError):
        raise stats
    return stats


def _row_statistics(specs, method: str = "moment-inversion", k: int | list | None = None,
                   rho0=None) -> list:
    """:func:`photon_statistics` of every spec of a row: square pulses of one
    topology (a sweep row), or one spec of any envelope. Entry i is the
    :class:`PhotonStats` of ``specs[i]`` or the :class:`NumericalError` it
    raised, bit for bit what ``photon_statistics(specs[i], ...)`` gives.

    Each rung of the cutoff ladder (for ``k`` a list of per-spec cutoffs: their
    distinct values, each final for its points) is one stacked hierarchy over
    the pending points at it, settled as arrays; a rung that no point leaves stops after its
    criterion, and Python only builds the result of each point that leaves.
    Moment inversion inverts a point that meets its criterion
    (top moment below ``TAIL_TOLERANCE``, or any at a fixed ``k``), which may
    then fail the negative-probability check or the mean-count bound (see
    :func:`photon_statistics`), and raises :class:`TailError` for one short
    of it at the last rung. Jump counting runs the negative-probability check
    at every rung, and raises :class:`CutoffError` for a point missing more
    than ``NORMALIZATION_TOLERANCE`` at the last rung.
    """
    if method not in ("moment-inversion", "jump-counting"):
        raise SpecError(f"unknown method {method!r}")
    inverting = method == "moment-inversion"
    cutoffs = k if k is None or isinstance(k, list) else [k] * len(specs)
    for cutoff in cutoffs or ():
        _check_cutoff(cutoff)
    ladder = range(START_CUTOFF, MAX_CUTOFF + 1, 2) if k is None else sorted(set(cutoffs))
    if inverting:  # every monitored photon is an incident photon or the initial excitation
        excited = 0.0 if rho0 is None else validate_density(rho0)[1, 1].real
        bound = [_photons_sent(spec) + excited for spec in specs]
    out: list = [None] * len(specs)
    pending = list(range(len(specs)))
    for cutoff in ladder:
        rung = pending if k is None else [i for i in pending if cutoffs[i] == cutoff]
        if not rung:
            continue
        final = k is not None or cutoff == ladder[-1]
        traces = _level_traces([specs[i] for i in rung], cutoff, rho0, resolved=not inverting)
        if inverting:
            # clamping takes no top moment across TAIL_TOLERANCE
            met = traces[:, -1] < TAIL_TOLERANCE if k is None else np.ones(len(traces), bool)
            leaving = range(len(met)) if final else met.nonzero()[0]
            if not len(leaving):  # every point climbs
                continue
            moments = _clamp_moments(traces[:, 1:])
            tails = moments[:, -1]
            probs = _inverted(moments)  # every row: selecting costs more
            low = np.where(met, probs.min(axis=1), 0.0)  # only a settling point is checked
            probs = np.where(probs < 0, 0.0, probs)
        else:
            low = traces.min(axis=1)
            probs = np.where(traces < 0, 0.0, traces)
            missing = 1.0 - probs.sum(axis=1)
            met = ~(missing > NORMALIZATION_TOLERANCE)
            leaving = (range(len(met)) if final
                       else (met | (low < -NEGATIVE_TOLERANCE)).nonzero()[0])
            if not len(leaving):
                continue
            moments = moments_from_probabilities(probs, cutoff)  # every row: selecting costs more
            tails = np.where(missing > 0.0, missing, 0.0)
        for j in leaving:
            i = rung[j]
            if low[j] < -NEGATIVE_TOLERANCE:
                out[i] = _negative_probability(low[j])
            elif inverting and met[j] and (moments[j, 0] - bound[i]
                                           > NEGATIVE_TOLERANCE * max(1.0, bound[i])):
                out[i] = NumericalError(
                    f"mean count N_1 = {moments[j, 0]:.10g} exceeds its bound {bound[i]:.10g} "
                    f"(photons sent plus initial excitation) at T={specs[i].pulse.end:.6g}; "
                    "the pulse is beyond the accuracy of moment inversion")
            elif met[j]:
                out[i] = PhotonStats(moments[j], probs[j], cutoff, float(tails[j]), method)
            elif inverting:
                out[i] = TailError(
                    f"top binomial moment N_{cutoff} = {tails[j]:.3e} is still >= "
                    f"{TAIL_TOLERANCE:g} at the cutoff cap k = {MAX_CUTOFF} (mean count "
                    f"N_1 = {moments[j, 0]:.4g}); the drive is beyond moment inversion")
            else:
                out[i] = CutoffError(f"probability {missing[j]:.3e} lies beyond "
                                     f"n_max={cutoff}; insufficient n_max")
        pending = [i for i in pending if out[i] is None]
    return out


def verify_dual(specs, moments, rho0=None, where=None) -> list:
    """Jump-counting statistics of the row ``specs`` from ``rho0`` at the cutoffs of
    their moment-inversion results ``moments``, as one pass of the cutoff ladder.

    Raises, in point order, each point's counting error or a :class:`NumericalError`
    naming its entry of ``where`` unless the routes agree componentwise to ``DUAL_TOLERANCE``."""
    counted = _row_statistics(specs, "jump-counting", [m.cutoff_k for m in moments], rho0)
    for stats, counting, at in zip(moments, counted, where or [""] * len(specs)):
        if isinstance(counting, NumericalError):
            raise counting
        gap = float(np.max(np.abs(stats.probabilities - counting.probabilities)))
        if gap > DUAL_TOLERANCE:
            raise NumericalError(f"moment-inversion and jump-counting disagree by {gap:.3e}"
                                 + (f" at {at}" if at else ""))
    return counted
