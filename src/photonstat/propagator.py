"""Master-equation propagation over the counting window.

One routine, :func:`advance`, moves a hierarchy state across a time span
split at the envelope breakpoints (:func:`photonstat.liouville.drive_intervals`).
Where the flux is constant (square pulses, flat tops and rectangles of
sampled envelopes, the undriven tail) the generator is constant, so the
interval is one exact, cached matrix exponential of the block generator.
Where a sampled envelope varies, the part is integrated with the
fourth-order commutator-free Magnus scheme CF4 (two exponentials per step),
with a halved-step Richardson check refining until the difference is below
tolerance. The propagator of the master equation is the zeroth hierarchy
level advanced from the identity.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from .errors import ConvergenceError, SpecError
from .liouville import (
    DriveSpec,
    devectorize,
    drive_coefficient,
    drive_intervals,
    liouvillian_parts,
    vectorize,
)

__all__ = ["evolve_state", "propagator_between", "validate_density", "advance"]

# Step-halving tolerance of each sampled-envelope part of a propagator span.
STEP_TOLERANCE = 1e-9
# Trace drift above which a state is renormalized after a segment.
TRACE_DRIFT = 1e-12
# Gauss-Legendre nodes of a step and the exponent weights of the
# commutator-free fourth-order Magnus scheme (Blanes & Moan, Appl. Numer.
# Math. 56, 1519 (2006)): row j weighs the generator at the two nodes in the
# j-th of the step's two exponentials, applied in row order.
_CF4_NODES = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
_CF4_WEIGHTS = np.array([[0.25 + math.sqrt(3.0) / 6.0, 0.25 - math.sqrt(3.0) / 6.0],
                         [0.25 - math.sqrt(3.0) / 6.0, 0.25 + math.sqrt(3.0) / 6.0]])
# Steps whose exponentials are one stacked scipy call. A larger stack saves
# little time (scipy still loops over the slices) but raises peak memory.
_STACK_STEPS = 4
# First-pass step count per sqrt(V) tol^(-1/4) (see _integrate_part); at
# this value the first halved-step check passes on most parts of 1-3 knot
# envelopes, and below ~0.1 most parts need a second round.
_FIRST_STEPS = 0.12
# End-flux ratio below which a linear-flux part is graded (see _graded_drive).
_GRADE_RATIO = 1e-3


def validate_density(rho) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a 2x2 state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise SpecError(f"density matrix must be 2x2, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        raise SpecError("density matrix is not Hermitian to 1e-12")
    if abs(rho.trace() - 1.0) > 1e-10:
        raise SpecError(f"density matrix trace {rho.trace():.3g} is not 1 to 1e-10")
    if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -1e-9:
        raise SpecError("density matrix has an eigenvalue below -1e-9")
    return rho


def _restore(rho: np.ndarray) -> np.ndarray:
    """Re-Hermitize and, if the trace drifted, renormalize."""
    rho = 0.5 * (rho + rho.conj().T)
    tr = rho.trace().real
    if abs(tr - 1.0) > TRACE_DRIFT:
        rho = rho / tr
    return rho


@lru_cache(maxsize=32)
def _expm_cached(key: bytes, dim: int, dt: float) -> np.ndarray:
    gen = np.frombuffer(key, dtype=complex).reshape(dim, dim)
    out = expm(gen * dt)
    out.setflags(write=False)
    return out


def expm_interval(gen: np.ndarray, dt: float) -> np.ndarray:
    """Cached ``expm(gen * dt)``; callers must not mutate the result."""
    return _expm_cached(gen.tobytes(), gen.shape[0], float(dt))


def _hierarchy_blocks(diag: np.ndarray, feed: np.ndarray | None, k: int) -> np.ndarray:
    """Block lower-bidiagonal generator of levels 0..k, broadcast over the
    leading axes of ``diag`` (shape ``(..., 4, 4)``)."""
    dim = 4 * (k + 1)
    big = np.zeros(diag.shape[:-2] + (dim, dim), dtype=complex)
    for j in range(k + 1):
        big[..., 4 * j:4 * j + 4, 4 * j:4 * j + 4] = diag
        if j:
            big[..., 4 * j:4 * j + 4, 4 * j - 4:4 * j] = feed
    return big


def hierarchy_exponential(diag: np.ndarray, feed: np.ndarray | None, k: int,
                          dt: float) -> np.ndarray:
    """Exponential over ``dt`` of the hierarchy generator of levels 0..k.

    One 4x4 ``diag`` gives one cached exponential (see :func:`expm_interval`);
    a stack of shape ``(n, 4, 4)`` gives ``n`` exponentials from one scipy
    call, each slice computed exactly as if it were alone.
    """
    gen = _hierarchy_blocks(diag, feed, k)
    if gen.ndim == 2:
        return expm_interval(gen, dt)
    return expm(gen * dt)


def _graded_drive(spec: DriveSpec, t0: float, t1: float, s: np.ndarray):
    """Drive amplitude and ``dt/ds`` at ``s`` in [0, 1] on the linear-flux part [t0, t1].

    The variable is graded quadratically toward an end whose flux is below
    ``_GRADE_RATIO`` of the other's. The drive amplitude is the square root
    of the flux, so a fall to zero or near-zero flux has an (almost) infinite
    slope in t and degrades a fourth-order method; t = t0 + L s^2 makes the
    amplitude smooth in s again.
    """
    length = t1 - t0
    flux = spec.pulse.flux
    mid = flux(t0 + 0.5 * length)
    # the flux is linear across a part, so the one-sided edge values follow
    # exactly from two interior samples
    slope = (flux(t0 + 0.75 * length) - mid) / (0.25 * length)
    fa = mid - 0.5 * slope * length
    fb = mid + 0.5 * slope * length
    if min(fa, fb) < -1e-9 * (abs(mid) + 1.0):
        raise SpecError(f"drive flux must be non-negative, got N_in = {min(fa, fb)}")
    if fa < _GRADE_RATIO * fb:
        u, du = s * s, 2.0 * s
    elif fb < _GRADE_RATIO * fa:
        u, du = 1.0 - (1.0 - s) ** 2, 2.0 * (1.0 - s)
    else:
        u, du = s, np.ones_like(s)
    amp = np.sqrt(drive_coefficient(spec.topology) * np.maximum(fa + (fb - fa) * u, 0.0))
    return amp, length * du


def _cf4(spec: DriveSpec, base: np.ndarray, njump: np.ndarray | None, y: np.ndarray,
         t0: float, t1: float, n: int) -> np.ndarray:
    """One pass of ``n`` CF4 steps over the linear-flux part [t0, t1].

    Steps are uniform in the graded variable s of :func:`_graded_drive`,
    where the generator is ``B(s) = w(s) (base + amp(s) drive)`` on every
    level plus ``w(s) njump`` feeding each level from the one below. A
    step applies ``exp(h sum_m a_jm B(s_m))`` for j = 1, 2 at its two
    Gauss nodes s_m. Each exponent keeps hierarchy form, so every
    exponential is one slice of :func:`hierarchy_exponential`.
    """
    k = len(y) // 4 - 1
    _, drive = liouvillian_parts(spec.topology)
    amp, w = _graded_drive(spec, t0, t1, (np.arange(n)[:, None] + _CF4_NODES) / n)
    # exponent j of step i is p_ij base + q_ij drive, fed by p_ij njump
    p = (w @ _CF4_WEIGHTS.T).reshape(-1, 1, 1)
    q = ((w * amp) @ _CF4_WEIGHTS.T).reshape(-1, 1, 1)
    diag = p * base + q * drive
    feed = None if njump is None else p * njump
    size = 2 * _STACK_STEPS
    for lo in range(0, 2 * n, size):
        stack = hierarchy_exponential(diag[lo:lo + size],
                                      None if feed is None else feed[lo:lo + size], k, 1.0 / n)
        for exp_j in stack:
            y = exp_j @ y
    return y


def _integrate_part(spec: DriveSpec, base: np.ndarray, njump: np.ndarray | None,
                    y: np.ndarray, t0: float, t1: float, tol: float) -> np.ndarray:
    """Advance ``y`` over one linear-flux part [t0, t1] of a sampled envelope.

    CF4 verified by a halved-step Richardson check; on failure the step
    count jumps to the resolution predicted by fourth-order convergence
    before re-checking. CF4 is exact for a constant generator, and its
    error grows as h^4 times the square of the change V of the graded
    generator across the part, so the first pass takes
    ``_FIRST_STEPS * sqrt(V) * tol**(-1/4)`` steps.
    """
    _, drive = liouvillian_parts(spec.topology)
    amp, w = _graded_drive(spec, t0, t1, np.array([0.0, 1.0]))
    change = w[1] * (base + amp[1] * drive) - w[0] * (base + amp[0] * drive)
    n = max(1, int(np.ceil(_FIRST_STEPS * math.sqrt(np.linalg.norm(change, 1)) * tol ** -0.25)))
    coarse = _cf4(spec, base, njump, y, t0, t1, n)
    for _ in range(17):
        fine = _cf4(spec, base, njump, y, t0, t1, 2 * n)
        err = np.max(np.abs(fine - coarse))
        if err <= tol:
            return fine
        # square-root envelope onsets converge slower and re-boost
        boost = max(2.0, min(64.0, (err / tol) ** 0.25))
        n, doubled = int(np.ceil(n * boost)), 2 * n
        # a boost of exactly 2 makes the fine pass the next coarse one
        coarse = fine if n == doubled else _cf4(spec, base, njump, y, t0, t1, n)
    raise ConvergenceError(
        f"part [{t0}, {t1}] did not converge to {tol} under step halving")


def advance(spec: DriveSpec, y: np.ndarray, t0: float, t1: float, tol: float,
            njump: np.ndarray | None = None, resolved: bool = False) -> np.ndarray:
    """Advance a hierarchy state from ``t0`` to ``t1``.

    The hierarchy is ``d y_j / dt = D(t) y_j + njump y_{j-1}`` with
    ``D = L`` (moments), or ``D = L - njump`` when ``resolved`` (jump
    counting). ``y`` is either one stacked state, levels 0..k of length
    ``4(k+1)``, or, without ``njump``, a 4x4 matrix whose columns are
    level-0 states. Each constant-flux interval of the window is one exact
    exponential; each linear-flux part is converged to ``tol``.
    """
    k = len(y) // 4 - 1
    static, _ = liouvillian_parts(spec.topology)
    for lo, hi, gen in drive_intervals(spec):
        a, b = max(lo, t0), min(hi, t1)
        if b <= a:
            continue
        if gen is not None:
            diag = gen - njump if resolved else gen
            y = hierarchy_exponential(diag, njump, k, b - a) @ y
        else:
            base = static - njump if resolved else static
            y = _integrate_part(spec, base, njump, y, a, b, tol)
    return y


def propagator_between(spec: DriveSpec, t0: float, t1: float) -> np.ndarray:
    """Superoperator mapping the state at ``t0`` to the state at ``t1``."""
    if t1 < t0:
        raise SpecError(f"require t0 <= t1, got t0={t0}, t1={t1}")
    if t0 < 0 or t1 > spec.t_end:
        raise SpecError(f"[{t0}, {t1}] outside the counting window [0, {spec.t_end}]")
    return advance(spec, np.eye(4, dtype=complex), t0, t1, STEP_TOLERANCE)


def evolve_state(spec: DriveSpec, rho0, t0: float, t1: float) -> np.ndarray:
    """Solve the master equation from ``rho0`` at ``t0`` to time ``t1``."""
    rho0 = validate_density(rho0)
    prop = propagator_between(spec, t0, t1)
    return _restore(devectorize(prop @ vectorize(rho0)))
