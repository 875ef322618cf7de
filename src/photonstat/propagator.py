"""Master-equation propagation over the counting window.

One routine, :func:`advance`, moves a hierarchy state across a time span
split at the envelope breakpoints. Square pulses make the Liouvillian
piecewise constant, so each constant-drive interval is one exact matrix
exponential of the block generator. Sampled envelopes are integrated part
by part with classical fourth-order Runge-Kutta, with a halved-step
Richardson check refining until the local difference is below tolerance.
The propagator of the master equation is the zeroth hierarchy level
advanced from the identity.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from .errors import ConvergenceError, SpecError
from .liouville import (
    DriveSpec,
    build_liouvillian,
    constant_intervals,
    devectorize,
    drive_coefficient,
    liouvillian_parts,
    vectorize,
)

__all__ = ["evolve_state", "propagator_between", "validate_density", "advance"]

# Step-halving tolerance of each sampled-envelope part of a propagator span.
RK_TOLERANCE = 1e-9
# Trace drift above which a state is renormalized after a segment.
TRACE_DRIFT = 1e-12


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


def _graded_map(pulse, t0: float, t1: float):
    """Map s in [0, 1] onto [t0, t1], graded quadratically toward a flux zero.

    The drive amplitude is the square root of the (piecewise linear) flux,
    so an envelope onset or tail-off has infinite slope in t and degrades
    Runge-Kutta convergence; t = t0 + L s^2 makes the amplitude linear in s
    again. Returns (t_of_s, weight_of_s) with weight = dt/ds.
    """
    length = t1 - t0
    mid = pulse.flux(t0 + 0.5 * length)
    # the flux is linear across a part, so the one-sided edge values follow
    # exactly from two interior samples
    slope = (pulse.flux(t0 + 0.75 * length) - mid) / (0.25 * length)
    fa = mid - 0.5 * slope * length
    fb = mid + 0.5 * slope * length
    tiny = 1e-9 * (abs(mid) + 1.0)
    if fa <= tiny and fb > tiny:
        return (lambda s: t0 + length * s * s,
                lambda s: 2.0 * length * s)
    if fb <= tiny and fa > tiny:
        return (lambda s: t1 - length * (1.0 - s) * (1.0 - s),
                lambda s: 2.0 * length * (1.0 - s))
    return (lambda s: t0 + length * s, lambda s: length)


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


def _rk4(spec: DriveSpec, terms: tuple, rows: np.ndarray, t0: float, t1: float,
         n_sub: int) -> np.ndarray:
    """One RK4 pass over [t0, t1] with n_sub substeps on row-vector states.

    ``rows`` holds vectorized states as rows, so the generator acts from
    the right through the transposed ``terms = (static, drive, feed)``; with
    a feed the rows are hierarchy levels and each row also receives the
    previous one through it. Integrates in the graded variable of
    :func:`_graded_map`, which absorbs the square-root envelope onset that
    would otherwise spoil fourth-order convergence.
    """
    # Envelope discontinuities sit on part edges; evaluating at times
    # nudged into the open interval picks the correct one-sided limit.
    eps = 1e-9 * (t1 - t0)
    static_t, drive_t, feed_t = terms
    coef = drive_coefficient(spec.topology)
    flux = spec.pulse.flux
    t_of_s, weight = _graded_map(spec.pulse, t0, t1)

    def rhs(s, levels):
        f = flux(min(max(t_of_s(s), t0 + eps), t1 - eps))
        if f < 0:
            raise SpecError(f"drive flux must be non-negative, got N_in = {f}")
        out = levels @ (static_t + math.sqrt(coef * f) * drive_t)
        if feed_t is not None:
            out[1:] += levels[:-1] @ feed_t
        return weight(s) * out

    h = 1.0 / n_sub
    y = rows
    for i in range(n_sub):
        s = i * h
        k1 = rhs(s, y)
        k2 = rhs(s + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(s + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(s + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def _integrate_part(spec: DriveSpec, terms: tuple, rows: np.ndarray, t0: float,
                    t1: float, tol: float) -> np.ndarray:
    """Advance ``rows`` over one smooth part [t0, t1] of a sampled envelope.

    Fixed-step RK4 with the step bounded by (||L|| + 1) h <= 0.1, verified
    by a halved-step Richardson check; on failure the step count jumps to
    the resolution predicted by fourth-order convergence before re-checking.
    """
    n = max(1, int(np.ceil(
        (t1 - t0) * (np.linalg.norm(build_liouvillian(spec, 0.5 * (t0 + t1)), 1) + 1.0)
        / 0.1)))
    coarse = _rk4(spec, terms, rows, t0, t1, n)
    for _ in range(17):
        fine = _rk4(spec, terms, rows, t0, t1, 2 * n)
        err = np.max(np.abs(fine - coarse))
        if err <= tol:
            return fine
        # square-root envelope onsets converge slower and re-boost
        boost = max(2.0, min(64.0, (err / tol) ** 0.25))
        n = int(np.ceil(n * boost))
        coarse = _rk4(spec, terms, rows, t0, t1, n)
    raise ConvergenceError(
        f"part [{t0}, {t1}] did not converge to {tol} under step halving")


def advance(spec: DriveSpec, y: np.ndarray, t0: float, t1: float, tol: float,
            njump: np.ndarray | None = None, resolved: bool = False) -> np.ndarray:
    """Advance a hierarchy state from ``t0`` to ``t1``.

    The hierarchy is ``d y_j / dt = D(t) y_j + njump y_{j-1}`` with
    ``D = L`` (moments), or ``D = L - njump`` when ``resolved`` (jump
    counting). ``y`` is either one stacked state, levels 0..k of length
    ``4(k+1)``, or, without ``njump``, a 4x4 matrix whose columns are
    level-0 states. Sampled-envelope parts between breakpoints are each
    converged to ``tol``; constant-drive intervals are exact.
    """
    k = len(y) // 4 - 1
    pieces = constant_intervals(spec)
    if pieces is not None:
        for lo, hi, gen in pieces:
            a, b = max(lo, t0), min(hi, t1)
            if b > a:
                diag = gen - njump if resolved else gen
                y = hierarchy_exponential(diag, njump, k, b - a) @ y
        return y

    static, drive = liouvillian_parts(spec.topology)
    terms = ((static - njump if resolved else static).T.copy(), drive.T.copy(),
             None if njump is None else njump.T)
    rows = y.T if y.ndim == 2 else y.reshape(k + 1, 4)
    edges = [t0, *(e for e in spec.breakpoints() if t0 < e < t1), t1]
    for a, b in zip(edges, edges[1:]):
        if b > a:
            rows = _integrate_part(spec, terms, rows, a, b, tol)
    return rows.T if y.ndim == 2 else rows.reshape(-1)


def propagator_between(spec: DriveSpec, t0: float, t1: float) -> np.ndarray:
    """Superoperator mapping the state at ``t0`` to the state at ``t1``."""
    if t1 < t0:
        raise SpecError(f"require t0 <= t1, got t0={t0}, t1={t1}")
    if t0 < 0 or t1 > spec.t_end:
        raise SpecError(f"[{t0}, {t1}] outside the counting window [0, {spec.t_end}]")
    return advance(spec, np.eye(4, dtype=complex), t0, t1, RK_TOLERANCE)


def evolve_state(spec: DriveSpec, rho0, t0: float, t1: float) -> np.ndarray:
    """Solve the master equation from ``rho0`` at ``t0`` to time ``t1``."""
    rho0 = validate_density(rho0)
    prop = propagator_between(spec, t0, t1)
    return _restore(devectorize(prop @ vectorize(rho0)))
