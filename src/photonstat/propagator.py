"""Master-equation propagation over the counting window.

One routine, :func:`advance`, moves a hierarchy state of one drive across a
time span split at the envelope breakpoints (:func:`photonstat.liouville.drive_intervals`).
Where the flux is constant (square pulses, flat tops and rectangles of
sampled envelopes, the undriven tail) the generator is constant, so the
interval is one exact matrix exponential of the block generator, formed
from the interval's drive amplitude as ``static + amplitude * drive``.
Where a sampled envelope varies, the part is integrated with the
fourth-order commutator-free Magnus scheme CF4 (two exponentials per
step), with a halved-step Richardson check refining until the difference
is below tolerance. The counting routes of :mod:`photonstat.counting`
stack square pulses of any widths into one exponential call of their own
and add the undriven tail in closed form. The propagator of the master
equation over any part of the window (:func:`propagator_between`) is the
zeroth hierarchy level advanced from the identity.

States and superoperators are column-stacked (:func:`photonstat.liouville.vectorize`)
at the boundary of :func:`advance`, but propagated in the Hermitian
coordinates r = (rho_gg, rho_ee, Re rho_eg, Im rho_eg). Every generator,
drive term and jump superoperator of the model preserves Hermiticity, so in
r it is real and every hierarchy exponential is taken in float64.

Every exponential is one of the hierarchy generator, block lower-bidiagonal
with equal blocks, so it is block lower-triangular Toeplitz (Van Loan, IEEE
TAC 23, 395 (1978)) and fixed by its first block column. :func:`_block_expm`
computes that column by truncated-Taylor scaling and squaring (Higham,
SIAM J. Matrix Anal. Appl. 26, 1179 (2005)) in the algebra of 4x4 matrix
polynomials truncated at level k, so a product costs one ``4 x 4(k+1)`` by
``4(k+1) x 4(k+1)`` matrix product instead of a dense ``4(k+1)``-cube one.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, SpecError
from .liouville import (
    DriveSpec,
    Topology,
    _monitored_jump,
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
# Steps whose exponentials are one stacked kernel call. Results do not
# depend on it; a call has a fixed cost of ~30 small numpy operations,
# and peak memory grows by ~0.15 MB per step at k = 16.
_STACK_STEPS = 16
# First-pass step count per sqrt(V) tol^(-1/4) (see _integrate_part); at
# this value the first halved-step check passes on most parts of 1-3 knot
# envelopes, and below ~0.1 most parts need a second round.
_FIRST_STEPS = 0.12
# End-flux ratio below which a linear-flux part is graded (see _graded_drive).
_GRADE_RATIO = 1e-3
# Change of basis from the column-stacked vector (rho_gg, rho_eg, rho_ge,
# rho_ee) to r = (rho_gg, rho_ee, Re rho_eg, Im rho_eg), and back.
_TO_R = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0.5, 0.5, 0], [0, -0.5j, 0.5j, 0]])
_FROM_R = np.array([[1, 0, 0, 0], [0, 0, 1, 1j], [0, 0, 1, -1j], [0, 1, 0, 0]])


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


def _real(op: np.ndarray) -> np.ndarray:
    """A Hermiticity-preserving superoperator, or a stack of them, in r as float64."""
    return (_TO_R @ op @ _FROM_R).real


@lru_cache(maxsize=64)
def real_parts(topology: Topology) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two :func:`liouvillian_parts` of ``topology`` and its monitored
    jump superoperator, in r (read-only float64)."""
    static, drive = liouvillian_parts(topology)
    parts = tuple(_real(op) for op in (static, drive, _monitored_jump(topology)))
    for op in parts:
        op.setflags(write=False)
    return parts


def _rebase(u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``u`` applied to every level of states ``y`` of shape ``(..., 4(k+1), m)``."""
    return (u @ y.reshape(y.shape[:-2] + (-1, 4, y.shape[-1]))).reshape(y.shape)


# Taylor degrees of the kernel, 4 r - 1 for r = 1..5: the polynomial is
# evaluated as r blocks of _POWERS powers, Horner-combined in X^_POWERS
# (Paterson-Stockmeyer). Degree m is used on a scaled 1-norm up to theta_m,
# where the remainder bound theta^(m+1)/(m+1)! of the series reaches 2^-53.
_POWERS = 4
_DEGREES = tuple(range(_POWERS - 1, 20, _POWERS))
_THETA = tuple((math.factorial(m + 1) * 2.0 ** -53) ** (1.0 / (m + 1)) for m in _DEGREES)
# Taylor coefficient of X^(4 b + j) at [degree index, b, j]; zero above the degree
_COEFFICIENTS = np.array([[1.0 / math.factorial(j) if j <= m else 0.0 for j in range(20)]
                          for m in _DEGREES]).reshape(len(_DEGREES), -1, _POWERS)
_EYE = np.eye(4)


def _scaling_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rising 1-norm capacities, the (degree index, squarings) of each, and
    the scale factor ``2^-squarings``.

    A Horner step in X^4 is one product and one sum; a squaring is one
    product, one Toeplitz copy and one masked copy. Counting a squaring as
    1.5 steps, degree index i with s squarings costs ``2 i + 3 s``, and the
    entry picked for a norm is the cheapest whose capacity ``theta_m 2^s``
    covers it. Larger norms and NaN take the last entry.
    """
    options = sorted((2 * i + 3 * s, -theta * 2.0 ** s, i, s)
                     for i, theta in enumerate(_THETA) for s in range(64))
    table = []
    for _, capacity, i, s in options:
        if not table or -capacity > table[-1][0]:
            table.append((-capacity, i, s))
    table += [(math.inf, i, s), (math.nan, i, s)]
    capacity, degree, squarings = (np.array(col) for col in zip(*table))
    return capacity, np.array([degree, squarings]), np.ldexp(1.0, -squarings)


_CAPACITY, _CHOICE, _SCALE = _scaling_table()


def _toeplitz(buf: np.ndarray, k: int) -> np.ndarray:
    """The ``(n, 4(k+1), 4(k+1))`` matrices whose block row p is columns
    ``4(k-p) .. 4(2k-p)+3`` of the rows ``buf`` (shape ``(n, 4, 4(2k+1))``,
    C-contiguous): with ``buf = [0 ... 0, F_0, ..., F_k]`` block (p, m) is
    F_(m-p), and with ``buf = [F_k, ..., F_0, 0 ... 0]`` block (i, j) is F_(i-j)."""
    s0, s1, s2 = buf.strides
    window = np.ndarray((len(buf), k + 1, 4, 4 * k + 4), buf.dtype, buf, 4 * k * s2,
                        (s0, -4 * s2, s1, s2))
    return window.reshape(len(buf), 4 * k + 4, 4 * k + 4)


def _block_expm(diag: np.ndarray, feed: np.ndarray, k: int, dt) -> np.ndarray:
    """Exponential over ``dt`` of the hierarchy generator with diagonal blocks
    ``diag`` (shape ``(..., 4, 4)``) and feed ``feed``, levels 0..k, as a dense
    block lower-triangular matrix. ``dt`` is one time step, or one per slice.

    A polynomial in the generator is kept as the row ``[F_0 ... F_k]`` of its
    first block column; a product with another is that row times the
    other's :func:`_toeplitz` matrix. Each slice picks its Taylor degree and
    scaling from its own 1-norm ``max col-sum(|D| + |J|) dt``. A slice of
    lower degree has zero coefficients in the higher blocks and one of fewer
    squarings is masked out of the later ones, so every slice comes out bit
    for bit as alone.
    """
    D = diag.reshape(-1, 4, 4)
    n, d, w = len(D), 4 * k + 4, 8 * k + 4
    # elementwise sums keep the norm, and so the choice, independent of the stack
    a = np.abs(D) + np.abs(feed)
    a = a[:, :2] + a[:, 2:]
    pick = np.searchsorted(_CAPACITY, (a[:, 0] + a[:, 1]).max(-1) * dt)
    degree, squarings = _CHOICE[:, pick]
    # padded rows [0 ... 0, Y_0, ..., Y_k] of Y = I, X, X^2, X^3 for the
    # scaled generator X = (D + J eps) dt 2^-s
    P = np.zeros((_POWERS, n, 4, w))
    P[0, :, :, 4 * k:4 * k + 4] = _EYE
    P[1, :, :, 4 * k:4 * k + 4] = D
    if k:
        P[1, :, :, 4 * k + 4:4 * k + 8] = feed
    P[1] *= (dt * _SCALE[pick])[:, None, None]
    step = _toeplitz(P[1], k)
    for j in range(2, _POWERS):
        np.matmul(P[j - 1, :, :, 4 * k:], step, out=P[j, :, :, 4 * k:])
    blocks = int(degree.max()) + 1
    terms = _COEFFICIENTS[degree, :blocks] @ P.reshape(_POWERS, n, -1).transpose(1, 0, 2)
    terms = terms.reshape(n, blocks, 4, w)[..., 4 * k:]
    # Horner in X^4 over the blocks, into the padded row E of P[1]
    E = P[1]
    out = terms[:, -1]
    if blocks > 1:
        np.matmul(P[-1, :, :, 4 * k:], step, out=E[:, :, 4 * k:])
        step = _toeplitz(E, k)
        for b in range(blocks - 2, -1, -1):
            out = out @ step
            out += terms[:, b]
    E[:, :, 4 * k:] = out
    fewest = squarings.min()
    for j in range(int(squarings.max())):
        np.copyto(E[:, :, 4 * k:], E[:, :, 4 * k:] @ _toeplitz(E, k),
                  where=True if j < fewest else (squarings > j)[:, None, None])
    # the dense matrix reads the row reversed blockwise
    rev = np.zeros_like(E)
    rev[:, :, :d].reshape(n, 4, k + 1, 4)[:] = E[:, :, 4 * k:].reshape(n, 4, k + 1, 4)[:, :, ::-1]
    return _toeplitz(rev, k).reshape(diag.shape[:-2] + (d, d))


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


def _cf4(spec: DriveSpec, base: np.ndarray, y: np.ndarray, t0: float, t1: float,
         n: int) -> np.ndarray:
    """One pass of ``n`` CF4 steps over the linear-flux part [t0, t1].

    Steps are uniform in the graded variable s of :func:`_graded_drive`,
    where the generator is ``B(s) = w(s) (base + amp(s) drive)`` on every
    level plus ``w(s) J``, with ``J = jump_superop(spec)``, feeding each
    level from the one below. A step applies ``exp(h sum_m a_jm B(s_m))``
    for j = 1, 2 at its two Gauss nodes s_m. Each exponent keeps hierarchy
    form, so every exponential is one slice of :func:`_block_expm`.
    ``base``, ``drive``, ``J`` and ``y`` are in r (see :func:`real_parts`).
    """
    k = len(y) // 4 - 1
    _, drive, jump = real_parts(spec.topology)
    amp, w = _graded_drive(spec, t0, t1, (np.arange(n)[:, None] + _CF4_NODES) / n)
    # exponent j of step i is p_ij base + q_ij drive, fed by p_ij J
    p = (w @ _CF4_WEIGHTS.T).reshape(-1, 1, 1)
    q = ((w * amp) @ _CF4_WEIGHTS.T).reshape(-1, 1, 1)
    diag = p * base + q * drive
    feed = p * jump
    size = 2 * _STACK_STEPS
    for lo in range(0, 2 * n, size):
        stack = _block_expm(diag[lo:lo + size], feed[lo:lo + size], k, 1.0 / n)
        for exp_j in stack:
            y = exp_j @ y
    return y


def _integrate_part(spec: DriveSpec, base: np.ndarray, y: np.ndarray, t0: float,
                    t1: float, tol: float) -> np.ndarray:
    """Advance ``y`` over one linear-flux part [t0, t1] of a sampled envelope.

    CF4 verified by a halved-step Richardson check; on failure the step
    count jumps to the resolution predicted by fourth-order convergence
    before re-checking. CF4 is exact for a constant generator, and its
    error grows as h^4 times the square of the change V of the graded
    generator across the part, so the first pass takes
    ``_FIRST_STEPS * sqrt(V) * tol**(-1/4)`` steps. ``base`` and ``y`` (shape
    ``(4(k+1), m)``) are in r; V and the check are measured on the
    column-stacked components.
    """
    _, drive, _ = real_parts(spec.topology)
    amp, w = _graded_drive(spec, t0, t1, np.array([0.0, 1.0]))
    change = w[1] * (base + amp[1] * drive) - w[0] * (base + amp[0] * drive)
    change = _FROM_R @ change @ _TO_R
    n = max(1, int(np.ceil(_FIRST_STEPS * math.sqrt(np.linalg.norm(change, 1)) * tol ** -0.25)))
    coarse = _cf4(spec, base, y, t0, t1, n)
    for _ in range(17):
        fine = _cf4(spec, base, y, t0, t1, 2 * n)
        err = np.max(np.abs(_rebase(_FROM_R, fine - coarse)))
        if err <= tol:
            return fine
        # square-root envelope onsets converge slower and re-boost
        boost = max(2.0, min(64.0, (err / tol) ** 0.25))
        n, doubled = int(np.ceil(n * boost)), 2 * n
        # a boost of exactly 2 makes the fine pass the next coarse one
        coarse = fine if n == doubled else _cf4(spec, base, y, t0, t1, n)
    raise ConvergenceError(
        f"part [{t0}, {t1}] did not converge to {tol} under step halving")


def advance(spec: DriveSpec, y: np.ndarray, t0: float, t1: float, tol: float,
            resolved: bool = False) -> np.ndarray:
    """Advance a hierarchy state from ``t0`` to ``t1``.

    The hierarchy is ``d y_j / dt = D(t) y_j + J y_{j-1}`` with
    ``J = jump_superop(spec)`` and ``D = L`` (moments), or ``D = L - J``
    when ``resolved`` (jump counting). ``y`` is either one stacked state,
    levels 0..k of length ``4(k+1)``, or a matrix whose columns are such
    states. States are column-stacked on both ends and propagated in r,
    where a Hermitian state stays real. Each constant-flux interval of the
    window is one exact exponential; each linear-flux part is converged to
    ``tol``.
    """
    y = np.asarray(y)
    k = len(y) // 4 - 1
    r = _rebase(_TO_R, y.reshape(4 * (k + 1), -1))
    if not r.imag.any():
        r = np.ascontiguousarray(r.real)
    static, drive, jump = real_parts(spec.topology)
    if resolved:
        static = static - jump
    for lo, hi, amp in drive_intervals(spec):
        a, b = max(lo, t0), min(hi, t1)
        if b <= a:
            continue
        if amp is None:
            r = _integrate_part(spec, static, r, a, b, tol)
        else:
            r = _block_expm(static + amp * drive, jump, k, b - a) @ r
    return _rebase(_FROM_R, r).reshape(y.shape)


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
