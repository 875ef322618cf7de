"""Master-equation propagation over the counting window.

One routine, :func:`advance`, moves a hierarchy state of one drive across a
time span split at the envelope breakpoints (:func:`photonstat.liouville.drive_intervals`).
Where the flux is constant (square pulses, flat tops and rectangles of
sampled envelopes, the undriven tail) the generator is constant, so the
interval is one exact matrix exponential of the block generator, formed
from the interval's drive amplitude as ``static + amplitude * drive``.
Where a sampled envelope varies, the part is integrated with the
three-node Gauss sixth-order Magnus scheme (one exponential per step, of a
generator three block subdiagonals deep, formed up front for the first
halved-step Richardson check of every part of a span as one stack),
refining until the difference is below tolerance. The counting
routes of :mod:`photonstat.counting` stack square pulses of any widths into
one exponential call of their own, read the level states off its first
block column, and add the undriven tail in closed form. The propagator of the
master equation over any part of the window (:func:`propagator_between`) is
the zeroth hierarchy level advanced from the identity.

States and superoperators are column-stacked (:func:`photonstat.liouville.vectorize`)
at the boundary of :func:`advance`, but propagated in the Hermitian
coordinates r = (rho_gg, rho_ee, Re rho_eg, Im rho_eg). Every generator,
drive term and jump superoperator of the model preserves Hermiticity, so in
r it is real and every hierarchy exponential is taken in float64.

Every exponential is one of a block lower-triangular Toeplitz generator, so
it is block lower-triangular Toeplitz too (Van Loan, IEEE TAC 23, 395
(1978)) and fixed by its first block column. :func:`_block_expm`
computes that column by truncated-Taylor scaling and squaring (Higham,
SIAM J. Matrix Anal. Appl. 26, 1179 (2005)) in the algebra of 4x4 matrix
polynomials truncated at level k, so a product costs one ``4 x 4(k+1)`` by
``4(k+1) x 4(k+1)`` matrix product instead of a dense ``4(k+1)``-cube one,
and returns it; only :func:`advance` and its Magnus steps expand it to the
matrix (:func:`_dense`).

The kernel's work arrays (padded power rows, one Toeplitz matrix, the Taylor
terms and two products) are views of one float64 buffer per thread, laid out
once per request shape together with the Toeplitz window over the power row
that the Horner steps and squarings reuse, so a Toeplitz matrix is one copy
(:func:`_window`; :func:`_dense` expands through a window of its own). The
buffer grows to exactly the largest request the thread has made and is never
released, and a growth drops the cached layouts, so repeated stacked calls
write to pages that stay mapped instead of taking fresh ones from the
allocator each call. It holds 0.93 MB after bench ``map`` rows of 24 photon
numbers, 4.7 MB after ``fig2`` rows of 120 and 11.5 MB after ``fig5``. Every
product keeps its operands' shapes, so results are bit for bit those of
fresh arrays, and the returned column and matrices are fresh arrays.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache, reduce
from itertools import accumulate, islice

import numpy as np

from .errors import ConvergenceError, NumericalError, SpecError
from .liouville import (
    _DECAY,
    _DRIVE,
    _JUMP_SINGLE,
    _JUMP_TWO,
    _PRECESSION,
    DriveSpec,
    Topology,
    TwoLine,
    devectorize,
    drive_coefficient,
    drive_intervals,
    total_decay_rate,
    vectorize,
)

__all__ = ["evolve_state", "propagator_between", "validate_density", "advance"]

# Step-halving tolerance of each sampled-envelope part of a propagator span.
STEP_TOLERANCE = 1e-9
# Trace drift above which a state is renormalized after a segment.
TRACE_DRIFT = 1e-12
# Gauss-Legendre nodes of a step of the sixth-order Magnus scheme (Blanes,
# Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)), and a_m = h sum_j
# _ALPHA[m, j] A_j over the generators A_j at the nodes (see _magnus_steps).
_NODES = 0.5 + math.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])
_ALPHA = np.array([[0, 3, 0], [-math.sqrt(15.0), 0, math.sqrt(15.0)], [10, -20, 10]]) / 3.0
# Steps per kernel call on an advance's stack of first-check passes (results do
# not depend on it). A call costs ~30 small numpy operations, 2-3 per Horner step
# or squaring; at k = 16 an exponential takes 79 kB of buffer, 37 kB of result.
_STACK_STEPS = 32
# First-pass step count per V^(1/3) tol^(-1/6) (see _integrate_part). On 671
# linear parts of 96 bench envelopes, 0.2/0.26/0.3/0.35/0.4 pass the first
# halved-step check on 499/599/644/668/671 parts, in 1636/1459/1435/1447/1516
# kernel calls of one pass each; 0.32 makes 1432 calls, but 3 % more slices.
_FIRST_STEPS = 0.3
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
    """A Hermiticity-preserving superoperator, or a stack of them, in r as
    read-only float64."""
    real = (_TO_R @ op @ _FROM_R).real
    real.setflags(write=False)
    return real


# The superoperators that every generator, drive term and monitored jump of
# the model is made of, in r.
_R_PRECESSION, _R_DECAY, _R_DRIVE, _R_JUMP_SINGLE, _R_JUMP_TWO = (
    _real(op) for op in (_PRECESSION, _DECAY, _DRIVE, _JUMP_SINGLE, _JUMP_TWO))


@lru_cache(maxsize=64)
def real_parts(topology: Topology) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two :func:`photonstat.liouville.liouvillian_parts` of ``topology``
    and its monitored jump superoperator, in r (read-only float64).

    Formed from the parts converted once at import: bit for bit the
    conversion of each operator, since the change of basis is linear and
    exact on these operators' entries.
    """
    static = -0.5 * topology.delta * _R_PRECESSION + total_decay_rate(topology) * _R_DECAY
    static.setflags(write=False)
    return static, _R_DRIVE, _R_JUMP_TWO if isinstance(topology, TwoLine) else _R_JUMP_SINGLE


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
    product, one Toeplitz copy and one copy back. Counting a squaring as
    1.5 steps, degree index i with s squarings costs ``2 i + 3 s``, and the
    entry picked for a norm is the cheapest whose capacity ``theta_m 2^s``
    covers it. :func:`_block_expm` refuses larger norms and NaN.
    """
    options = sorted((2 * i + 3 * s, -theta * 2.0 ** s, i, s)
                     for i, theta in enumerate(_THETA) for s in range(64))
    table = []
    for _, capacity, i, s in options:
        if not table or -capacity > table[-1][0]:
            table.append((-capacity, i, s))
    capacity, degree, squarings = (np.array(col) for col in zip(*table))
    return capacity, np.array([degree, squarings]), np.ldexp(1.0, -squarings)


_CAPACITY, _CHOICE, _SCALE = _scaling_table()


def _window(rows: np.ndarray, k: int) -> np.ndarray:
    """The view of shape ``(n, k+1, 4, 4(k+1))`` whose block row p is columns
    ``4(k-p) .. 4(2k-p)+3`` of the rows ``rows`` (shape ``(n, 4, 4(2k+1))``,
    C-contiguous); copied into a C-contiguous array of its size it is the
    Toeplitz matrix: with ``rows = [0 ... 0, F_0, ..., F_k]`` block (p, m) is
    F_(m-p), and with ``rows = [F_k, ..., F_0, 0 ... 0]`` block (i, j) is F_(i-j)."""
    s0, s1, s2 = rows.strides
    return np.ndarray((len(rows), k + 1, 4, 4 * k + 4), rows.dtype, rows, 4 * k * s2,
                      (s0, -4 * s2, s1, s2))


class _Work(threading.local):
    """This thread's float64 work buffer, grown to exactly the largest request
    and never released, and the kernel's work arrays laid out in it per request shape."""

    def __init__(self):
        self.buffer = np.empty(0)
        self.layout = lru_cache(maxsize=256)(self._lay_out)

    def _lay_out(self, n: int, k: int, blocks: int) -> tuple[np.ndarray, ...]:
        """The work arrays of :func:`_block_expm` for ``n`` slices at level k with
        ``blocks`` Taylor blocks: padded power rows P, the :func:`_window` over
        P[1], a Toeplitz matrix, the Taylor terms and two products."""
        w, m = 8 * k + 4, 4 * k + 4
        shapes = (_POWERS, n, 4, w), (n, m, m), (n, blocks, 4 * w), (2, n, 4, m)
        ends = list(accumulate(map(math.prod, shapes), initial=0))
        if ends[-1] > len(self.buffer):
            self.buffer = np.empty(ends[-1])
            self.layout.cache_clear()  # views of the old buffer would keep it alive
        P, step, terms, H = (self.buffer[a:b].reshape(shape)
                             for a, b, shape in zip(ends, ends[1:], shapes))
        return P, _window(P[1], k), step, terms, H


_WORK = _Work()


def _block_expm(diag: np.ndarray, feed: np.ndarray, k: int, dt) -> np.ndarray:
    """Exponential over ``dt`` of the hierarchy generator with diagonal blocks
    ``diag`` (shape ``(..., 4, 4)``) and feed ``feed``, levels 0..k, as its
    first block column: ``F_m`` at ``[..., m, :, :]`` (shape ``(..., k+1, 4, 4)``),
    which :func:`_dense` expands to the matrix. ``dt`` is one time step, or
    one per slice. A ``feed`` with one more axis than ``diag`` stacks the
    blocks of subdiagonals 1, 2, ...; bands beyond level k are dropped.

    A polynomial in the generator is kept as the row ``[F_0 ... F_k]`` of its first
    block column; a product with another is that row times the other's Toeplitz
    matrix, one copy of the cached :func:`_window`. Each slice picks its Taylor
    degree and scaling from its own 1-norm ``max col-sum(|D| + |J|) dt``, |J|
    summed over the feed's bands. A slice of lower degree has zero coefficients in
    the higher blocks and one of fewer squarings is masked out of the later ones,
    so every slice comes out bit for bit as alone. The work arrays are views of
    this thread's buffer; the returned column is a fresh array.
    """
    D = diag.reshape(-1, 4, 4)
    n = len(D)
    # elementwise sums keep the norm, and so the choice, independent of the stack
    bands = np.moveaxis(feed, -3, 0) if feed.ndim > diag.ndim else [feed]
    a = np.abs(D)
    for band in bands:
        a += np.abs(band)
    a = a[:, :2] + a[:, 2:]
    norms = (a[:, 0] + a[:, 1]).max(-1) * dt
    if not norms.max(initial=0.0) <= _CAPACITY[-1]:  # NaN, or past the last squaring
        raise NumericalError(f"hierarchy exponential out of range: scaled 1-norm "
                             f"{norms.max():.3e} is NaN or exceeds {_CAPACITY[-1]:.3e}; "
                             "the drive is too strong or too long")
    pick = _CAPACITY.searchsorted(norms)
    degree, squarings = _CHOICE.take(pick, 1)
    blocks, fewest, most = int(degree.max()) + 1, int(squarings.min()), int(squarings.max())
    P, window, step, terms, H = _WORK.layout(n, k, blocks)
    live, steps = P[..., 4 * k:], step.reshape(window.shape)
    # padded rows [0 ... 0, Y_0, ..., Y_k] of Y = I, X, X^2, X^3 for the
    # scaled generator X = (D + J eps) dt 2^-s
    P[:2] = 0.0
    P[2:, :, :, :4 * k] = 0.0
    live[0, :, :, :4] = _EYE
    live[1, :, :, :4] = D
    for j, band in enumerate(bands[:k]):  # bands beyond level k are dropped
        live[1, :, :, 4 * j + 4:4 * j + 8] = band
    P[1] *= (dt * _SCALE.take(pick))[:, None, None]
    steps[...] = window
    for j in range(2, _POWERS):
        np.matmul(live[j - 1], step, out=live[j])
    np.matmul(_COEFFICIENTS[degree, :blocks], P.reshape(_POWERS, n, -1).transpose(1, 0, 2),
              out=terms)
    terms = terms.reshape(n, blocks, 4, -1)[..., 4 * k:]
    # Horner in X^4 over the blocks, into the columns E of the row P[1] from 4k on
    E, out = live[1], terms[:, -1]
    if blocks > 1:
        np.matmul(live[-1], step, out=E)
        steps[...] = window
        for b in range(blocks - 2, -1, -1):
            out = np.matmul(out, step, out=H[b % 2])
            out += terms[:, b]
    E[...] = out
    for j in range(most):
        steps[...] = window
        np.matmul(E, step, out=H[0])
        if j < fewest:
            E[...] = H[0]
        else:
            np.copyto(E, H[0], where=(squarings > j)[:, None, None])
    column = E.reshape(n, 4, k + 1, 4).swapaxes(1, 2).copy()
    return column.reshape(diag.shape[:-2] + (k + 1, 4, 4))


def _dense(column: np.ndarray) -> np.ndarray:
    """The block lower-triangular Toeplitz matrices of first block columns
    ``column`` (shape ``(..., k+1, 4, 4)``): block (i, j) is ``F_(i-j)``."""
    k = column.shape[-3] - 1
    F = column.reshape(-1, k + 1, 4, 4)
    rev = np.zeros((len(F), 4, 8 * k + 4))  # the row [F_k, ..., F_0, 0 ... 0]
    rev[:, :, :4 * k + 4].reshape(len(F), 4, k + 1, 4)[:] = F[:, ::-1].swapaxes(1, 2)
    dense = np.empty(column.shape[:-3] + (4 * k + 4, 4 * k + 4))
    window = _window(rev, k)
    dense.reshape(window.shape)[...] = window
    return dense


@lru_cache(maxsize=64)
def _linear_part(spec: DriveSpec, t0: float, t1: float) -> tuple[float, float, int]:
    """End fluxes of the linear-flux part [t0, t1], checked non-negative, and
    the end (0 for t0, 1 for t1, else -1) toward which the variable is graded
    quadratically, one whose flux is below ``_GRADE_RATIO`` of the other's:
    the amplitude, the square root of the flux, has an (almost) infinite
    slope in t at a (near-)zero end, which t = t0 + L s^2 smooths in s."""
    length = t1 - t0
    flux = spec.pulse.flux
    mid = flux(t0 + 0.5 * length)
    # the flux is linear across a part, so two interior samples give its one-sided
    # edge values: the knot values up to rounding, not bit for bit
    slope = (flux(t0 + 0.75 * length) - mid) / (0.25 * length)
    fa, fb = mid - 0.5 * slope * length, mid + 0.5 * slope * length
    if min(fa, fb) < -1e-9 * (abs(mid) + 1.0):
        raise SpecError(f"drive flux must be non-negative, got N_in = {min(fa, fb)}")
    return fa, fb, 0 if fa < _GRADE_RATIO * fb else 1 if fb < _GRADE_RATIO * fa else -1


def _graded_drive(spec: DriveSpec, t0: float, t1: float, s: np.ndarray):
    """Drive amplitude and ``dt/ds`` at ``s`` in [0, 1] on the linear-flux
    part [t0, t1], in the graded variable of :func:`_linear_part`."""
    fa, fb, toward = _linear_part(spec, t0, t1)
    if toward == 0:
        u, du = s * s, 2.0 * s
    elif toward == 1:
        u, du = 1.0 - (1.0 - s) ** 2, 2.0 * (1.0 - s)
    else:
        u, du = s, np.ones_like(s)
    amp = np.sqrt(drive_coefficient(spec.topology) * np.maximum(fa + (fb - fa) * u, 0.0))
    return amp, (t1 - t0) * du


@lru_cache(maxsize=64)
def _magnus_basis(topology: Topology, base: bytes) -> np.ndarray:
    """The 11 generators whose scalar combinations are the exponents of
    :func:`_magnus_steps`, as rows of bands 0-3 (shape ``(11, 64)``): K (diagonal
    ``base``, feed J), X (diagonal ``drive``), Z1 = [K, X], Z2 = [K, Z1],
    Z3 = [X, Z1], [K, Z2], [K, Z3], [X, Z2], [X, Z3], [Z1, Z2], [Z1, Z3].
    None reaches past band 3, so levels 0-3 of the dense matrices hold them."""
    _, drive, jump = real_parts(topology)
    K = np.kron(np.eye(4), np.frombuffer(base).reshape(4, 4)) + np.kron(np.eye(4, k=-1), jump)
    X = np.kron(np.eye(4), drive)
    z1 = K @ X - X @ K
    z2, z3 = K @ z1 - z1 @ K, X @ z1 - z1 @ X
    basis = np.array([K, X, z1, z2, z3, *(a @ b - b @ a for a, b in (
        (K, z2), (K, z3), (X, z2), (X, z3), (z1, z2), (z1, z3)))])[:, :, :4].reshape(11, 64)
    basis.setflags(write=False)
    return basis


def _magnus_steps(spec: DriveSpec, base: np.ndarray, k: int, passes):
    """The step matrices, in r, of Magnus passes ``passes = [(t0, t1, n), ...]``.

    Each step of ``h = 1/n`` in the graded variable s of :func:`_graded_drive`
    is one exponential of (Blanes, Casas & Ros, BIT 40, 434 (2000))::

        a1 = h A2,  a2 = sqrt(15) h/3 (A3 - A1),  a3 = 10 h/3 (A3 - 2 A2 + A1)
        C1 = [a1, a2],  C2 = -1/60 [a1, 2 a3 + C1]
        Omega = a1 + a3/12 + 1/240 [-20 a1 - a3 + C1, a2 + C2]

    A_m = w (K + amp X) is the generator at node m, where K has diagonal
    blocks ``base`` fed by ``J = jump_superop(spec)`` and X diagonal blocks
    ``drive``. So each a_m is ``p K + q X``, Omega a scalar combination of
    the generators of :func:`_magnus_basis`, and each step one slice of
    :func:`_block_expm`. The passes are formed together, each step bit for bit
    as in its pass alone, and exponentiated in stacks of ``_STACK_STEPS``
    steps, each expanded (:func:`_dense`) when the caller reaches it.
    """
    weights = []
    for t0, t1, n in passes:  # each with its own _ALPHA / n, the rest elementwise or by row
        amp, w = _graded_drive(spec, t0, t1, (np.arange(n)[:, None] + _NODES) / n)
        weights.append(np.stack([w, w * amp]) @ (_ALPHA.T / n))
    # a_m = p_m K + q_m X, each weight of shape (steps,)
    p1, p2, p3, q1, q2, q3 = np.concatenate(weights, 1).swapaxes(1, 2).reshape(6, -1)
    # C1 = c Z1, C2 = e Z1 - c/60 (p1 Z2 + q1 Z3), -20 a1 - a3 + C1 = u K + v X + c Z1
    c, e = p1 * q2 - q1 * p2, (q1 * p3 - p1 * q3) / 30.0
    u, v = -20.0 * p1 - p3, -20.0 * q1 - q3
    # the coefficients of Omega on the rows of _magnus_basis
    coefficients = np.empty((11, len(p1)))
    coefficients[:2] = p1 + p3 / 12.0, q1 + q3 / 12.0
    coefficients[2:5] = u * q2 - v * p2, u * e - c * p2, v * e - c * q2
    coefficients[5:] = c / -60.0 * np.array([u * p1, u * q1, v * p1, v * q1, c * p1, c * q1])
    coefficients[2:] /= 240.0
    basis = _magnus_basis(spec.topology, base.tobytes())
    omega = coefficients.T @ basis
    for end, (_, _, n) in zip(accumulate(n for _, _, n in passes), passes):
        if n == 1:  # alone, numpy takes a contiguous one-row product as a vector product
            omega[end - 1] = coefficients[:, end - 1].copy() @ basis
    for lo in range(0, len(omega), _STACK_STEPS):
        stack = omega[lo:lo + _STACK_STEPS].reshape(-1, 4, 4, 4)
        yield from _dense(_block_expm(stack[:, 0], stack[:, 1:], k, 1.0))


def _chain(steps, y: np.ndarray, n: int) -> np.ndarray:
    """``y`` advanced by the next ``n`` matrices of ``steps``, in order."""
    return reduce(lambda y, step: step @ y, islice(steps, n), y)


def _first_count(spec: DriveSpec, base: np.ndarray, t0: float, t1: float, tol: float) -> int:
    """Steps of the first coarse pass on [t0, t1] (:func:`_integrate_part`); checks the flux."""
    _, drive, _ = real_parts(spec.topology)
    amp, w = _graded_drive(spec, t0, t1, np.array([0.0, 1.0]))
    change = w[1] * (base + amp[1] * drive) - w[0] * (base + amp[0] * drive)
    norm = np.linalg.norm(_FROM_R @ change @ _TO_R, 1)
    return max(1, int(np.ceil(_FIRST_STEPS * norm ** (1 / 3) * tol ** (-1 / 6))))


def _integrate_part(spec: DriveSpec, base: np.ndarray, y: np.ndarray, t0: float,
                    t1: float, tol: float, n: int, steps) -> np.ndarray:
    """Advance ``y`` over one linear-flux part [t0, t1] of a sampled envelope.

    Sixth-order Magnus passes verified by a halved-step Richardson check; on
    failure the step count jumps to the resolution predicted by sixth-order
    convergence before re-checking, with the new passes of each check formed as
    one stack of :func:`_magnus_steps`, as the first check's are. The scheme is
    exact for a constant generator, and its error grows as h^6 times the square
    of the change V of the graded generator across the part, so the first check
    compares ``n = _FIRST_STEPS * V**(1/3) * tol**(-1/6)`` (:func:`_first_count`)
    with ``2 n`` steps, which ``steps`` yields next.
    ``base`` and ``y`` (shape ``(4(k+1), m)``) are in r; V and the check are
    measured on the column-stacked components.
    """
    coarse = _chain(steps, y, n)
    for _ in range(17):
        fine = _chain(steps, y, 2 * n)
        err = np.max(np.abs(_rebase(_FROM_R, fine - coarse)))
        if err <= tol:
            return fine
        # square-root envelope onsets converge slower and re-boost
        boost = max(2.0, min(64.0, (err / tol) ** (1 / 6)))
        n, doubled = int(np.ceil(n * boost)), 2 * n
        # a boost of exactly 2 makes the fine pass the next coarse one, which
        # is then not formed again
        passes = [(t0, t1, m) for m in (n, 2 * n) if m != doubled]
        steps = _magnus_steps(spec, base, len(y) // 4 - 1, passes)
        coarse = fine if n == doubled else _chain(steps, y, n)
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
    ``tol``, all first checks formed up front, after every flux is checked.
    """
    y = np.asarray(y)
    k = len(y) // 4 - 1
    r = _rebase(_TO_R, y.reshape(4 * (k + 1), -1))
    if not r.imag.any():
        r = np.ascontiguousarray(r.real)
    static, drive, jump = real_parts(spec.topology)
    if resolved:
        static = static - jump
    spans = [(a, b, amp) for lo, hi, amp in drive_intervals(spec)
             if (a := max(lo, t0)) < (b := min(hi, t1))]
    first = {(a, b): _first_count(spec, static, a, b, tol) for a, b, amp in spans if amp is None}
    steps = _magnus_steps(spec, static, k, [(a, b, m) for (a, b), n in first.items()
                                            for m in (n, 2 * n)])
    for a, b, amp in spans:
        if amp is None:
            r = _integrate_part(spec, static, r, a, b, tol, first[a, b], steps)
        else:
            r = _dense(_block_expm(static + amp * drive, jump, k, b - a)) @ r
    return _rebase(_FROM_R, r).reshape(y.shape)


def propagator_between(spec: DriveSpec, t0: float, t1: float) -> np.ndarray:
    """Superoperator mapping the state at ``t0`` to the state at ``t1``."""
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise SpecError(f"times must be finite, got t0={t0}, t1={t1}")
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
