"""Quantum-jump Monte Carlo unraveling with channel-resolved counting.

Each trajectory carries an unnormalized pure state evolved with the
non-Hermitian generator ``H_eff = H(t) - (i/2) R sp sm`` (R the total
emission rate). Its squared norm is the probability of no jump since the
last reset, so a jump happens where the norm falls to a uniform threshold
(the waiting-time method: Dalibard, Castin & Molmer, PRL 68, 580 (1992);
Daley, Adv. Phys. 63, 77 (2014)).

The sampler is event driven. The counting window splits into pieces on
which ``H_eff`` is constant: each constant-flux interval of
:func:`photonstat.liouville.drive_intervals` whole, and its linear-flux
parts in steps of at most ``_MAX_STEP`` with the envelope frozen at each
step midpoint (a first-order scheme). On a piece the state moves by the
closed-form exponential of the 2x2 generator, whose terms never grow, so
work grows with jumps, not with window or pulse length. Each round moves
every trajectory still inside the piece, vectorized, either to the piece
end or, where its norm would fall below its threshold first, to the
crossing: found by safeguarded Newton iteration on ``dn/ds = -R |e(s)|^2``
inside a bisection bracket, and in closed form where the piece is undriven.
There the jump is attributed to a channel in proportion to the channel
weights, the state resets to the ground state, a fresh threshold is drawn,
and the next round continues from the jump.

Every emission resets the emitter to ``|g>``, so the crossings of rows that
start there (every row after a jump, and on a square pulse every row of the
driven piece) all invert one function per piece, the reset-state norm
``n_g(s) = |U(s)|g>|^2``. A driven piece tabulates it the first time such a
row needs a crossing, and the inverse table gives these rows their first
Newton iterate; other rows start from the secant through the ends of
their span. Such rows need only the first column of U(s) (:meth:`_Piece.column`):
the table, the carry after a jump and a crossing whose rows all start there read it alone.

Reproducibility contract: trajectory ``i`` consumes, in order, one initial
threshold, then per jump one channel uniform followed by the next threshold.
Draw ``j = 1, 2, ...`` of trajectory ``i`` is a counter-based hash of
``(seed, i, j)`` built from the SplitMix64 finalizer (Steele, Lea & Flood,
OOPSLA 2014), written out in :class:`_Streams`. The schedule depends only on
the trajectory's own history, so histograms merge identically no matter how
trajectories are split across chunks and workers.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError, SpecError, check_integer
from .liouville import (
    DriveSpec,
    decay_channels,
    drive_amplitude,
    drive_intervals,
    effective_hamiltonian,
    total_decay_rate,
)

__all__ = ["TrajectoryResult", "sample_trajectories", "sample_trajectory_range"]

# Step of the midpoint-frozen scheme for sampled envelopes.
_MAX_STEP = 0.005
# Crossing times are converged to this fraction of the piece length, capped at
# 100 decay constants 1/R, or until their bracket closes to adjacent floats.
_CROSSING_TOL = 1e-13
_CROSSING_ITERS = 100
# Points of a piece's reset-state norm table, which seeds the crossings of
# rows that start in |g>. Over the traj benchmark's inputs a crossing takes
# 4.6 Newton iterations at 64 points, 3.5 at 256 and 3.0 at 1024, against
# 9.7 from the secant guess; the table costs ~35 us at 256 points, less than
# one iteration of a 180-row block (~55 us), and ~90 us at 1024.
_GROUND_GRID = 256
# Trajectories advanced together as one array; results do not depend on it.
_CHUNK = 4096

# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): its increment and the two
# multipliers of its finalizer
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_A, _MIX_B = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


@dataclass(frozen=True)
class TrajectoryResult:
    """Histogram of monitored-channel jump counts over ``n_traj`` runs."""

    n_traj: int
    counts: np.ndarray
    per_channel_totals: dict[str, float]
    seed: int

    def __post_init__(self):
        self.counts.setflags(write=False)


# ---------------------------------------------------------------------------
# Per-trajectory random streams

def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer on uint64 arrays, modulo 2**64."""
    z = (z ^ (z >> np.uint64(30))) * _MIX_A
    z = (z ^ (z >> np.uint64(27))) * _MIX_B
    return z ^ (z >> np.uint64(31))


class _Streams:
    """Counter-based uniform streams of trajectories ``index`` under ``seed``.

    With ``mix`` the finalizer :func:`_mix` and all arithmetic modulo
    2**64, the key folds the seed's 64-bit words, low word first and at
    least one, as ``key = mix((key ^ word) + GAMMA)`` from 0. Trajectory
    ``i`` has base ``mix(i ^ key)``, and its draw ``j = 1, 2, ...`` is
    ``(mix(base + j * GAMMA) >> 11) * 2**-53``. Each row keeps only its
    base and its draw counter.
    """

    def __init__(self, seed: int, index: np.ndarray):
        # a one-element array: scalar uint64 arithmetic warns on wrap-around
        key = np.zeros(1, dtype=np.uint64)
        for k in range(max(1, (seed.bit_length() + 63) // 64)):
            key = _mix((key ^ np.uint64((seed >> 64 * k) % 2**64)) + _GAMMA)
        self.base = _mix(index ^ key)
        self.count = np.zeros(len(index), dtype=np.uint64)

    def next(self, rows: np.ndarray) -> np.ndarray:
        """Advance the streams ``rows`` by one draw and return it, in [0, 1)."""
        return self.draws(rows, 1)[0]

    def draws(self, rows: np.ndarray, n: int) -> np.ndarray:
        """Advance the streams ``rows`` by ``n`` draws and return them, one row per draw."""
        count = self.count[rows]
        self.count[rows] = count + np.uint64(n)
        j = count + np.arange(1, n + 1, dtype=np.uint64)[:, None]
        return (_mix(self.base[rows] + j * _GAMMA) >> np.uint64(11)) * 2.0 ** -53


# ---------------------------------------------------------------------------
# Constant-generator pieces

def _norm2(g: np.ndarray, e: np.ndarray) -> np.ndarray:
    return g.real * g.real + g.imag * g.imag + e.real * e.real + e.imag * e.imag


class _Piece:
    """One stretch of constant ``H_eff``: closed-form evolution and crossings."""

    def __init__(self, heff: np.ndarray, length: float, rate: float, driven: bool):
        self.length = length
        self.rate = rate
        self.driven = driven
        self.mu = 0.5 * (heff[0, 0] + heff[1, 1])
        self.a00 = heff[0, 0] - self.mu
        self.a01 = heff[0, 1]
        self.a10 = heff[1, 0]
        # +-q are the eigenvalues of H_eff - mu, signed so that Im q <= 0
        self.q = -1j * cmath.sqrt(-self.a00 * self.a00 - self.a01 * self.a10)
        # the slower eigenvalue mu - q as det(H_eff) / (mu + q): no cancellation where it is small
        det = heff[0, 0] * heff[1, 1] - self.a01 * self.a10
        self.slow = det / (self.mu + self.q) if self.q else self.mu
        self.full = tuple(u[0] for u in self.matrix(np.array([length])))

    @cached_property
    def ground_table(self) -> tuple[np.ndarray, np.ndarray]:
        """``(n_g, s)`` with ``n_g(s) = |U(s)|g>|^2`` on a uniform grid of the
        piece, ordered by ascending norm for :func:`np.interp`.

        Built on first use, so that the many short pieces of a sampled
        envelope that never see a reset do not pay for it.
        """
        s = np.linspace(0.0, self.length, _GROUND_GRID)
        # dn/ds = -R |e|^2 <= 0; the running minimum irons out rounding
        norm = np.minimum.accumulate(_norm2(*self.column(s)))
        return norm[::-1], s[::-1]

    def _waves(self, s: np.ndarray):
        """exp(-i mu s) (sin(q s) / q, cos(q s)) as (-w z / (2 i q), w (1 + z / 2)), or
        (w s, w) at q = 0, from w = exp(-i (mu - q) s) and z = expm1(-2 i q s), which never grow."""
        w = np.exp(-1j * self.slow * s)
        if self.q == 0:
            return w * s, w
        wz = w * np.expm1(-2j * self.q * s)
        return wz * (0.5j / self.q), w + 0.5 * wz

    def matrix(self, s: np.ndarray):
        """Entries u00, u01, u10, u11 of exp(-i H_eff s)."""
        f, c = self._waves(s)
        return c - 1j * f * self.a00, -1j * f * self.a01, -1j * f * self.a10, c + 1j * f * self.a00

    def column(self, s: np.ndarray):
        """Entries u00, u10 of :meth:`matrix`: the state U(s)|g>."""
        f, c = self._waves(s)
        return c - 1j * f * self.a00, -1j * f * self.a10

    def crossing(self, span: np.ndarray, g: np.ndarray, e: np.ndarray,
                 thr: np.ndarray, n_end: np.ndarray) -> np.ndarray:
        """Solve ``|U(s) (g, e)|^2 = thr`` for s in (0, span).

        The norm decays monotonically from ``|(g, e)|^2 > thr`` to ``n_end <
        thr``. A row that starts exactly in ``|g>`` takes its first iterate
        from :attr:`ground_table`, every other row from the secant through
        the span's ends. Each row stops iterating once its own Newton step
        falls below the tolerance, so its result does not depend on which
        rows share its block.
        """
        if not self.driven:
            # decay only: |g| is constant and |e|^2 shrinks by exp(-rate*s)
            e2 = e.real * e.real + e.imag * e.imag
            arg = (thr - (g.real * g.real + g.imag * g.imag)) / e2
            return np.minimum(-np.log(arg) / self.rate, span)
        tol = _CROSSING_TOL * min(self.length, 100.0 / self.rate)
        out = np.empty_like(span)
        act = np.arange(len(span))
        lo, hi = np.zeros_like(span), span
        n0 = _norm2(g, e)
        s = span * (n0 - thr) / (n0 - n_end)
        ground = (g == 1.0) & (e == 0.0)
        if ground.any():
            norm, times = self.ground_table
            s[ground] = np.minimum(np.interp(thr[ground], norm, times), span[ground])
        columns = ground.all()  # then U(s) (1, 0) is exactly U(s)'s first column
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(_CROSSING_ITERS):
                if columns:
                    gs, es = self.column(s)
                else:
                    u00, u01, u10, u11 = self.matrix(s)
                    gs, es = u00 * g + u01 * e, u10 * g + u11 * e
                e2 = es.real * es.real + es.imag * es.imag
                excess = gs.real * gs.real + gs.imag * gs.imag + e2 - thr
                above = excess > 0.0
                lo = np.where(above, s, lo)
                hi = np.where(above, hi, s)
                step = excess / (self.rate * e2)
                newton = s + step
                converged = np.abs(step) <= tol
                inside = (newton > lo) & (newton < hi)
                s = np.where(converged | inside, newton, 0.5 * (lo + hi))
                done = converged | (hi - lo <= np.maximum(tol, np.spacing(hi)))
                if not done.any():
                    continue
                out[act[done]] = s[done]
                if done.all():
                    return out
                keep = ~done
                act, s, lo, hi = act[keep], s[keep], lo[keep], hi[keep]
                g, e, thr = g[keep], e[keep], thr[keep]
        raise NumericalError(
            f"jump time did not converge to {tol:.1e} in {_CROSSING_ITERS} iterations")

    def advance(self, g: np.ndarray, e: np.ndarray, thr: np.ndarray,
                streams: _Streams, mon: np.ndarray, oth: np.ndarray,
                mon_frac: float) -> None:
        """Carry a block of trajectories across the piece, in place."""
        u00, u01, u10, u11 = self.full
        g_end, e_end = u00 * g + u01 * e, u10 * g + u11 * e
        n_end = _norm2(g_end, e_end)
        rows = np.flatnonzero(n_end < thr)
        g0, e0, n_end = g[rows], e[rows], n_end[rows]
        g[:], e[:] = g_end, e_end
        span = np.full(len(rows), self.length)
        while len(rows):
            span = span - self.crossing(span, g0, e0, thr[rows], n_end)
            channel, thr[rows] = streams.draws(rows, 2)
            monitored = channel < mon_frac
            mon[rows] += monitored
            oth[rows] += ~monitored
            if not self.driven:
                # an undriven ground state neither evolves nor jumps again
                g[rows], e[rows] = 1.0, 0.0
                return
            # the emission resets the emitter; carry |g> to the piece end
            g_end, e_end = self.column(span)
            n_end = _norm2(g_end, e_end)
            g[rows], e[rows] = g_end, e_end
            again = n_end < thr[rows]
            rows, span, n_end = rows[again], span[again], n_end[again]
            g0 = np.ones(len(rows), dtype=complex)
            e0 = np.zeros(len(rows), dtype=complex)


def _pieces(spec: DriveSpec) -> list[_Piece]:
    """Constant-``H_eff`` pieces covering the counting window in order."""
    rate = total_decay_rate(spec.topology)
    pieces = []
    for t0, t1, amp in drive_intervals(spec):
        # a constant-flux interval is one piece, a linear one steps of _MAX_STEP
        n = 1 if amp is not None else max(1, int(np.ceil((t1 - t0) / _MAX_STEP - 1e-12)))
        h = (t1 - t0) / n
        pieces += [_Piece(effective_hamiltonian(spec, t), h, rate, drive_amplitude(spec, t) > 0.0)
                   for t in t0 + (np.arange(n) + 0.5) * h]
    return pieces


# ---------------------------------------------------------------------------
# Sampling

def _normalize_psi0(psi0) -> tuple[complex, complex]:
    if psi0 is None:
        return 1.0 + 0.0j, 0.0j
    psi = np.asarray(psi0, dtype=complex).reshape(-1)
    if psi.shape != (2,):
        raise SpecError("initial state must be a 2-component amplitude vector")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-9:
        raise SpecError(f"initial state norm {norm:.3g} is not 1")
    return complex(psi[0]), complex(psi[1])


def sample_trajectory_range(spec: DriveSpec, seed: int, start: int, stop: int, psi0=None):
    """Raw counts for trajectory indices ``[start, stop)``.

    Returns ``(histogram, monitored_total, other_total)``. The histogram of
    a full run is the elementwise sum over any partition into index ranges,
    which is how the CLI parallelizes.
    """
    check_integer(seed, "seed", 0)
    check_integer(start, "start", 0)
    check_integer(stop, "stop", start + 1)
    seed = int(seed)
    pieces = _pieces(spec)
    g_init, e_init = _normalize_psi0(psi0)
    mon_frac = next(c.weight for c in decay_channels(spec) if c.monitored) \
        / total_decay_rate(spec.topology)

    hist: np.ndarray = np.zeros(1, dtype=np.int64)
    mon_grand = 0
    other_grand = 0

    for lo in range(start, stop, _CHUNK):
        hi = min(lo + _CHUNK, stop)
        m = hi - lo
        streams = _Streams(seed, np.arange(lo, hi, dtype=np.uint64))
        thr = streams.next(np.arange(m))
        g = np.full(m, g_init, dtype=complex)
        e = np.full(m, e_init, dtype=complex)
        mon_counts = np.zeros(m, dtype=np.int64)
        other_counts = np.zeros(m, dtype=np.int64)
        for piece in pieces:
            piece.advance(g, e, thr, streams, mon_counts, other_counts, mon_frac)

        chunk_hist = np.bincount(mon_counts)
        if len(chunk_hist) > len(hist):
            hist = np.pad(hist, (0, len(chunk_hist) - len(hist)))
        hist[:len(chunk_hist)] += chunk_hist
        mon_grand += int(mon_counts.sum())
        other_grand += int(other_counts.sum())

    return hist, mon_grand, other_grand


def sample_trajectories(spec: DriveSpec, n_traj: int, seed: int, psi0=None) -> TrajectoryResult:
    """Monte Carlo estimate of the monitored count distribution.

    Parameters
    ----------
    spec : DriveSpec
        Drive, topology and counting window.
    n_traj : int
        Number of trajectories, >= 1.
    seed : int
        Non-negative base seed; draw j of trajectory ``i`` is a hash of
        ``(seed, i, j)`` (see :class:`_Streams`), so results are bit-for-bit
        reproducible for fixed ``(seed, n_traj)`` regardless of chunking or
        worker layout.
    psi0 : array_like, optional
        Initial pure-state amplitudes ``(g, e)``, default ground.
    """
    check_integer(n_traj, "n_traj", 1)
    hist, mon_total, other_total = sample_trajectory_range(spec, seed, 0, n_traj, psi0=psi0)
    names = [c.name for c in decay_channels(spec)]
    totals = {names[0]: mon_total / n_traj, names[1]: other_total / n_traj}
    return TrajectoryResult(n_traj=n_traj, counts=hist,
                            per_channel_totals=totals, seed=seed)
