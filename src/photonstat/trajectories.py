"""Quantum-jump Monte Carlo unraveling with channel-resolved counting.

Each trajectory carries an unnormalized pure state evolved with the
non-Hermitian generator ``H_eff = H(t) - (i/2) R sp sm`` (R the total
emission rate). Its squared norm is the probability of no jump since the
last reset, so a jump happens where the norm falls to a uniform threshold
(the waiting-time method: Dalibard, Castin & Molmer, PRL 68, 580 (1992);
Daley, Adv. Phys. 63, 77 (2014)).

The sampler is event driven. The counting window splits into pieces on
which ``H_eff`` is constant: the constant-flux intervals of
:func:`photonstat.liouville.drive_intervals`, and on its linear-flux parts
steps of at most ``_MAX_STEP`` with the envelope frozen at each step
midpoint (a first-order scheme). On a piece the state moves by
the closed-form exponential of the 2x2 generator, so work is done only per
piece and per jump. Each round moves every trajectory still inside the
piece, vectorized, either to the piece end or, where its norm would fall
below its threshold first, to the crossing: found by safeguarded Newton
iteration on ``dn/ds = -R |e(s)|^2`` inside a bisection bracket, and in
closed form where the piece is undriven. There the jump is attributed to a
channel in proportion to the channel weights, the state resets to the
ground state, a fresh threshold is drawn, and the next round continues from
the jump.

Every emission resets the emitter to ``|g>``, so the crossings of rows that
start there (every row after a jump, and on a square pulse every row of the
driven piece) all invert one function per piece, the reset-state norm
``n_g(s) = |U(s)|g>|^2``. A driven piece tabulates it the first time such a
row needs a crossing, and the inverse table gives these rows their first
Newton iterate; other rows start from the secant through the ends of
their span.

Reproducibility contract: trajectory ``i`` draws from a PCG64 generator
seeded with ``SeedSequence([seed, i])`` and consumes, in order, one initial
threshold, then per jump one channel uniform followed by the next
threshold. :class:`_Streams` computes these draws for a whole block of
indices in numpy, bit for bit equal to
``np.random.default_rng([seed, i]).random()``. The schedule depends only on
the trajectory's own history, so histograms merge identically no matter how
trajectories are split across workers.
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
# Longest piece, in decay constants 1/R: the closed form's cos(q s) grows
# like exp(R s / 4), which stays far from overflow.
_MAX_PIECE_DECAYS = 100.0
# Crossing times are converged to this fraction of the piece length.
_CROSSING_TOL = 1e-13
_CROSSING_ITERS = 100
# Points of a piece's reset-state norm table, which seeds the crossings of
# rows that start in |g>. Over the traj benchmark's inputs a crossing takes
# 4.6 Newton iterations at 64 points, 3.5 at 256 and 3.0 at 1024, against
# 9.7 from the secant guess; the table costs ~70 us at 256 points, about one
# iteration of a 180-row block, and ~170 us at 1024.
_GROUND_GRID = 256
# Trajectories advanced together as one array; results do not depend on it.
_CHUNK = 4096

_M32 = 0xFFFFFFFF
# numpy's SeedSequence: a pool of four 32-bit words and its hash constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# 128-bit PCG64 multiplier as (high, low) 64-bit words
_PCG_MUL = (0x2360ED051FC65DA4, 0x4385DF649FCCF645)


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

class _Hash:
    """SeedSequence's multiply-xorshift hash with its running constant."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = self.const * self.mult & _M32
        value = value * np.uint32(self.const)
        return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return out ^ (out >> np.uint32(16))


def _seed_words(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(4, np.uint64)``, one column per word.

    ``entropy`` lists the 32-bit entropy words as uint32 arrays, one entry
    per stream.
    """
    hashmix = _Hash(_INIT_A, _MULT_A)
    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for i_src in range(_POOL):
        for i_dst in range(_POOL):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL:]:
        for i_dst in range(_POOL):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))
    out = _Hash(_INIT_B, _MULT_B)
    halves = [out(pool[i % _POOL]).astype(np.uint64) for i in range(8)]
    return [halves[2 * i] | halves[2 * i + 1] << np.uint64(32) for i in range(4)]


def _mul_hi(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products ``a * b``."""
    a0, a1 = a & np.uint64(_M32), a >> np.uint64(32)
    b0, b1 = np.uint64(b & _M32), np.uint64(b >> 32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> np.uint64(32)) + (p01 & np.uint64(_M32)) + (p10 & np.uint64(_M32))
    return a1 * b1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 state update ``state * MUL + inc`` modulo 2**128."""
    m_hi, m_lo = _PCG_MUL
    new_lo = lo * np.uint64(m_lo) + inc_lo
    carry = (new_lo < inc_lo).astype(np.uint64)
    new_hi = (_mul_hi(lo, m_lo) + lo * np.uint64(m_hi) + hi * np.uint64(m_lo)
              + inc_hi + carry)
    return new_hi, new_lo


class _Streams:
    """The ``random()`` streams of ``np.random.default_rng([seed, i])`` for many ``i``.

    Hashes ``SeedSequence([seed, i])`` in uint32 arithmetic, seeds PCG64
    from the first four 64-bit state words, and keeps each stream's 128-bit
    state and increment as high and low uint64 arrays.
    """

    def __init__(self, seed: int, index: np.ndarray):
        # SeedSequence splits each integer into as many 32-bit words as it needs
        seed_words = [seed >> 32 * k & _M32
                      for k in range(max(1, (seed.bit_length() + 31) // 32))]
        self.hi, self.lo, self.inc_hi, self.inc_lo = (
            np.empty(len(index), dtype=np.uint64) for _ in range(4))
        wide = index > _M32
        for two_words in (False, True):
            rows = np.flatnonzero(wide == two_words)
            if not len(rows):
                continue
            idx = index[rows]
            entropy = [np.full(len(rows), w, dtype=np.uint32) for w in seed_words]
            entropy.append((idx & np.uint64(_M32)).astype(np.uint32))
            if two_words:
                entropy.append((idx >> np.uint64(32)).astype(np.uint32))
            s_hi, s_lo, i_hi, i_lo = _seed_words(entropy)
            inc_hi = i_hi << np.uint64(1) | i_lo >> np.uint64(63)
            inc_lo = i_lo << np.uint64(1) | np.uint64(1)
            # pcg_setseq_128_srandom_r: state = inc + seed, then one step
            lo = inc_lo + s_lo
            hi = inc_hi + s_hi + (lo < s_lo).astype(np.uint64)
            self.hi[rows], self.lo[rows] = _pcg_step(hi, lo, inc_hi, inc_lo)
            self.inc_hi[rows], self.inc_lo[rows] = inc_hi, inc_lo

    def next(self, rows: np.ndarray) -> np.ndarray:
        """Advance the streams ``rows`` by one draw and return their ``random()``."""
        hi, lo = _pcg_step(self.hi[rows], self.lo[rows], self.inc_hi[rows],
                           self.inc_lo[rows])
        self.hi[rows], self.lo[rows] = hi, lo
        # XSL-RR output: xor the halves, rotate right by the top six bits
        x = hi ^ lo
        rot = hi >> np.uint64(58)
        out = x >> rot | x << ((np.uint64(64) - rot) & np.uint64(63))
        return (out >> np.uint64(11)).astype(float) * 2.0 ** -53


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
        self.q = cmath.sqrt(self.a00 * self.a00 + self.a01 * self.a10)
        self.full = tuple(u[0] for u in self.matrix(np.array([length])))

    @cached_property
    def ground_table(self) -> tuple[np.ndarray, np.ndarray]:
        """``(n_g, s)`` with ``n_g(s) = |U(s)|g>|^2`` on a uniform grid of the
        piece, ordered by ascending norm for :func:`np.interp`.

        Built on first use, so that the many short pieces of a sampled
        envelope that never see a reset do not pay for it.
        """
        s = np.linspace(0.0, self.length, _GROUND_GRID)
        u00, _, u10, _ = self.matrix(s)
        # dn/ds = -R |e|^2 <= 0; the running minimum irons out rounding
        norm = np.minimum.accumulate(_norm2(u00, u10))
        return norm[::-1], s[::-1]

    def matrix(self, s: np.ndarray):
        """Entries of exp(-i H_eff s); the traceless part has eigenvalues +-q."""
        qs = self.q * s
        # sin(q s) / q, which tends to s at the exceptional point q = 0
        f = np.sin(qs) / self.q if self.q != 0 else s.astype(complex)
        c = np.cos(qs)
        ph = np.exp(-1j * self.mu * s)
        return (ph * (c - 1j * f * self.a00), ph * (-1j * f * self.a01),
                ph * (-1j * f * self.a10), ph * (c + 1j * f * self.a00))

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
        tol = _CROSSING_TOL * self.length
        out = np.empty_like(span)
        act = np.arange(len(span))
        lo, hi = np.zeros_like(span), span
        n0 = _norm2(g, e)
        s = span * (n0 - thr) / (n0 - n_end)
        ground = (g == 1.0) & (e == 0.0)
        if ground.any():
            norm, times = self.ground_table
            s[ground] = np.minimum(np.interp(thr[ground], norm, times), span[ground])
        for _ in range(_CROSSING_ITERS):
            u00, u01, u10, u11 = self.matrix(s)
            gs, es = u00 * g + u01 * e, u10 * g + u11 * e
            e2 = es.real * es.real + es.imag * es.imag
            excess = gs.real * gs.real + gs.imag * gs.imag + e2 - thr
            above = excess > 0.0
            lo = np.where(above, s, lo)
            hi = np.where(above, hi, s)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = excess / (self.rate * e2)
            newton = s + step
            converged = np.abs(step) <= tol
            inside = (newton > lo) & (newton < hi)
            s_new = np.where(converged | inside, newton, 0.5 * (lo + hi))
            done = converged | (hi - lo <= tol)
            out[act[done]] = s_new[done]
            if done.all():
                return out
            keep = ~done
            act, s, lo, hi = act[keep], s_new[keep], lo[keep], hi[keep]
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
            monitored = streams.next(rows) < mon_frac
            mon[rows] += monitored
            oth[rows] += ~monitored
            thr[rows] = streams.next(rows)
            if not self.driven:
                # an undriven ground state neither evolves nor jumps again
                g[rows], e[rows] = 1.0, 0.0
                return
            # the emission resets the emitter; carry |g> to the piece end
            g_end, _, e_end, _ = self.matrix(span)
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
        # a constant-flux interval is one piece unless it is very long
        step = _MAX_PIECE_DECAYS / rate if amp is not None else _MAX_STEP
        n = max(1, int(np.ceil((t1 - t0) / step - 1e-12)))
        h = (t1 - t0) / n
        for i in range(n):
            # envelope frozen at the step midpoint
            mid = t0 + (i + 0.5) * h
            pieces.append(_Piece(effective_hamiltonian(spec, mid), h, rate,
                                 driven=drive_amplitude(spec, mid) > 0.0))
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
        Non-negative base seed; trajectory ``i`` uses
        ``SeedSequence([seed, i])``, so results are bit-for-bit reproducible
        for fixed ``(seed, n_traj)`` regardless of chunking or worker layout.
    psi0 : array_like, optional
        Initial pure-state amplitudes ``(g, e)``, default ground.
    """
    check_integer(n_traj, "n_traj", 1)
    hist, mon_total, other_total = sample_trajectory_range(spec, seed, 0, n_traj, psi0=psi0)
    names = [c.name for c in decay_channels(spec)]
    totals = {names[0]: mon_total / n_traj, names[1]: other_total / n_traj}
    return TrajectoryResult(n_traj=n_traj, counts=hist,
                            per_channel_totals=totals, seed=seed)
