"""Parameter studies: distribution maps, fixed-width slices, and the
coupling-ratio trade-off for the two-line single-photon source.

Default grids resolve all the structure seen in the short-pulse maps:
pulse widths log-spaced over [0.05, 5], photon numbers linear over
[0, 120], coupling ratios log-spaced over [0.005, 1]. A resonant square
pulse inverts the emitter when its area ``sqrt(2 N T)`` (single line) or
``sqrt(4 a N T)`` (two lines) reaches pi, so the one-photon probability
at fixed width peaks near ``N = pi^2/(2T)`` and ``N = pi^2/(4 a T)``;
optimization is restricted to this first inversion lobe.
The optimizer maximizes the exact one-photon probability
(:func:`photonstat.counting.one_photon_probability`), which needs no
cutoff; only the distribution reported at the optimum uses the moment route.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .counting import (
    PhotonStats,
    _row_statistics,
    one_photon_probability,
    photon_statistics,
    verify_dual,
)
from .errors import SpecError
from .liouville import DriveSpec, SingleLine, SquarePulse, TwoLine, Topology

__all__ = [
    "DEFAULT_T_GRID", "DEFAULT_N_GRID", "DEFAULT_A_GRID",
    "pi_pulse_number", "MaximizeResult", "maximize_p1",
    "SweepRecord", "SweepResult", "sweep_single_line", "sweep_two_line",
    "sweep_two_line_slices",
]

DEFAULT_T_GRID = np.logspace(math.log10(0.05), math.log10(5.0), 40)
DEFAULT_N_GRID = np.linspace(0.0, 120.0, 120)
DEFAULT_A_GRID = np.logspace(math.log10(0.005), 0.0, 30)

_CHECK_SEED = 20177
# Share of sweep points re-evaluated by the jump-counting route.
_CHECK_FRACTION = 0.05
# maximize_p1: points of the bracketing scan, its range in pi-pulse
# photon numbers (the first inversion lobe), and the relative width at
# which golden-section refinement stops.
_SCAN_POINTS = 64
_FIRST_LOBE = 1.5
_REL_TOL = 1e-3
_INV_PHI = 0.5 * (math.sqrt(5.0) - 1.0)
# golden-section steps looked ahead: every probe they may need, under every
# outcome of their comparisons, is evaluated in one stack (see _golden_max)
_LOOKAHEAD = 3
# sweep_two_line_slices: N range in pi-pulse photon numbers.
_SLICE_SPAN = 2.0


def pi_pulse_number(T: float, a: float | None = None) -> float:
    """Photon number at which the pulse area reaches pi."""
    if a is None:
        return math.pi ** 2 / (2.0 * T)
    return math.pi ** 2 / (4.0 * a * T)


def _golden_step(state: tuple, left: bool, value) -> tuple:
    """One golden-section step from ``(lo, hi, x1, x2, f1, f2)``: keep the
    left subinterval if ``left``, else the right, and probe its new interior
    point with ``value``."""
    lo, hi, x1, x2, f1, f2 = state
    if left:
        hi, x2, f2 = x2, x1, f1
        x1 = hi - _INV_PHI * (hi - lo)
        return lo, hi, x1, x2, value(x1), f2
    lo, x1, f1 = x1, x2, f2
    x2 = lo + _INV_PHI * (hi - lo)
    return lo, hi, x1, x2, f1, value(x2)


def _golden_max(f, lo: float, hi: float, rel_tol: float) -> float:
    """Golden-section maximizer; ties keep the left subinterval.

    ``f`` maps an array of points to their values, each independent of the
    other points. Whenever a probe is missing, the probes of the next
    ``_LOOKAHEAD`` steps under every outcome of their comparisons (and the
    final pair of every branch that stops) are one call of ``f``; the steps
    then run on those values exactly as they would one probe at a time.
    """
    values = {}

    def is_open(state):
        lo, hi = state[:2]
        return hi - lo > rel_tol * max(abs(0.5 * (lo + hi)), 1e-12)

    def probes(state, branches, depth, out):
        if not is_open(state):
            out += [state[0], 0.5 * (state[0] + state[1])]
        elif depth:
            for left in branches:
                probes(_golden_step(state, left, out.append), (True, False), depth - 1, out)

    def fill(state, branches, points):
        probes(state, branches, _LOOKAHEAD, points)
        points = [x for x in dict.fromkeys(points) if x not in values]
        values.update(zip(points, f(np.array(points))))

    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    fill((lo, hi, x1, x2, None, None), (True, False), [x1, x2])
    state = (lo, hi, x1, x2, values[x1], values[x2])
    while is_open(state):
        left = state[4] >= state[5]
        step = _golden_step(state, left, values.get)
        if None in step[4:]:
            fill(state, (left,), [])
            step = _golden_step(state, left, values.get)
        state = step
    lo, hi = state[:2]
    mid = 0.5 * (lo + hi)
    if lo not in values or mid not in values:
        fill(state, (), [])
    # prefer the left edge when the surface is flat to 1e-9
    return lo if values[lo] + 1e-9 >= values[mid] else mid


@dataclass(frozen=True)
class MaximizeResult:
    n_star: float
    stats: PhotonStats
    at_boundary: bool


def maximize_p1(topology: Topology, T: float, k: int | None = None) -> MaximizeResult:
    """Maximize the one-photon probability over the drive photon number.

    The objective is the exact ``P_1`` of :func:`one_photon_probability`,
    which needs no cutoff. A coarse scan (64 points, evaluated as one
    stack) over the first inversion lobe, 1.5x the pi-pulse photon number,
    brackets the maximum, golden-section refinement narrows it to a
    relative width below 1e-3, and ties resolve to the leftmost maximizer.
    ``stats`` is the moment-route distribution at the maximizer (cutoff
    ``k``, adaptive by default), so ``stats.p1`` equals the objective there
    to that route's accuracy. ``at_boundary`` flags a maximum on the edge
    of the scanned range.
    """
    _check_grids([T])
    n_star, at_boundary = _argmax_p1(topology, T)
    stats = photon_statistics(DriveSpec(SquarePulse(T=T, N=n_star), topology), k=k)
    return MaximizeResult(n_star=n_star, stats=stats, at_boundary=at_boundary)


def _argmax_p1(topology: Topology, T: float) -> tuple[float, bool]:
    """The :func:`maximize_p1` maximizer, and whether it lies at the edge of the scan."""
    a = topology.a if isinstance(topology, TwoLine) else None
    grid = np.linspace(0.0, _FIRST_LOBE * pi_pulse_number(T, a), _SCAN_POINTS)
    i_best = int(np.argmax(one_photon_probability(topology, T, grid)))
    b_lo = grid[max(i_best - 1, 0)]
    b_hi = grid[min(i_best + 1, len(grid) - 1)]
    n_star = _golden_max(lambda ns: one_photon_probability(topology, T, ns),
                         float(b_lo), float(b_hi), _REL_TOL)
    return n_star, i_best in (0, len(grid) - 1)


@dataclass(frozen=True)
class SweepRecord:
    """Statistics at one grid point; ``N`` is the drive photon number used,
    in :func:`sweep_two_line` the maximizer of ``P_1``."""

    T: float
    N: float
    a: float | None
    stats: PhotonStats


@dataclass(frozen=True)
class SweepResult:
    """Grid axes by name and one record per grid point, in grid order."""

    axes: dict
    records: tuple[SweepRecord, ...]


def _fixed_row(topology: Topology, Ts: list[float], Ns: list[float], k: int | None,
               checks: list[bool], name: str = "N") -> tuple[SweepRecord, ...]:
    """Records of one row of square pulses (widths ``Ts``, photon numbers
    ``Ns``), in order: the row's statistics are computed together, each point
    bit for bit as if alone, then errors and dual checks (quoting N as
    ``name``) are met in point order."""
    specs = [DriveSpec(SquarePulse(T=T, N=N), topology) for T, N in zip(Ts, Ns)]
    a = topology.a if isinstance(topology, TwoLine) else None
    records = []
    for spec, T, N, stats, check in zip(specs, Ts, Ns, _row_statistics(specs, k=k), checks):
        if not isinstance(stats, PhotonStats):
            raise stats
        if check:
            verify_dual(spec, stats, where=("" if a is None else f"a={a:.6g}, ")
                        + f"T={T:.6g}, {name}={N:.6g}")
        records.append(SweepRecord(T=T, N=N, a=a, stats=stats))
    return tuple(records)


def _two_line_row(topology: TwoLine, Ts: list[float], k: int | None,
                  checks: list[bool]) -> tuple[SweepRecord, ...]:
    """Records of one coupling ratio at widths ``Ts``, each at its :func:`maximize_p1` N."""
    return _fixed_row(topology, Ts, [_argmax_p1(topology, T)[0] for T in Ts], k, checks, "N*")


def _run_points(worker, points, workers: int) -> tuple:
    """``worker(*point)`` for every point, in order, on up to ``workers`` processes.

    Results do not depend on ``workers``; ``worker`` and the points must be
    picklable when ``workers > 1``.
    """
    if workers > 1:
        # about 8 tasks per worker or more, so that rows of uneven cost balance
        chunk = max(1, min(8, len(points) // (8 * workers)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return tuple(pool.map(worker, *zip(*points), chunksize=chunk))
    return tuple(worker(*point) for point in points)


def _check_mask(n: int) -> np.ndarray:
    rng = np.random.default_rng(_CHECK_SEED)
    return rng.random(n) < _CHECK_FRACTION


def _check_grids(T_grid, N_grid=()) -> None:
    """Raise, before any work starts, the :class:`SquarePulse` error of the
    first width, then photon number, that no square pulse takes."""
    for T, N in [(T, 0.0) for T in T_grid] + [(1.0, N) for N in N_grid]:
        SquarePulse(T=float(T), N=float(N))


def sweep_single_line(T_grid=None, N_grid=None, k: int | None = None,
                      delta: float = 0.0, workers: int = 1) -> SweepResult:
    """Count probabilities at every (T, N) of a single-line map.

    A deterministic 5 % subsample of the grid points is
    re-evaluated with the jump-counting route and must agree componentwise
    to 1e-6. Records are row-major over (T, N); reruns are bit-identical.
    """
    T_grid = np.asarray(DEFAULT_T_GRID if T_grid is None else T_grid, dtype=float)
    N_grid = np.asarray(DEFAULT_N_GRID if N_grid is None else N_grid, dtype=float)
    _check_grids(T_grid, N_grid)
    checks = _check_mask(len(T_grid) * len(N_grid)).reshape(len(T_grid), len(N_grid))
    topology = SingleLine(delta=delta)
    rows = [(topology, [float(T)] * len(N_grid), [float(N) for N in N_grid], k,
             checks[i].tolist())
            for i, T in enumerate(T_grid)]
    records = tuple(chain.from_iterable(_run_points(_fixed_row, rows, workers)))
    return SweepResult(axes={"T": T_grid, "N": N_grid}, records=records)


def sweep_two_line_slices(a_values, T: float, points: int = 120,
                          k: int | None = None, delta: float = 0.0,
                          workers: int = 1) -> SweepResult:
    """Fixed-width distributions versus N for a few coupling ratios.

    For each ratio the N grid is linear with ``points`` samples up to
    twice that ratio's pi-pulse photon number, so the first inversion lobe
    is always in view.
    """
    if isinstance(points, bool) or not isinstance(points, numbers.Integral) or points < 1:
        raise SpecError(f"points must be an integer >= 1, got points={points!r}")
    _check_grids([T])
    a_values = [float(a) for a in np.atleast_1d(a_values)]
    checks = _check_mask(len(a_values) * points).reshape(len(a_values), points)
    rows = [(TwoLine(a=a, delta=delta), [float(T)] * points,
             np.linspace(0.0, _SLICE_SPAN * pi_pulse_number(T, a), points).tolist(), k,
             checks[i].tolist())
            for i, a in enumerate(a_values)]
    records = tuple(chain.from_iterable(_run_points(_fixed_row, rows, workers)))
    return SweepResult(axes={"a": np.asarray(a_values), "T": np.asarray([T])},
                       records=records)


def sweep_two_line(a_grid=None, T_grid=None, k: int | None = None,
                   delta: float = 0.0, workers: int = 1) -> SweepResult:
    """Maximal one-photon probability over N at every (a, T).

    Each grid point records the distribution at the :func:`maximize_p1`
    maximizer, bit for bit as that call returns it, one row (a ratio with
    all its widths) per worker. Records are row-major over (a, T).
    """
    a_grid = np.asarray(DEFAULT_A_GRID if a_grid is None else a_grid, dtype=float)
    T_grid = np.asarray(DEFAULT_T_GRID if T_grid is None else T_grid, dtype=float)
    _check_grids(T_grid)
    checks = _check_mask(len(a_grid) * len(T_grid)).reshape(len(a_grid), len(T_grid))
    rows = [(TwoLine(a=float(a), delta=delta), [float(T) for T in T_grid], k,
             checks[i].tolist())
            for i, a in enumerate(a_grid)]
    records = tuple(chain.from_iterable(_run_points(_two_line_row, rows, workers)))
    return SweepResult(axes={"a": a_grid, "T": T_grid}, records=records)
