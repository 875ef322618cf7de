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
It maximizes a row of widths together (:func:`maximize_p1` is a row of one):
one k = 1 call scans them all, then their golden-section walks, each a pure
function of its memo, advance in lockstep with one call per round.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .counting import (
    PhotonStats,
    _check_cutoff,
    _one_photon,
    _row_statistics,
    _window_share,
    photon_statistics,
    verify_dual,
)
from .errors import check_integer
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
    _check_grids([T])  # SquarePulse's error for a width outside 0 < T < inf
    if a is None:
        return math.pi ** 2 / (2.0 * T)
    return math.pi ** 2 / (4.0 * TwoLine(a=a).a * T)  # TwoLine checks 0 < a <= 1


def _golden_max(lo: float, hi: float, rel_tol: float, values: dict) -> float | list[float]:
    """Golden-section maximizer over ``[lo, hi]`` on the memo ``values`` (point:
    value); ties keep the left subinterval.

    Returns the maximizer when ``values`` holds every probe the walk reads, else the
    probes it misses, each once. The walk steps while both interior probes of its
    state are known; the request then covers the state it waits at and the states
    of the next ``_LOOKAHEAD`` levels under every outcome of their comparisons (one
    level more on the first request, where both interior probes are new): the
    interior probes of an open state, only the final pair of a state that stops.
    Fed back, they let the walk run on as it would one probe at a time.
    """
    # the step and the stopping test are written out: as calls they took ~1/5 of the walk
    x1, x2 = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    while (is_open := hi - lo > rel_tol * max(abs(0.5 * (lo + hi)), 1e-12)) and (
            x1 in values and x2 in values):
        lo, hi, x1, x2 = ((lo, x2, x2 - _INV_PHI * (x2 - lo), x1) if values[x1] >= values[x2]
                          else (x1, hi, x2, x1 + _INV_PHI * (hi - x1)))
    mid = 0.5 * (lo + hi)
    if not is_open and lo in values and mid in values:
        # prefer the left edge when the surface is flat to 1e-9
        return lo if values[lo] + 1e-9 >= values[mid] else mid
    out, states = [], [(lo, hi, x1, x2)]
    for levels in range(_LOOKAHEAD + 1 - (x1 in values or x2 in values), 0, -1):
        grown, states = states, []
        for lo, hi, x1, x2 in grown:
            if not hi - lo > rel_tol * max(abs(0.5 * (lo + hi)), 1e-12):
                out += [lo, 0.5 * (lo + hi)]
                continue
            out += [x1, x2]
            if levels > 1:  # keep [lo, x2] with a new x1, or [x1, hi] with a new x2
                states += [(lo, x2, x2 - _INV_PHI * (x2 - lo), x1),
                           (x1, hi, x2, x1 + _INV_PHI * (hi - x1))]
    return [x for x in dict.fromkeys(out) if x not in values]


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
    _check_grids([T], k=k)
    ((n_star, at_boundary),) = _argmax_p1(topology, [T])
    stats = photon_statistics(DriveSpec(SquarePulse(T=T, N=n_star), topology), k=k)
    return MaximizeResult(n_star=n_star, stats=stats, at_boundary=at_boundary)


def _argmax_p1(topology: Topology, Ts: list[float]) -> list[tuple[float, bool]]:
    """The :func:`maximize_p1` maximizer at each width of ``Ts``, and whether it lies
    at the edge of its scan: one k = 1 call for all the scans, then one per round
    over the probes that the open walks miss, each walk as if alone."""
    a = topology.a if isinstance(topology, TwoLine) else None
    widths = np.array([(T, _window_share(topology, T)) for T in Ts]).reshape(-1, 2)
    grids = np.array([np.linspace(0.0, _FIRST_LOBE * pi_pulse_number(T, a), _SCAN_POINTS)
                      for T in Ts]).reshape(-1, _SCAN_POINTS)
    pulses = widths.repeat(_SCAN_POINTS, axis=0)
    scans = _one_photon(topology, pulses[:, 0], pulses[:, 1:], grids.ravel())
    best = scans.reshape(grids.shape).argmax(axis=-1).tolist()
    walks = [(grid[max(i - 1, 0)], grid[min(i + 1, _SCAN_POINTS - 1)], _REL_TOL, {})
             for grid, i in zip(grids.tolist(), best)]
    n_star = [None] * len(Ts)  # each walk's maximizer, or the probes it misses
    pending = range(len(Ts))
    while pending:
        for i in pending:
            n_star[i] = _golden_max(*walks[i])
        pending = [i for i in pending if isinstance(n_star[i], list)]
        if pending:
            pulses = widths[[i for i in pending for _ in n_star[i]]]
            points = np.array(list(chain.from_iterable(n_star[i] for i in pending)))
            values = iter(_one_photon(topology, pulses[:, 0], pulses[:, 1:], points).tolist())
            for i in pending:
                walks[i][3].update(zip(n_star[i], values))  # zip takes len(n_star[i]) values
    return [(n, i in (0, _SCAN_POINTS - 1)) for n, i in zip(n_star, best)]


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
    ``name``; one :func:`verify_dual` row) are met in point order."""
    specs = [DriveSpec(SquarePulse(T=T, N=N), topology) for T, N in zip(Ts, Ns)]
    a = topology.a if isinstance(topology, TwoLine) else None
    stats = _row_statistics(specs, k=k)
    failed = next((i for i, s in enumerate(stats) if not isinstance(s, PhotonStats)), len(specs))
    checked = [i for i in range(failed) if checks[i]]
    verify_dual([specs[i] for i in checked], [stats[i] for i in checked], where=[
        ("" if a is None else f"a={a:.6g}, ") + f"T={Ts[i]:.6g}, {name}={Ns[i]:.6g}" for i in checked])
    if failed < len(specs):
        raise stats[failed]
    return tuple(SweepRecord(T=T, N=N, a=a, stats=s) for T, N, s in zip(Ts, Ns, stats))


def _two_line_row(topology: TwoLine, Ts: list[float], k: int | None,
                  checks: list[bool]) -> tuple[SweepRecord, ...]:
    """Records of one coupling ratio at widths ``Ts``, each at its :func:`maximize_p1` N."""
    return _fixed_row(topology, Ts, [n for n, _ in _argmax_p1(topology, Ts)], k, checks, "N*")


def _pool_size(workers: int, tasks: int) -> int:
    """Up to ``workers`` processes, one per task and per CPU: a pool starts them all at once."""
    return min(workers, tasks, os.cpu_count() or 1)


def _run_points(worker, points, workers: int) -> tuple:
    """``worker(*point)`` for every point, in order, on :func:`_pool_size`
    processes; with one, the points run here.

    Results do not depend on ``workers``; ``worker`` and the points must be
    picklable when a pool runs.
    """
    workers = _pool_size(workers, len(points))
    if workers > 1:
        # imported here: the pool's modules add ~20 ms to every package import
        from concurrent.futures import ProcessPoolExecutor

        # about 8 tasks per worker or more, so that rows of uneven cost balance
        chunk = max(1, min(8, len(points) // (8 * workers)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return tuple(pool.map(worker, *zip(*points), chunksize=chunk))
    return tuple(worker(*point) for point in points)


def _check_mask(n: int) -> np.ndarray:
    rng = np.random.default_rng(_CHECK_SEED)
    return rng.random(n) < _CHECK_FRACTION


def _check_grids(T_grid, N_grid=(), k: int | None = None) -> None:
    """Raise, before any work starts, the :class:`SquarePulse` error of the
    first width, then photon number, that no square pulse takes, then the
    error of a cutoff ``k`` other than ``None`` that is not an integer >= 1."""
    for T, N in [(T, 0.0) for T in T_grid] + [(1.0, N) for N in N_grid]:
        SquarePulse(T=float(T), N=float(N))
    if k is not None:
        _check_cutoff(k)


def sweep_single_line(T_grid=None, N_grid=None, k: int | None = None,
                      delta: float = 0.0, workers: int = 1) -> SweepResult:
    """Count probabilities at every (T, N) of a single-line map.

    A deterministic 5 % subsample of the grid points is
    re-evaluated with the jump-counting route and must agree componentwise
    to 1e-6. Records are row-major over (T, N); reruns are bit-identical.
    """
    T_grid = np.asarray(DEFAULT_T_GRID if T_grid is None else T_grid, dtype=float)
    N_grid = np.asarray(DEFAULT_N_GRID if N_grid is None else N_grid, dtype=float)
    _check_grids(T_grid, N_grid, k)
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
    check_integer(points, "points", 1)
    _check_grids([T], k=k)
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
    _check_grids(T_grid, k=k)
    checks = _check_mask(len(a_grid) * len(T_grid)).reshape(len(a_grid), len(T_grid))
    rows = [(TwoLine(a=float(a), delta=delta), [float(T) for T in T_grid], k,
             checks[i].tolist())
            for i, a in enumerate(a_grid)]
    records = tuple(chain.from_iterable(_run_points(_two_line_row, rows, workers)))
    return SweepResult(axes={"a": a_grid, "T": T_grid}, records=records)
