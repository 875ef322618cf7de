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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .counting import PhotonStats, one_photon_probability, photon_statistics, verify_dual
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
# maximize_p1: points of the bracketing scan, its default range in pi-pulse
# photon numbers (the first inversion lobe), and the relative width at
# which golden-section refinement stops.
_SCAN_POINTS = 64
_FIRST_LOBE = 1.5
_REL_TOL = 1e-3
# sweep_two_line_slices: N range in pi-pulse photon numbers.
_SLICE_SPAN = 2.0


def pi_pulse_number(T: float, a: float | None = None) -> float:
    """Photon number at which the pulse area reaches pi."""
    if a is None:
        return math.pi ** 2 / (2.0 * T)
    return math.pi ** 2 / (4.0 * a * T)


def _spec_for(topology: Topology, T: float, N: float) -> DriveSpec:
    return DriveSpec(SquarePulse(T=T, N=N), topology)


def _golden_max(f, lo: float, hi: float, rel_tol: float) -> float:
    """Golden-section maximizer; ties keep the left subinterval."""
    inv_phi = 0.5 * (math.sqrt(5.0) - 1.0)
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > rel_tol * max(abs(0.5 * (lo + hi)), 1e-12):
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = f(x2)
    mid = 0.5 * (lo + hi)
    # prefer the left edge when the surface is flat to 1e-9
    return lo if f(lo) + 1e-9 >= f(mid) else mid


@dataclass(frozen=True)
class MaximizeResult:
    n_star: float
    stats: PhotonStats
    at_boundary: bool


def maximize_p1(topology: Topology, T: float, n_range=None,
                k: int | None = None) -> MaximizeResult:
    """Maximize the one-photon probability over the drive photon number.

    The objective is the exact ``P_1`` of :func:`one_photon_probability`,
    which needs no cutoff. A coarse scan (64 points, evaluated as one
    stack) brackets the maximum, golden-section refinement narrows it to a
    relative width below 1e-3, and ties resolve to the leftmost maximizer.
    ``stats`` is the moment-route distribution at the maximizer (cutoff
    ``k``, adaptive by default), so ``stats.p1`` equals the objective there
    to that route's accuracy. ``at_boundary`` flags a maximum on the edge
    of the scanned range. The default range covers the first inversion
    lobe, 1.5x the pi-pulse photon number.
    """
    a = topology.a if isinstance(topology, TwoLine) else None
    n_pi = pi_pulse_number(T, a)
    if n_range is None:
        n_range = (0.0, _FIRST_LOBE * n_pi)
    lo, hi = float(n_range[0]), float(n_range[1])
    if not 0 <= lo < hi:
        raise SpecError(f"need 0 <= lo < hi in the search range, got ({lo}, {hi})")
    # the range must reach the first inversion (area pi)
    if hi < n_pi:
        raise SpecError(
            f"search range [{lo}, {hi}] does not span one Rabi flop "
            f"(pi-pulse at N = {n_pi:.4g})"
        )

    def p1(n: float) -> float:
        return float(one_photon_probability(topology, T, [n])[0])

    grid = np.linspace(lo, hi, _SCAN_POINTS)
    values = one_photon_probability(topology, T, grid)
    i_best = int(np.argmax(values))
    at_boundary = i_best in (0, len(grid) - 1)
    b_lo = grid[max(i_best - 1, 0)]
    b_hi = grid[min(i_best + 1, len(grid) - 1)]
    n_star = _golden_max(p1, float(b_lo), float(b_hi), _REL_TOL)
    stats = photon_statistics(_spec_for(topology, T, n_star), k=k)
    return MaximizeResult(n_star=n_star, stats=stats, at_boundary=at_boundary)


@dataclass(frozen=True)
class SweepRecord:
    """Statistics at one grid point; ``N`` is the drive photon number used."""

    T: float
    N: float
    a: float | None
    stats: PhotonStats
    n_star: float | None = None
    at_boundary: bool = False


@dataclass(frozen=True)
class SweepResult:
    """Grid axes by name and one record per grid point, in grid order."""

    axes: dict
    records: tuple[SweepRecord, ...]


def _fixed_point(topology: Topology, T: float, N: float, k: int | None,
                 check: bool) -> SweepRecord:
    spec = _spec_for(topology, T, N)
    stats = photon_statistics(spec, k=k)
    a = topology.a if isinstance(topology, TwoLine) else None
    if check:
        verify_dual(spec, stats,
                    where=("" if a is None else f"a={a:.6g}, ") + f"T={T:.6g}, N={N:.6g}")
    return SweepRecord(T=T, N=N, a=a, stats=stats)


def _two_line_point(topology: TwoLine, T: float, k: int | None,
                     check: bool) -> SweepRecord:
    best = maximize_p1(topology, T, k=k)
    if check:
        verify_dual(_spec_for(topology, T, best.n_star), best.stats,
                    where=f"a={topology.a:.6g}, T={T:.6g}, N*={best.n_star:.6g}")
    return SweepRecord(T=T, N=best.n_star, a=topology.a, stats=best.stats,
                       n_star=best.n_star, at_boundary=best.at_boundary)


def _run_points(worker, points, workers: int) -> tuple:
    """``worker(*point)`` for every point, in order, on up to ``workers`` processes.

    Results do not depend on ``workers``; ``worker`` and the points must be
    picklable when ``workers > 1``.
    """
    if workers > 1:
        chunk = max(1, min(8, math.ceil(len(points) / workers)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return tuple(pool.map(worker, *zip(*points), chunksize=chunk))
    return tuple(worker(*point) for point in points)


def _check_mask(n: int) -> np.ndarray:
    rng = np.random.default_rng(_CHECK_SEED)
    return rng.random(n) < _CHECK_FRACTION


def sweep_single_line(T_grid=None, N_grid=None, k: int | None = None,
                      delta: float = 0.0, workers: int = 1) -> SweepResult:
    """Count probabilities at every (T, N) of a single-line map.

    A deterministic 5 % subsample of the grid points is
    re-evaluated with the jump-counting route and must agree componentwise
    to 1e-6. Records are row-major over (T, N); reruns are bit-identical.
    """
    T_grid = np.asarray(DEFAULT_T_GRID if T_grid is None else T_grid, dtype=float)
    N_grid = np.asarray(DEFAULT_N_GRID if N_grid is None else N_grid, dtype=float)
    if np.any(T_grid <= 0) or np.any(N_grid < 0):
        raise SpecError("pulse widths must be positive and photon numbers non-negative")
    checks = _check_mask(len(T_grid) * len(N_grid))
    topology = SingleLine(delta=delta)
    points = [(topology, float(T), float(N), k, bool(checks[i * len(N_grid) + j]))
              for i, T in enumerate(T_grid) for j, N in enumerate(N_grid)]
    records = _run_points(_fixed_point, points, workers)
    return SweepResult(axes={"T": T_grid, "N": N_grid}, records=records)


def sweep_two_line_slices(a_values, T: float, points: int = 120,
                          k: int | None = None, delta: float = 0.0,
                          workers: int = 1) -> SweepResult:
    """Fixed-width distributions versus N for a few coupling ratios.

    For each ratio the N grid is linear with ``points`` samples up to
    twice that ratio's pi-pulse photon number, so the first inversion lobe
    is always in view.
    """
    a_values = [float(a) for a in np.atleast_1d(a_values)]
    checks = _check_mask(len(a_values) * points)
    pts = []
    for i, a in enumerate(a_values):
        for j, N in enumerate(np.linspace(0.0, _SLICE_SPAN * pi_pulse_number(T, a), points)):
            pts.append((TwoLine(a=a, delta=delta), float(T), float(N), k,
                        bool(checks[i * points + j])))
    records = _run_points(_fixed_point, pts, workers)
    return SweepResult(axes={"a": np.asarray(a_values), "T": np.asarray([T])},
                       records=records)


def sweep_two_line(a_grid=None, T_grid=None, k: int | None = None,
                   delta: float = 0.0, workers: int = 1) -> SweepResult:
    """Maximal one-photon probability over N at every (a, T).

    Each grid point runs :func:`maximize_p1` and records the distribution
    at the maximizing photon number. Records are row-major over (a, T).
    """
    a_grid = np.asarray(DEFAULT_A_GRID if a_grid is None else a_grid, dtype=float)
    T_grid = np.asarray(DEFAULT_T_GRID if T_grid is None else T_grid, dtype=float)
    if np.any(T_grid <= 0):
        raise SpecError("pulse widths must be positive")
    checks = _check_mask(len(a_grid) * len(T_grid))
    points = [(TwoLine(a=float(a), delta=delta), float(T), k,
               bool(checks[i * len(T_grid) + j]))
              for i, a in enumerate(a_grid) for j, T in enumerate(T_grid)]
    records = _run_points(_two_line_point, points, workers)
    return SweepResult(axes={"a": a_grid, "T": T_grid}, records=records)
