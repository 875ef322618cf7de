"""Seeded inputs, timed public calls and output checks of the four workloads.

Each workload draws an endless stream of input blocks from the run seed.
A block is stratified: it puts one draw into each equal stratum of every
drawn parameter, in a seeded order, so all blocks hold nearly the same mix
of cheap and expensive calls while each parameter keeps its stated
marginal distribution. Throughput is measured per block.
"""

from __future__ import annotations

import math

import numpy as np

import photonstat as ps


class CheckFailure(Exception):
    """An output failed the workload's correctness check."""


def _stratified(rng, n: int) -> np.ndarray:
    """n uniforms on [0, 1), one in each stratum of width 1/n, in seeded order."""
    return (rng.permutation(n) + rng.random(n)) / n


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


DUAL_TOLERANCE = 1e-6


def _dual_gap(moments, counting) -> float:
    """Largest componentwise gap between the moment and jump-counting routes."""
    return float(np.max(np.abs(moments.probabilities - counting.probabilities)))


class Workload:
    """Defaults: one item per call, no check over the whole run."""

    def items(self, x) -> int:
        return 1

    def finish(self) -> list[str]:
        """Failures of checks made over all calls of the run."""
        return []


class MapWorkload(Workload):
    """One call: ``sweep_single_line`` over one T and 24 N values (fig2 domain).

    T is log-uniform on [0.05, 5], N uniform on [0, 120] (one value per
    5-photon stratum), with the sweep's default 5 % dual check. Of 24 points
    that policy re-checks the 22nd, so every call exercises it.
    """

    name = "map"
    item = "grid points"
    n_points = 24
    trace_rate = 30.0  # untraced calls per second on a 2-core x86 container

    def warmup(self):
        return ps.sweep_single_line(T_grid=[0.5], N_grid=np.linspace(0.0, 120.0, self.n_points))

    def blocks(self, rng):
        width = 120.0 / self.n_points
        while True:
            yield [(_log_uniform(u, 0.05, 5.0),
                    [width * (j + rng.random()) for j in range(self.n_points)])
                   for u in _stratified(rng, 16)]

    def call(self, x):
        T, Ns = x
        return ps.sweep_single_line(T_grid=[T], N_grid=Ns)

    def items(self, x) -> int:
        return len(x[1])

    def check(self, x, out) -> None:
        if len(out.records) != len(x[1]):
            raise CheckFailure(f"{len(out.records)} records for {len(x[1])} points")
        for rec in out.records:
            p = rec.stats.probabilities
            if p.min() < 0.0 or abs(p.sum() - 1.0) > 1e-6:
                raise CheckFailure(f"T={rec.T:.6g}, N={rec.N:.6g}: min P_n {p.min():.3e}, "
                                   f"sum {p.sum():.12f}")


class OptimizeWorkload(Workload):
    """One call: ``maximize_p1(TwoLine(a), T)`` over the full fig5 domain.

    a is log-uniform on [0.005, 1] and T log-uniform on [0.05, 5], drawn as
    a Latin hypercube in blocks of 8 calls.
    """

    name = "optimize"
    item = "maximizations"
    trace_rate = 20.0

    def warmup(self):
        return ps.maximize_p1(ps.TwoLine(a=0.1), 0.5)

    def blocks(self, rng):
        while True:
            yield [(_log_uniform(ua, 0.005, 1.0), _log_uniform(ut, 0.05, 5.0))
                   for ua, ut in zip(_stratified(rng, 8), _stratified(rng, 8))]

    def call(self, x):
        a, T = x
        return ps.maximize_p1(ps.TwoLine(a=a), T)

    def check(self, x, out) -> None:
        a, T = x
        hi = 1.5 * ps.pi_pulse_number(T, a)
        if not 0.0 <= out.n_star <= hi:
            raise CheckFailure(f"a={a:.6g}, T={T:.6g}: n_star {out.n_star:.6g} "
                               f"outside the scanned range [0, {hi:.6g}]")
        spec = ps.DriveSpec(ps.SquarePulse(T=T, N=out.n_star), ps.TwoLine(a=a))
        counting = ps.photon_statistics(spec, method="jump-counting", k=out.stats.cutoff_k)
        gap = _dual_gap(out.stats, counting)
        if gap > DUAL_TOLERANCE:
            raise CheckFailure(f"a={a:.6g}, T={T:.6g}, N*={out.n_star:.6g}: dual gap {gap:.3e}")


class TrajWorkload(Workload):
    """One call: ``sample_trajectories`` with 1000 trajectories and its own seed.

    Specs are drawn like the randomized acceptance suite: T log-uniform on
    [0.05, 5], N uniform on [0, 100]; half single-line with detunings, half
    two-line with a in {0.01, 0.1, 0.5, 1}. Each block of 8 calls is a Latin
    hypercube in (T, N) with four calls of each topology.

    The check is the acceptance suite's rule (a bin fails beyond 3 binomial
    standard errors; bins with under one expected count are skipped; at most
    max(1, 1 %) of bins may fail), applied to the run's pooled histogram
    against the mean of the calls' jump-counting references. Pooling keeps
    the number of bins near ten: checked per call, a run of ~100 calls has
    ~350 bins, and the 1 % allowance is then exceeded by chance in about one
    run in twenty. The pooled count of a bin has at most the binomial
    variance of its mean probability, so the 3-sigma band stays valid.
    """

    name = "traj"
    item = "trajectories"
    n_traj = 1000
    trace_rate = 6.5

    def __init__(self):
        self.total_traj = 0
        self.counts = np.zeros(0)
        self.ref = np.zeros(0)

    def warmup(self):
        spec = ps.DriveSpec(ps.SquarePulse(T=0.1, N=49.35))
        return ps.sample_trajectories(spec, self.n_traj, seed=0)

    def blocks(self, rng):
        while True:
            topologies = [ps.SingleLine(delta=float(d))
                          for d in rng.choice([0.0, 0.0, 0.5, -0.5, 2.0, -2.0], 4)]
            topologies += [ps.TwoLine(a=a) for a in (0.01, 0.1, 0.5, 1.0)]
            block = []
            for j, ut, un in zip(rng.permutation(8), _stratified(rng, 8), _stratified(rng, 8)):
                pulse = ps.SquarePulse(T=_log_uniform(ut, 0.05, 5.0), N=100.0 * un)
                block.append((ps.DriveSpec(pulse, topologies[j]), int(rng.integers(2**31))))
            yield block

    def call(self, x):
        spec, seed = x
        return ps.sample_trajectories(spec, self.n_traj, seed=seed)

    def items(self, x) -> int:
        return self.n_traj

    @staticmethod
    def _add(total: np.ndarray, part: np.ndarray) -> np.ndarray:
        size = max(len(total), len(part))
        return np.pad(total, (0, size - len(total))) + np.pad(part, (0, size - len(part)))

    def check(self, x, out) -> None:
        spec, _ = x
        if out.n_traj != self.n_traj or int(out.counts.sum()) != self.n_traj:
            raise CheckFailure(f"histogram holds {int(out.counts.sum())} of {self.n_traj} "
                               "trajectories")
        ref = ps.photon_statistics(spec, method="jump-counting").probabilities
        self.counts = self._add(self.counts, np.asarray(out.counts, dtype=float))
        self.ref = self._add(self.ref, self.n_traj * np.asarray(ref, dtype=float))
        self.total_traj += self.n_traj

    def finish(self) -> list[str]:
        if not self.total_traj:
            return []
        n = self.total_traj
        p_ref = self.ref / n
        p_obs = np.pad(self.counts, (0, max(0, len(p_ref) - len(self.counts)))) / n
        top = max(i for i in range(len(p_ref)) if p_ref[i] * n >= 1.0 or i == 0)
        bins = violations = 0
        for i in range(top + 1):
            se = math.sqrt(max(p_ref[i] * (1.0 - p_ref[i]), 1e-12) / n)
            bins += 1
            violations += abs(p_obs[i] - p_ref[i]) > 3.0 * se
        if violations > max(1, int(0.01 * bins)):
            return [f"{violations}/{bins} pooled bins beyond 3 sigma over {n} trajectories"]
        return []


class SampledWorkload(Workload):
    """One call: ``photon_statistics`` by moment inversion, then jump-counting at
    the same cutoff, on a piecewise-linear envelope.

    Envelopes have zero-flux ends and 1 to 3 interior knots at seeded times
    and heights; the duration is log-uniform on [0.2, 1] and the photon
    number uniform on [2, 10], which keeps the adaptive cutoff at 4 or 6 and
    one call near 0.2-0.7 s. Each block of 6 calls has two envelopes of each
    knot count, and duration and photon number are a Latin hypercube over
    the block. These are the only calls on the Runge-Kutta and step-halving
    paths.
    """

    name = "sampled"
    item = "specs"
    trace_rate = 2.0
    D_RANGE = (0.2, 1.0)
    N_RANGE = (2.0, 10.0)

    def warmup(self):
        return self.call(ps.DriveSpec(ps.SampledPulse((0.0, 0.1, 0.3), (0.0, 40.0, 0.0))))

    def blocks(self, rng):
        while True:
            block = []
            for knots, un, ud in zip([1, 2, 3, 1, 2, 3], _stratified(rng, 6), _stratified(rng, 6)):
                D = _log_uniform(ud, self.D_RANGE[0], self.D_RANGE[1])
                N = self.N_RANGE[0] + (self.N_RANGE[1] - self.N_RANGE[0]) * un
                times = (0.0, *np.sort(rng.uniform(0.05 * D, 0.95 * D, knots)), D)
                heights = np.concatenate(([0.0], rng.uniform(0.5, 1.0, knots), [0.0]))
                area = float(np.sum(0.5 * (heights[1:] + heights[:-1]) * np.diff(times)))
                values = tuple(float(v) for v in heights * (N / area))
                block.append(ps.DriveSpec(ps.SampledPulse(tuple(float(t) for t in times), values)))
            yield block

    def call(self, spec):
        moments = ps.photon_statistics(spec)
        counting = ps.photon_statistics(spec, method="jump-counting", k=moments.cutoff_k)
        return moments, counting

    def check(self, spec, out) -> None:
        gap = _dual_gap(*out)
        if gap > DUAL_TOLERANCE:
            raise CheckFailure(f"envelope {spec.pulse.times}: dual gap {gap:.3e}")


WORKLOADS = {w.name: w for w in (MapWorkload, OptimizeWorkload, TrajWorkload, SampledWorkload)}
