"""Analytic limits of the resonant model, stated as fitted limits.

Each check evaluates a ratio to the limit at two small values of the small
parameter, extrapolates it linearly to zero, and bounds the extrapolated
ratio. The parameters are fixed by the derivation, not tuned to pass.
"""

import math

import pytest

import photonstat as ps
from photonstat.liouville import drive_coefficient, total_decay_rate


def monitored_rate(topology):
    """gamma_mon: the decay rate into the monitored line."""
    return 1.0 if isinstance(topology, ps.TwoLine) else 0.5


class TestWeakDrive:
    """Linear response (coherent scattering): as N -> 0 the mean count of a
    resonant square pulse of width T tends to

        N_1 = gamma_mon (Omega / gamma)^2 [T - 4 (1 - x) / gamma
              + (1 - x^2) / gamma + (1 - x)^2 / gamma],   x = exp(-gamma T / 2),

    with Omega^2 = 4 drive_coefficient N / T, and the relative error is O(N).

    The window is T + 40 / gamma, so the undriven tail is complete to e^-40.
    With the default window (T + 12 / gamma) the tail misses about e^-12 of
    the emission and the extrapolated ratio stops at 0.999994-0.999998.
    """

    FLUXES = (1e-4, 5e-5)

    @staticmethod
    def limit(topology, T, N):
        rate = total_decay_rate(topology)
        x = math.exp(-rate * T / 2.0)
        omega2 = 4.0 * drive_coefficient(topology) * N / T
        return (monitored_rate(topology) * omega2 / rate ** 2
                * (T - 4.0 * (1.0 - x) / rate + (1.0 - x * x) / rate + (1.0 - x) ** 2 / rate))

    @pytest.mark.parametrize("topology, T", [
        (ps.SingleLine(), 0.05), (ps.SingleLine(), 0.5), (ps.SingleLine(), 2.0),
        (ps.SingleLine(), 5.0),
        (ps.TwoLine(a=1.0), 0.5), (ps.TwoLine(a=1.0), 3.0),
        (ps.TwoLine(a=0.1), 0.5), (ps.TwoLine(a=0.1), 3.0),
    ])
    def test_mean_count_tends_to_linear_response(self, topology, T):
        t_end = T + 40.0 / total_decay_rate(topology)
        ratios = []
        for N in self.FLUXES:
            spec = ps.DriveSpec(ps.SquarePulse(T=T, N=N), topology, t_end=t_end)
            ratios.append(ps.binomial_moments(spec, 1)[0] / self.limit(topology, T, N))
        (n1, r1), (n2, r2) = zip(self.FLUXES, ratios)
        extrapolated = (n1 * r2 - n2 * r1) / (n1 - n2)
        assert abs(extrapolated - 1.0) <= 1e-8
