"""Analytic limits of the resonant model, stated as fitted limits.

Each check evaluates a ratio to the limit at two small values of the small
parameter, extrapolates it linearly to zero, and bounds the extrapolated
ratio. The parameters are fixed by the derivation, not tuned to pass.
"""

import math

import pytest

import photonstat as ps
from photonstat.liouville import drive_coefficient, total_decay_rate
from photonstat.sweeps import pi_pulse_number


def monitored_rate(topology):
    """gamma_mon: the decay rate into the monitored line."""
    return 1.0 if isinstance(topology, ps.TwoLine) else 0.5


def at_zero(x1, r1, x2, r2):
    """The line through ``(x1, r1)`` and ``(x2, r2)``, read at x = 0."""
    return (x1 * r2 - x2 * r1) / (x1 - x2)


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
        assert abs(at_zero(n1, r1, n2, r2) - 1.0) <= 1e-8


class TestShortPiPulse:
    """Re-excitation during a short pi pulse (Fischer et al., Nat. Phys. 13,
    649 (2017)): at N = pi_pulse_number(T, a) the emitter is inverted once,
    and a second photon needs an emission during the pulse and a re-excitation,
    so as T -> 0

        P_2 / (gamma T) -> (gamma_mon / gamma)^2 / 8,

    with relative error O(gamma T). The line through the ratios at the two
    widths leaves an error O(gamma^2 T1 T2) = O(1e-4), which bounds it.
    The window is T + 40 / gamma, so the undriven tail is complete to e^-40.
    """

    WIDTHS = (0.02, 0.005)

    @pytest.mark.parametrize("topology, a", [(ps.SingleLine(), None), (ps.TwoLine(a=0.1), 0.1)])
    def test_two_photon_probability_tends_to_the_limit(self, topology, a):
        rate = total_decay_rate(topology)
        limit = (monitored_rate(topology) / rate) ** 2 / 8.0
        ratios = []
        for T in self.WIDTHS:
            spec = ps.DriveSpec(ps.SquarePulse(T=T, N=pi_pulse_number(T, a)), topology,
                                t_end=T + 40.0 / rate)
            ratios.append(ps.photon_statistics(spec).probabilities[2] / (rate * T * limit))
        (t1, r1), (t2, r2) = zip(self.WIDTHS, ratios)
        assert abs(at_zero(t1, r1, t2, r2) - 1.0) <= 1e-4


class TestLongPulse:
    """Steady-state resonance fluorescence (Mollow, Phys. Rev. 188, 1969
    (1969); Mandel, Opt. Lett. 4, 205 (1979)): under a long square pulse of
    flux N/T the mean count grows at the rate

        dN_1/dT -> gamma_mon Omega^2 / (gamma^2 + 2 Omega^2),

    with Omega^2 = 4 drive_coefficient N / T, and the Mandel Q parameter
    (2 N_2 - N_1^2) / N_1 tends to

        Q -> -6 gamma_mon gamma Omega^2 / (gamma^2 + 2 Omega^2)^2.

    Each ratio to its limit is 1 + c x + (transients) in x = 1 / T, and
    (2 N_2 - N_1^2) / N_1 is Q + c x in x = 1 / N_1; the line through the
    values at T = 20 and 40 is the slope between them. The transients decay at
    least as exp(-gamma T / 2), at most e^-10 = 4.5e-5 at T = 20, and are
    divided by a span of 20 decay times, so 1e-5 bounds the error. Only the
    binomial moments N_1 and N_2 enter, so no cutoff beyond k = 2 is needed
    and the check reaches drives whose full distributions the ladder refuses.
    """

    WIDTHS = (20.0, 40.0)

    @pytest.mark.parametrize("topology, flux", [
        (ps.SingleLine(), 0.5), (ps.SingleLine(), 5.0),
        (ps.TwoLine(a=0.1), 0.5), (ps.TwoLine(a=0.1), 5.0),
    ])
    def test_count_rate_and_mandel_q_tend_to_the_limits(self, topology, flux):
        gamma, monitored = total_decay_rate(topology), monitored_rate(topology)
        omega2 = 4.0 * drive_coefficient(topology) * flux
        rate = monitored * omega2 / (gamma ** 2 + 2.0 * omega2)
        q = -6.0 * monitored * gamma * omega2 / (gamma ** 2 + 2.0 * omega2) ** 2
        points = []
        for T in self.WIDTHS:
            n1, n2 = ps.binomial_moments(ps.DriveSpec(ps.SquarePulse(T=T, N=flux * T),
                                                      topology), 2)
            points.append((T, n1, 2.0 * n2 - n1 * n1))
        (t1, a1, v1), (t2, a2, v2) = points
        assert abs(at_zero(1 / t1, a1 / (rate * t1), 1 / t2, a2 / (rate * t2)) - 1.0) <= 1e-5
        assert abs(at_zero(1 / a1, v1 / a1, 1 / a2, v2 / a2) / q - 1.0) <= 1e-5
