import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

import photonstat as ps
from conftest import TimeGrid, random_square_spec, time_grid
from photonstat import counting
from photonstat.counting import (
    DUAL_TOLERANCE,
    MAX_CUTOFF,
    NORMALIZATION_TOLERANCE,
    verify_dual,
)
from photonstat.errors import CutoffError, NumericalError, SpecError, TailError
from photonstat.liouville import vectorize

UNDRIVEN_EXCITED = ps.DriveSpec(ps.SquarePulse(T=1.0, N=0.0), t_end=20.0)
PI_PULSE = ps.DriveSpec(ps.SquarePulse(T=0.1, N=np.pi**2 / 0.2))


@pytest.fixture(scope="module")
def pi_grid():
    return time_grid(PI_PULSE)


def moments_by_quadrature(grid: TimeGrid, njump: np.ndarray, m: int) -> float:
    """Literal nested quadrature of the coincidence integrals, m in {1, 2}.

    Discretization-limited (grid-level accuracy); retained as an
    independent cross-check of the hierarchy values.
    """
    times = grid.times
    tr_rows = njump[0, :] + njump[3, :]
    g1 = np.array([(tr_rows @ vectorize(s)).real for s in grid.states])
    if m == 1:
        total = 0.0
        edges = grid.spec.breakpoints()
        for a, b in zip(edges, edges[1:]):
            i0 = int(np.searchsorted(times, a))
            i1 = int(np.searchsorted(times, b))
            total += simpson(g1[i0:i1 + 1], x=times[i0:i1 + 1])
        return float(total)
    if m != 2:
        raise SpecError("literal quadrature implemented for m <= 2 only")

    n_seg = len(grid.segments)
    carried = np.zeros((n_seg + 1, 4), dtype=complex)
    inner = np.zeros(n_seg + 1)
    g_prev = np.zeros(n_seg + 1)
    for j in range(n_seg):
        carried[j] = njump @ vectorize(grid.states[j])
        g_prev[j] = 0.0  # equal-time coincidences vanish
        h = times[j + 1] - times[j]
        carried[:j + 1] = carried[:j + 1] @ grid.segments[j].T
        g_now = (carried[:j + 1] @ tr_rows).real
        inner[:j + 1] += 0.5 * h * (g_prev[:j + 1] + g_now)
        g_prev[:j + 1] = g_now
    return float(np.trapezoid(inner, times))


def test_package_import_leaves_out_scipy():
    code = ("import sys, photonstat.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


class TestBinomialMoments:
    def test_vacuum_input_gives_zero_moments(self):
        spec = ps.DriveSpec(ps.SquarePulse(T=0.1, N=0.0))
        moments = ps.binomial_moments(spec, 4)
        assert np.all(moments == 0.0)

    def test_single_excitation_gives_half_photon(self):
        moments = ps.binomial_moments(UNDRIVEN_EXCITED, 4, rho0=ps.EXCITED)
        assert moments[0] == pytest.approx(0.5, abs=1e-6)
        assert moments[1] <= 1e-9  # one excitation can never produce a pair

    def test_pi_pulse_moments_vs_literal_quadrature(self, pi_grid):
        nj = ps.jump_superop(PI_PULSE)
        moments = ps.binomial_moments(PI_PULSE, 4)
        assert 0.4 < moments[0] < 0.6
        assert moments[1] < 0.01
        n1_quad = moments_by_quadrature(pi_grid, nj, 1)
        n2_quad = moments_by_quadrature(pi_grid, nj, 2)
        assert abs(n1_quad - moments[0]) < 1e-7
        assert abs(n2_quad - moments[1]) < 5e-6

    def test_rejects_bad_cutoff(self):
        with pytest.raises(SpecError):
            ps.binomial_moments(UNDRIVEN_EXCITED, 0, rho0=ps.EXCITED)


class TestCorrelator:
    def test_first_order_at_zero_is_half_population(self):
        assert ps.correlator(UNDRIVEN_EXCITED, [0.0],
                             rho0=ps.EXCITED) == pytest.approx(0.5, abs=1e-12)

    def test_coincident_times_vanish(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            spec = random_square_spec(rng)
            t = float(rng.uniform(0.0, spec.t_end))
            assert abs(ps.correlator(spec, [t, t])) <= 1e-12
            later = float(rng.uniform(t, spec.t_end))
            assert abs(ps.correlator(spec, [t, t, later])) <= 1e-12

    def test_first_order_integral_equals_first_moment(self, pi_grid):
        nj = ps.jump_superop(PI_PULSE)
        n1 = ps.binomial_moments(PI_PULSE, 1)[0]
        assert abs(moments_by_quadrature(pi_grid, nj, 1) - n1) < 1e-8

    def test_rejects_unsorted_times(self):
        with pytest.raises(SpecError, match="non-decreasing"):
            ps.correlator(UNDRIVEN_EXCITED, [1.0, 0.5], rho0=ps.EXCITED)

    def test_rejects_times_outside_window(self):
        with pytest.raises(SpecError):
            ps.correlator(UNDRIVEN_EXCITED, [19.0, 21.0], rho0=ps.EXCITED)

    def test_second_order_positive_for_separated_times(self):
        assert ps.correlator(PI_PULSE, [0.05, 0.3]) > 0.0


class TestInvertMoments:
    def test_worked_example(self):
        probs = ps.invert_moments([0.5, 0.05])
        assert np.allclose(probs, [0.55, 0.40, 0.05], atol=1e-15)

    def test_zero_moments_mean_vacuum(self):
        probs = ps.invert_moments([0.0, 0.0, 0.0])
        assert np.array_equal(probs, [1.0, 0.0, 0.0, 0.0])

    def test_two_photon_state(self):
        probs = ps.invert_moments([2.0, 1.0, 0.0])
        assert np.allclose(probs, [0.0, 0.0, 1.0, 0.0], atol=1e-15)

    def test_round_trip_restores_moments(self):
        moments = np.array([0.7, 0.2, 0.03, 0.002])
        probs = ps.invert_moments(moments)
        back = ps.moments_from_probabilities(probs, len(moments))
        assert np.max(np.abs(back - moments)) < 1e-12

    def test_inconsistent_moments_raise(self):
        with pytest.raises(NumericalError, match="inadequate cutoff"):
            ps.invert_moments([0.0, 0.5])

    def test_tiny_negative_values_clamp_to_zero(self):
        probs = ps.invert_moments([1e-10, 5.1e-11])
        assert probs[1] == 0.0
        assert np.all(probs >= 0.0)


def formula_inversion(moments):
    """P_n = sum_{m>=n} (-1)^(m-n) C(m, n) N_m, written as the formula reads."""
    full = np.concatenate(([1.0], moments))
    k = len(moments)
    return np.array([sum((-1) ** (m - n) * math.comb(m, n) * full[m] for m in range(n, k + 1))
                     for n in range(k + 1)])


def formula_moments(probs, k):
    """N_m = sum_{n>=m} C(n, m) P_n, written as the formula reads."""
    return np.array([sum(math.comb(n, m) * probs[n] for n in range(m, len(probs)))
                     for m in range(1, k + 1)])


class TestInversionArithmetic:
    def test_bit_identical_to_the_formula(self):
        rng = np.random.default_rng(11)
        for i in range(200):
            k = 1 + i % 16
            probs = rng.dirichlet(np.full(k + 1, rng.uniform(0.05, 3.0)))
            moments = formula_moments(probs, k)
            got = ps.moments_from_probabilities(probs, k)
            assert np.array_equal(got, moments)
            assert np.array_equal(np.signbit(got), np.signbit(moments))
            want = formula_inversion(moments)
            got = ps.invert_moments(moments)
            assert np.array_equal(got, np.where(want < 0, 0.0, want))
            assert np.array_equal(np.signbit(got), np.signbit(np.where(want < 0, 0.0, want)))

    def test_moments_beyond_the_distribution_are_zero(self):
        assert np.array_equal(ps.moments_from_probabilities([0.25, 0.75], 3), [0.75, 0.0, 0.0])


class TestCutoffType:
    @pytest.mark.parametrize("call", [
        lambda k: ps.photon_statistics(PI_PULSE, k=k),
        lambda k: ps.photon_statistics(PI_PULSE, method="jump-counting", k=k),
        lambda k: ps.binomial_moments(PI_PULSE, k),
        lambda k: ps.counting_distribution(PI_PULSE, k),
        lambda k: ps.maximize_p1(ps.SingleLine(), 0.1, k=k),
        lambda k: ps.sweep_single_line(T_grid=[0.1], N_grid=[1.0, 2.0], k=k),
        lambda k: ps.sweep_two_line_slices([0.5], T=0.1, points=3, k=k),
    ], ids=["moments", "counting", "binomial_moments", "counting_distribution",
            "maximize_p1", "sweep_single_line", "sweep_two_line_slices"])
    @pytest.mark.parametrize("k", [2.5, 6.0, True, 0, -2])
    def test_cutoff_must_be_a_positive_integer(self, call, k):
        with pytest.raises(SpecError, match=rf"cutoff k must be an integer >= 1, got k={k!r}"):
            call(k)

    def test_numpy_integer_accepted(self):
        stats = ps.photon_statistics(PI_PULSE, k=np.int64(6))
        assert stats.cutoff_k == 6
        assert np.array_equal(stats.probabilities,
                              ps.photon_statistics(PI_PULSE, k=6).probabilities)


class TestCountingDistribution:
    def test_single_excitation_is_fair_coin(self):
        probs = ps.counting_distribution(UNDRIVEN_EXCITED, 4, rho0=ps.EXCITED)
        assert probs[0] == pytest.approx(0.5, abs=1e-6)
        assert probs[1] == pytest.approx(0.5, abs=1e-6)
        assert np.all(probs[2:] < 1e-8)

    def test_vacuum_input(self):
        spec = ps.DriveSpec(ps.SquarePulse(T=0.1, N=0.0))
        probs = ps.counting_distribution(spec, 2)
        assert probs[0] == 1.0
        assert np.all(probs[1:] == 0.0)

    def test_insufficient_cutoff_raises(self):
        with pytest.raises(CutoffError, match="insufficient"):
            ps.counting_distribution(PI_PULSE, 1)

    def test_matches_moment_inversion_on_random_specs(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            spec = random_square_spec(rng)
            sm = ps.photon_statistics(spec)
            sc = ps.photon_statistics(spec, method="jump-counting", k=sm.cutoff_k)
            assert np.max(np.abs(sm.probabilities - sc.probabilities)) < 1e-6


# the domain of conftest.random_square_spec
SQUARE_SPECS = st.builds(
    ps.DriveSpec,
    st.builds(ps.SquarePulse, T=st.floats(0.05, 5.0), N=st.floats(0.0, 100.0)),
    st.one_of(st.sampled_from([ps.SingleLine(delta=d) for d in (0.0, 0.5, -0.5, 2.0, -2.0)]),
              st.sampled_from([ps.TwoLine(a=a) for a in (0.01, 0.1, 0.5, 1.0)])),
)


class TestPhotonStatistics:
    def test_distribution_invariants(self):
        stats = ps.photon_statistics(PI_PULSE)
        assert stats.probabilities.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.all(stats.probabilities >= 0.0)
        assert len(stats.probabilities) == stats.cutoff_k + 1
        for m in range(1, stats.cutoff_k + 1):
            implied = sum(math.comb(n, m) * stats.probabilities[n]
                          for n in range(m, len(stats.probabilities)))
            assert abs(implied - stats.moments[m - 1]) < 1e-8

    def test_cutoff_escalates_for_strong_drive(self):
        spec = ps.DriveSpec(ps.SquarePulse(T=5.0, N=100.0))
        stats = ps.photon_statistics(spec)
        assert stats.cutoff_k > 4
        assert stats.tail_bound == stats.moments[-1]

    def test_monotone_cutoff_in_short_pulse_regime(self):
        stats4 = ps.photon_statistics(PI_PULSE, k=4)
        stats6 = ps.photon_statistics(PI_PULSE, k=6)
        upto = len(stats4.probabilities)
        change = np.max(np.abs(stats4.probabilities - stats6.probabilities[:upto]))
        assert change <= stats4.tail_bound + 1e-15

    def test_window_doubling_stability(self):
        for topo in (ps.SingleLine(), ps.TwoLine(a=0.01)):
            base = ps.DriveSpec(ps.SquarePulse(T=0.1, N=49.35), topo)
            wide = ps.DriveSpec(ps.SquarePulse(T=0.1, N=49.35), topo, t_end=2 * base.t_end)
            pa = ps.photon_statistics(base).probabilities
            pb = ps.photon_statistics(wide).probabilities
            upto = min(len(pa), len(pb))
            assert np.max(np.abs(pa[:upto] - pb[:upto])) < 1e-5

    @given(SQUARE_SPECS)
    @settings(max_examples=30, deadline=None)
    def test_window_doubling_jump_counting(self, spec):
        wide = replace(spec, t_end=2 * spec.t_end)
        pa = ps.photon_statistics(spec, method="jump-counting").probabilities
        pb = ps.photon_statistics(wide, method="jump-counting").probabilities
        n = max(len(pa), len(pb))
        assert np.max(np.abs(np.pad(pa, (0, n - len(pa))) - np.pad(pb, (0, n - len(pb))))) < 1e-5

    def test_jump_route_reports_method_and_tail(self):
        stats = ps.photon_statistics(PI_PULSE, method="jump-counting")
        assert stats.method == "jump-counting"
        assert 0.0 <= stats.tail_bound < 1e-6

    def test_excited_initial_state(self):
        stats = ps.photon_statistics(UNDRIVEN_EXCITED, rho0=ps.EXCITED)
        assert stats.probabilities[0] == pytest.approx(0.5, abs=1e-6)
        assert stats.probabilities[1] == pytest.approx(0.5, abs=1e-6)

    def test_unknown_method_rejected(self):
        with pytest.raises(SpecError, match="unknown method"):
            ps.photon_statistics(PI_PULSE, method="guesswork")

    def test_sampled_envelope_and_square_agree(self):
        T, N = 0.1, 30.0
        sq = ps.DriveSpec(ps.SquarePulse(T=T, N=N), t_end=5.0)
        sa = ps.DriveSpec(ps.SampledPulse((0.0, T), (N / T, N / T)), t_end=5.0)
        pa = ps.photon_statistics(sq, k=5).probabilities
        pb = ps.photon_statistics(sa, k=5).probabilities
        assert np.max(np.abs(pa - pb)) < 1e-6
        ja = ps.photon_statistics(sq, method="jump-counting", k=5).probabilities
        jb = ps.photon_statistics(sa, method="jump-counting", k=5).probabilities
        assert np.max(np.abs(ja - jb)) < 1e-6


# mean count ~5: beyond both routes at the cutoff cap
BEYOND_CAP = ps.DriveSpec(ps.SquarePulse(T=20.0, N=400.0))


class TestCutoffLadder:
    @pytest.fixture
    def cutoffs(self, monkeypatch):
        """Cutoffs of each route's hierarchy evaluations, in call order."""
        seen = {"binomial_moments": [], "counting_distribution": []}
        original = counting._level_traces

        def recording(specs, k, rho0, resolved):
            seen["counting_distribution" if resolved else "binomial_moments"].append(k)
            return original(specs, k, rho0, resolved)

        monkeypatch.setattr(counting, "_level_traces", recording)
        return seen

    def test_moment_route_climbs_to_the_cap(self, cutoffs):
        with pytest.raises(TailError):
            ps.photon_statistics(BEYOND_CAP)
        assert cutoffs["binomial_moments"] == list(range(4, MAX_CUTOFF + 1, 2))
        assert cutoffs["counting_distribution"] == []

    def test_counting_route_climbs_to_the_cap(self, cutoffs):
        with pytest.raises(CutoffError, match=f"beyond n_max={MAX_CUTOFF}") as info:
            ps.photon_statistics(BEYOND_CAP, method="jump-counting")
        assert not isinstance(info.value, TailError)
        assert cutoffs["counting_distribution"] == list(range(4, MAX_CUTOFF + 1, 2))
        assert cutoffs["binomial_moments"] == []

    def test_explicit_cutoff_is_one_call_per_route(self, cutoffs):
        ps.photon_statistics(PI_PULSE, k=6)
        ps.photon_statistics(PI_PULSE, method="jump-counting", k=6)
        assert cutoffs == {"binomial_moments": [6], "counting_distribution": [6]}


# Draw 9 of random_square_spec(default_rng(14)): inside the randomized suite's
# domain, and its top moment meets the tail tolerance only at k = 16.
INVERSION_MARGIN_SPEC = ps.DriveSpec(
    ps.SquarePulse(T=4.506417878639353, N=75.97189519884036), ps.TwoLine(a=1.0))


class TestInversionMargin:
    def test_jump_counting_converges(self):
        stats = ps.photon_statistics(INVERSION_MARGIN_SPEC, method="jump-counting")
        assert stats.cutoff_k <= MAX_CUTOFF
        assert stats.tail_bound < 1e-6

    def test_moment_route_converges(self):
        stats = ps.photon_statistics(INVERSION_MARGIN_SPEC)
        ref = ps.photon_statistics(INVERSION_MARGIN_SPEC, method="jump-counting",
                                   k=stats.cutoff_k)
        assert np.max(np.abs(stats.probabilities - ref.probabilities)) < DUAL_TOLERANCE

    @pytest.mark.xfail(strict=True, raises=NumericalError,
                       reason="inversion yields P_n = -9.867e-09 at the cutoff cap")
    def test_moment_route_converges_at_domain_corner(self):
        # T and N at the top of the randomized suite's domain; jump counting
        # converges here at k = 12
        spec = ps.DriveSpec(ps.SquarePulse(T=5.0, N=100.0), ps.TwoLine(a=1.0))
        verify_dual(spec, ps.photon_statistics(spec))

    def test_moment_route_beyond_cap_raises_tail_error(self):
        # mean count ~5: the top moment is still 5e-3 at the cap
        spec = ps.DriveSpec(ps.SquarePulse(T=20.0, N=400.0))
        with pytest.raises(TailError, match=rf"N_{MAX_CUTOFF} = 5\.356e-03 .* "
                                            rf"k = {MAX_CUTOFF} \(mean count N_1 = 5\.176\)"):
            ps.photon_statistics(spec)


# topology of either kind, detuned or not
TOPOLOGIES = st.one_of(
    st.builds(ps.SingleLine, delta=st.floats(-2.0, 2.0)),
    st.builds(ps.TwoLine, a=st.floats(0.005, 1.0), delta=st.floats(-2.0, 2.0)),
)
PHOTON_NUMBERS = st.lists(st.floats(0.0, 200.0), min_size=1, max_size=12)


class TestOnePhotonProbability:
    def test_matches_both_routes_on_random_specs(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            spec = random_square_spec(rng)
            p1 = ps.one_photon_probability(spec.topology, spec.pulse.T, [spec.pulse.N])
            sm = ps.photon_statistics(spec)
            sc = ps.photon_statistics(spec, method="jump-counting")
            assert abs(p1[0] - sc.p1) <= 1e-9
            # the moment route truncates its inversion at the top moment
            assert abs(p1[0] - sm.p1) <= 1e-9 + sm.tail_bound

    def test_vacuum_and_bad_photon_number(self):
        assert ps.one_photon_probability(ps.TwoLine(a=0.5), 0.1, [0.0])[0] == 0.0
        with pytest.raises(SpecError, match="N >= 0"):
            ps.one_photon_probability(ps.SingleLine(), 0.1, [1.0, -1.0])

    @given(TOPOLOGIES, st.floats(0.05, 5.0), PHOTON_NUMBERS)
    @settings(max_examples=40, deadline=None)
    def test_values_are_probabilities(self, topology, T, ns):
        p1 = ps.one_photon_probability(topology, T, ns)
        assert np.all((p1 >= 0.0) & (p1 <= 1.0))

    @given(TOPOLOGIES, st.floats(0.05, 5.0), PHOTON_NUMBERS)
    @settings(max_examples=40, deadline=None)
    def test_detuning_sign_symmetry(self, topology, T, ns):
        mirrored = ps.one_photon_probability(replace(topology, delta=-topology.delta), T, ns)
        assert np.array_equal(ps.one_photon_probability(topology, T, ns), mirrored)

    @given(TOPOLOGIES, st.floats(0.05, 5.0), PHOTON_NUMBERS)
    @settings(max_examples=40, deadline=None)
    def test_stack_equals_one_at_a_time(self, topology, T, ns):
        stacked = ps.one_photon_probability(topology, T, ns)
        alone = [ps.one_photon_probability(topology, T, [n])[0] for n in ns]
        assert np.array_equal(stacked, alone)


@st.composite
def sampled_specs(draw):
    """Piecewise-linear envelopes like the benchmark's: 1-3 interior knots,
    zero flux at both ends, duration <= 1 and at most 10 photons."""
    knots = draw(st.integers(1, 3))
    duration = draw(st.floats(0.05, 1.0))
    inner = sorted(draw(st.lists(st.integers(1, 19), min_size=knots, max_size=knots,
                                 unique=True)))
    heights = np.array([0.0, *draw(st.lists(st.floats(0.5, 1.0), min_size=knots,
                                             max_size=knots)), 0.0])
    times = duration * np.array([0, *inner, 20]) / 20
    area = float(np.sum(0.5 * (heights[1:] + heights[:-1]) * np.diff(times)))
    photons = draw(st.floats(0.0, 10.0))
    pulse = ps.SampledPulse(tuple(times), tuple(heights * (photons / area)))
    return ps.DriveSpec(pulse, draw(TOPOLOGIES))


class TestVerifyDual:
    def test_returns_counting_route_at_the_moment_cutoff(self):
        moments = ps.photon_statistics(PI_PULSE, k=6)
        counting = verify_dual(PI_PULSE, moments)
        expected = ps.photon_statistics(PI_PULSE, method="jump-counting", k=6)
        assert counting.method == "jump-counting" and counting.cutoff_k == 6
        assert np.array_equal(counting.probabilities, expected.probabilities)

    def test_passes_the_initial_state_on(self):
        moments = ps.photon_statistics(UNDRIVEN_EXCITED, rho0=ps.EXCITED)
        counting = verify_dual(UNDRIVEN_EXCITED, moments, rho0=ps.EXCITED)
        assert counting.probabilities[1] == pytest.approx(0.5, abs=1e-6)


class TestSampledEnvelopes:
    @given(sampled_specs())
    @settings(max_examples=20, deadline=None)
    def test_routes_agree_and_distribution_is_normalized(self, spec):
        moments = ps.photon_statistics(spec)
        counting = ps.photon_statistics(spec, method="jump-counting", k=moments.cutoff_k)
        assert np.max(np.abs(moments.probabilities - counting.probabilities)) <= DUAL_TOLERANCE
        assert np.all(moments.probabilities >= 0.0)
        assert np.all(counting.probabilities >= 0.0)
        assert abs(1.0 - counting.probabilities.sum()) <= NORMALIZATION_TOLERANCE
