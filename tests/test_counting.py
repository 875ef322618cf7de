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
from conftest import TimeGrid, random_density, random_square_spec, time_grid
from photonstat import counting, propagator
from photonstat.counting import (
    DUAL_TOLERANCE,
    MAX_CUTOFF,
    NORMALIZATION_TOLERANCE,
    _end_traces,
    _tail_share,
    verify_dual,
)
from photonstat.errors import CutoffError, NumericalError, SpecError, TailError
from photonstat.liouville import vectorize
from photonstat.propagator import advance

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


def test_package_import_leaves_out_the_process_pool():
    # a pool is imported only by a run with more than one worker
    code = ("import sys, photonstat.cli; print(sorted(m for m in sys.modules "
            "if m in ('multiprocessing', 'concurrent.futures.process')))")
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

    def test_rejects_empty_times(self):
        with pytest.raises(SpecError, match="at least one correlation time"):
            ps.correlator(PI_PULSE, [])

    @pytest.mark.parametrize("times", [[np.nan], [0.1, np.nan], [np.nan, 0.1], [0.1, np.inf]])
    def test_rejects_non_finite_times(self, times):
        with pytest.raises(SpecError, match=r"correlation times must be finite, got \["):
            ps.correlator(PI_PULSE, times)

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

    @pytest.mark.parametrize("moments", [[np.nan], [np.inf], [0.5, -np.inf], [0.5, 0.05, np.nan]])
    def test_rejects_non_finite_moments(self, moments):
        with pytest.raises(SpecError, match="moments must be finite"):
            ps.invert_moments(moments)


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


class TestClosedFormTail:
    """The counting routes stop at the pulse end; the undriven tail's share of
    every level trace must equal propagation over the tail."""

    @pytest.mark.parametrize("topology", [
        ps.SingleLine(), ps.SingleLine(delta=2.0), ps.SingleLine(delta=-2.0),
        ps.TwoLine(a=0.01), ps.TwoLine(a=1.0)])
    @pytest.mark.parametrize("t_end", [None, 40.0, 0.3], ids=["default", "long", "pulse-end"])
    @pytest.mark.parametrize("resolved", [False, True], ids=["moments", "counting"])
    def test_matches_the_exponential_over_the_tail(self, topology, t_end, resolved):
        spec = ps.DriveSpec(ps.SquarePulse(T=0.3, N=12.0), topology, t_end=t_end)
        rng = np.random.default_rng(11)
        k = 6
        # Hermitian level states of spread-out sizes, coherences included
        levels = [rng.uniform(0.01, 1.0) * random_density(rng) for _ in range(k + 1)]
        y = np.concatenate([vectorize(level) for level in levels])
        exact = advance(spec, y, 0.3, spec.t_end, 1e-9, resolved).reshape(k + 1, 4)
        want = (exact[:, 0] + exact[:, 3]).real
        got = _end_traces(np.array([[level[0, 0].real for level in levels]]),
                          np.array([[level[1, 1].real for level in levels]]),
                          _tail_share(topology, np.array([spec.t_end - 0.3])), resolved)[0]
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("topology", [ps.SingleLine(), ps.TwoLine(a=0.01)])
    def test_tail_share_shared_or_per_point(self, topology):
        tails = [0.3, 12.0, 0.0]
        one = [_tail_share(topology, t) for t in tails]
        assert all(isinstance(share, float) for share in one)
        assert _tail_share(topology, np.full(5, 12.0)) == one[1]
        assert np.array_equal(_tail_share(topology, np.array(tails)), np.array(one)[:, None])


class TestPulseStack:
    """Square pulses of any widths and windows are one kernel call; every row
    must be bit for bit the pulse alone, and what advance gives."""

    SPECS = [ps.DriveSpec(ps.SquarePulse(T=T, N=N), ps.TwoLine(a=0.3, delta=-1.2), t_end=t_end)
             for T, N, t_end in [(0.4, 0.0, None), (0.4, 3.0, None), (2.5, 3.0, 30.0),
                                 (0.05, 80.0, None), (2.5, 40.0, 2.5)]]

    @pytest.mark.parametrize("resolved", [False, True], ids=["moments", "counting"])
    @pytest.mark.parametrize("start", ["ground", "excited", "mixed"])
    def test_rows_equal_each_pulse_alone(self, resolved, start, kernel_calls):
        rho0 = {"ground": None, "excited": ps.EXCITED,
                "mixed": random_density(np.random.default_rng(5))}[start]
        rows = counting._level_traces(self.SPECS, 6, rho0, resolved)
        assert len(kernel_calls) == 1
        for spec, row in zip(self.SPECS, rows):
            assert np.array_equal(row, counting._level_traces([spec], 6, rho0, resolved)[0])

    @pytest.mark.parametrize("resolved", [False, True], ids=["moments", "counting"])
    @pytest.mark.parametrize("rho0", [ps.GROUND, ps.EXCITED, random_density(np.random.default_rng(5))],
                             ids=["ground", "excited", "mixed"])
    def test_rows_equal_advance_to_the_pulse_end(self, resolved, rho0):
        # the mixed start carries imaginary roundoff in r, so both propagate it complex
        k = 6
        rows = counting._level_traces(self.SPECS, k, rho0, resolved)
        for spec, row in zip(self.SPECS, rows):
            y = np.zeros(4 * (k + 1), dtype=complex)
            y[:4] = vectorize(rho0)
            levels = advance(spec, y, 0.0, spec.pulse.T, 1e-9, resolved).reshape(1, k + 1, 4)
            want = _end_traces(levels[..., 0].real, levels[..., 3].real,
                               _tail_share(spec.topology, spec.t_end - spec.pulse.T), resolved)[0]
            assert np.array_equal(row, want)


class TestNoDenseMatrix:
    """Square-pulse counting reads the kernel's first block column; only
    ``advance`` expands it to the dense block matrix."""

    @pytest.fixture(autouse=True)
    def no_dense(self, monkeypatch):
        def refuse(column):
            raise AssertionError("a counting path built the dense block matrix")

        monkeypatch.setattr(propagator, "_dense", refuse)

    def test_maximize_p1(self):
        assert ps.maximize_p1(ps.TwoLine(a=0.3), 0.7).stats.cutoff_k >= 4

    @pytest.mark.parametrize("method", ["moment-inversion", "jump-counting"])
    @pytest.mark.parametrize("rho0", [None, ps.EXCITED, random_density(np.random.default_rng(5))],
                             ids=["ground", "excited", "mixed"])
    def test_photon_statistics(self, method, rho0):
        assert ps.photon_statistics(PI_PULSE, method, rho0=rho0).cutoff_k >= 4

    def test_sweep_single_line(self):
        assert len(ps.sweep_single_line(T_grid=[0.1, 2.0], N_grid=[5.0, 40.0]).records) == 4

    def test_advance_uses_it(self):
        with pytest.raises(AssertionError, match="dense block matrix"):
            ps.propagator_between(PI_PULSE, 0.0, 0.05)


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
        verify_dual([spec], [ps.photon_statistics(spec)])

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

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_photon_number_rejected(self, bad):
        with pytest.raises(SpecError, match=rf"N >= 0, got {bad}"):
            ps.one_photon_probability(ps.SingleLine(), 0.1, [1.0, bad])

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("photon_numbers", [[1.0], []], ids=["one", "none"])
    def test_width_outside_square_pulse_domain(self, T, photon_numbers):
        with pytest.raises(SpecError, match=rf"^pulse width must satisfy 0 < T < inf, got T={T}$"):
            ps.one_photon_probability(ps.TwoLine(a=0.5), T, photon_numbers)

    @pytest.mark.parametrize("a", [0.0, -0.2, 1.5, math.nan])
    def test_ratio_outside_two_line_domain(self, a):
        with pytest.raises(SpecError,
                           match=rf"^coupling ratio must satisfy 0 < a <= 1, got a={a}$"):
            ps.one_photon_probability(ps.TwoLine(a=a), 0.1, [1.0])

    def test_no_photon_numbers_give_an_empty_array(self, kernel_calls):
        p1 = ps.one_photon_probability(ps.TwoLine(a=0.5), 0.1, [])
        assert p1.shape == (0,) and p1.dtype == np.float64
        assert kernel_calls == []

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
        (counting,) = verify_dual([PI_PULSE], [moments])
        expected = ps.photon_statistics(PI_PULSE, method="jump-counting", k=6)
        assert counting.method == "jump-counting" and counting.cutoff_k == 6
        assert np.array_equal(counting.probabilities, expected.probabilities)

    def test_passes_the_initial_state_on(self):
        moments = ps.photon_statistics(UNDRIVEN_EXCITED, rho0=ps.EXCITED)
        (counting,) = verify_dual([UNDRIVEN_EXCITED], [moments], rho0=ps.EXCITED)
        assert counting.probabilities[1] == pytest.approx(0.5, abs=1e-6)

    def test_mixed_cutoff_row_is_one_call_per_cutoff(self, kernel_calls):
        # at T = 5 these settle at k = 12, 4, 10, 8, 12, 10, 12 by moment inversion
        specs = [ps.DriveSpec(ps.SquarePulse(T=5.0, N=N))
                 for N in (40.0, 0.0, 10.0, 5.0, 60.0, 20.0, 80.0)]
        moments = [ps.photon_statistics(spec) for spec in specs]
        cutoffs = [m.cutoff_k for m in moments]
        kernel_calls.clear()
        counted = verify_dual(specs, moments)
        assert [k for _, k, _ in kernel_calls] == sorted(set(cutoffs)) == [4, 8, 10, 12]
        assert [len(stack) for stack, k, _ in kernel_calls] == [cutoffs.count(k)
                                                                for _, k, _ in kernel_calls]
        assert_same_entries(counted, [ps.photon_statistics(spec, "jump-counting", k=k)
                                      for spec, k in zip(specs, cutoffs)])

    def test_empty_row_makes_no_kernel_call(self, kernel_calls):
        assert verify_dual([], []) == []
        assert kernel_calls == []

    @pytest.mark.parametrize("bad", [0, 5.5, True, None])
    def test_bad_cutoff_in_a_list_rejected_before_any_work(self, kernel_calls, bad):
        specs = [PI_PULSE] * 3
        with pytest.raises(SpecError, match=rf"cutoff k must be an integer >= 1, got k={bad!r}"):
            counting._row_statistics(specs, "jump-counting", [4, 6, bad])
        assert kernel_calls == []


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


# ---------------------------------------------------------------------------
# Reference for the array settle of counting._row_statistics: the per-point
# settle it replaced, kept verbatim with the helpers it called, on the same
# level traces.

NEGATIVE_TOLERANCE = counting.NEGATIVE_TOLERANCE
START_CUTOFF = counting.START_CUTOFF
TAIL_TOLERANCE = counting.TAIL_TOLERANCE
PhotonStats = counting.PhotonStats
_binomials = counting._binomials


def _clamp_moments(vals: np.ndarray) -> np.ndarray:
    return np.where((vals < 0) & (vals > -NEGATIVE_TOLERANCE), 0.0, vals)


def _complete_distribution(traces: np.ndarray, n_max: int) -> np.ndarray:
    probs = _clamp_probabilities(traces)
    missing = 1.0 - probs.sum()
    if missing > NORMALIZATION_TOLERANCE:
        raise CutoffError(
            f"probability {missing:.3e} lies beyond n_max={n_max}; insufficient n_max"
        )
    return probs


def _clamp_probabilities(probs: np.ndarray) -> np.ndarray:
    if probs.min() < -NEGATIVE_TOLERANCE:
        raise NumericalError(
            f"probability {probs.min():.3e} below -{NEGATIVE_TOLERANCE}; "
            "inadequate cutoff or integration error"
        )
    return np.where(probs < 0, 0.0, probs)


def invert_moments(moments) -> np.ndarray:
    moments = np.asarray(moments, dtype=float)
    if moments.ndim != 1 or len(moments) < 1:
        raise SpecError("need at least the first binomial moment")
    full = np.concatenate(([1.0], moments))
    _, signed, lower = _binomials(len(moments))
    # term (m, n) sits at row m, column n
    return _clamp_probabilities(_column_sums(np.where(lower, signed * full[:, None], 0.0)))


def moments_from_probabilities(probs, k: int) -> np.ndarray:
    probs = np.asarray(probs, dtype=float)
    binom, _, lower = _binomials(max(len(probs) - 1, k))
    # term (n, m) sits at row n, column m - 1
    cols = slice(1, k + 1)
    return _column_sums(np.where(lower[:len(probs), cols],
                                 binom[:len(probs), cols] * probs[:, None], 0.0))


def _column_sums(terms: np.ndarray) -> np.ndarray:
    if not len(terms):
        return np.zeros(terms.shape[1])
    return np.add.accumulate(terms, axis=0)[-1]


def _settle(levels: np.ndarray, method: str, cutoff: int, final: bool,
            fixed: bool) -> PhotonStats | None:
    """Statistics from the level traces at ``cutoff``, or None to climb on."""
    if method == "moment-inversion":
        moments = _clamp_moments(levels[1:])
        if fixed or moments[-1] < TAIL_TOLERANCE:
            return PhotonStats(moments=moments, probabilities=invert_moments(moments),
                               cutoff_k=cutoff, tail_bound=float(moments[-1]), method=method)
        if final:
            raise TailError(
                f"top binomial moment N_{cutoff} = {moments[-1]:.3e} is still >= "
                f"{TAIL_TOLERANCE:g} at the cutoff cap k = {MAX_CUTOFF} (mean count "
                f"N_1 = {moments[0]:.4g}); the drive is beyond moment inversion")
        return None
    try:
        probs = _complete_distribution(levels, cutoff)
    except CutoffError:
        if final:
            raise
        return None
    return PhotonStats(moments=moments_from_probabilities(probs, cutoff),
                       probabilities=probs, cutoff_k=cutoff,
                       tail_bound=float(max(0.0, 1.0 - probs.sum())), method=method)


def _check_mean_count(stats: PhotonStats, spec, rho0) -> None:
    """The mean-count bound of the moment route, added with it to the settle:
    N_1 at most the photons sent inside the window plus the initial excited
    population, to NEGATIVE_TOLERANCE relative to max(1, bound)."""
    pulse = spec.pulse
    if isinstance(pulse, ps.SquarePulse):
        sent = pulse.N
    else:  # the envelope's trapezoids, each cut at t = 0
        sent = 0.0
        knots = list(zip(pulse.times, pulse.values))
        for (t0, f0), (t1, f1) in zip(knots, knots[1:]):
            if t1 <= 0.0:
                continue
            if t0 < 0.0:
                t0, f0 = 0.0, f0 + (f1 - f0) * (0.0 - t0) / (t1 - t0)
            sent += 0.5 * (f0 + f1) * (t1 - t0)
    bound = sent + (0.0 if rho0 is None else float(np.real(rho0[1][1])))
    if stats.moments[0] - bound > NEGATIVE_TOLERANCE * max(1.0, bound):
        raise NumericalError(
            f"mean count N_1 = {stats.moments[0]:.10g} exceeds its bound {bound:.10g} "
            f"(photons sent plus initial excitation) at T={pulse.end:.6g}; "
            "the pulse is beyond the accuracy of moment inversion")


def reference_row_statistics(specs, method="moment-inversion", k=None, rho0=None) -> list:
    ladder = (k,) if k is not None else tuple(range(START_CUTOFF, MAX_CUTOFF + 1, 2))
    out: list = [None] * len(specs)
    pending = list(range(len(specs)))
    for cutoff in ladder:
        if not pending:
            break
        traces = counting._level_traces([specs[i] for i in pending], cutoff, rho0,
                                        resolved=method == "jump-counting")
        for i, levels in zip(pending, traces):
            try:
                out[i] = _settle(levels, method, cutoff, final=cutoff == ladder[-1],
                                 fixed=k is not None)
                if method == "moment-inversion" and out[i] is not None:
                    _check_mean_count(out[i], specs[i], rho0)
            except NumericalError as exc:
                out[i] = exc
        pending = [i for i in pending if out[i] is None]
    return out


def assert_same_entries(got: list, want: list) -> None:
    """Entries bit for bit equal; errors of the same type with the same message."""
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert type(g) is type(w), (i, g, w)
        if isinstance(w, Exception):
            assert str(g) == str(w), i
            continue
        assert (g.cutoff_k, g.method) == (w.cutoff_k, w.method), i
        assert np.float64(g.tail_bound).tobytes() == np.float64(w.tail_bound).tobytes(), i
        for a, b in [(g.moments, w.moments), (g.probabilities, w.probabilities)]:
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), i


def mixed_row(topology) -> list:
    """Square pulses on ``topology`` that settle at every rung 4..16 of both
    routes or fail: widths 0.05..20 times 5..400 photons, the domain corner
    T = 5, N = 100 (a negative P_n on TwoLine(a=1)) and T = 20, N = 400,
    beyond both routes at the cap."""
    points = [(T, N) for T in (0.05, 0.3, 1.0, 2.0, 5.0, 10.0, 20.0)
              for N in (5.0, 40.0, 100.0, 150.0, 300.0)]
    return [ps.DriveSpec(ps.SquarePulse(T=T, N=N), topology)
            for T, N in points + [(2.0, 60.0), (5.0, 60.0), (10.0, 60.0), (5.0, 100.0),
                                  (20.0, 400.0)]]


METHODS = ["moment-inversion", "jump-counting"]


class TestArraySettle:
    """counting._row_statistics settles each rung with array operations;
    every entry must be bit for bit what the per-point settle gave, and each
    error of the same type, with the same message, in the same order."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("k", [None, 2, 5, 16], ids=["adaptive", "k2", "k5", "k16"])
    @pytest.mark.parametrize("topology", [ps.TwoLine(a=1.0), ps.SingleLine(delta=0.7)],
                             ids=["two-line", "single-line"])
    def test_rows_match_the_per_point_settle(self, topology, method, k):
        specs = mixed_row(topology)
        want = reference_row_statistics(specs, method, k)
        assert_same_entries(counting._row_statistics(specs, method, k), want)
        if k is None:  # the row covers every rung and every failure of the route
            kinds = {s.cutoff_k if isinstance(s, PhotonStats) else type(s) for s in want}
            assert set(range(4, MAX_CUTOFF + 1, 2)) <= kinds
            assert (TailError if method == METHODS[0] else CutoffError) in kinds
            if topology == ps.TwoLine(a=1.0) and method == METHODS[0]:
                assert NumericalError in kinds

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("k", [None, 6])
    @pytest.mark.parametrize("start", ["excited", "mixed"])
    def test_other_starts(self, method, k, start):
        rho0 = ps.EXCITED if start == "excited" else random_density(np.random.default_rng(5))
        specs = mixed_row(ps.TwoLine(a=0.3, delta=-1.2))[::3]
        assert_same_entries(counting._row_statistics(specs, method, k, rho0),
                            reference_row_statistics(specs, method, k, rho0))

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("k", [None, 4])
    def test_sampled_envelope(self, method, k):
        specs = [ps.DriveSpec(ps.SampledPulse((0.0, 0.3, 0.6), (0.0, 8.0, 0.0)))]
        assert_same_entries(counting._row_statistics(specs, method, k),
                            reference_row_statistics(specs, method, k))

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("k", [None, 3, 8, 16])
    def test_error_order_on_synthetic_traces(self, monkeypatch, method, k):
        monkeypatch.setattr(counting, "_level_traces", synthetic_traces)
        specs = [ps.DriveSpec(ps.SquarePulse(T=1.0, N=float(n))) for n in range(72)]
        want = reference_row_statistics(specs, method, k)
        assert_same_entries(counting._row_statistics(specs, method, k), want)
        if k is None:
            kinds = {type(s) for s in want}
            assert {PhotonStats, NumericalError,
                    TailError if method == METHODS[0] else CutoffError} <= kinds

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("synthetic", [False, True], ids=["mixed-row", "synthetic"])
    def test_per_point_cutoffs_equal_each_point_alone(self, monkeypatch, method, synthetic):
        if synthetic:
            monkeypatch.setattr(counting, "_level_traces", synthetic_traces)
            specs = [ps.DriveSpec(ps.SquarePulse(T=1.0, N=float(n))) for n in range(72)]
        else:
            specs = mixed_row(ps.TwoLine(a=1.0))
        cutoffs = [3 + (5 * i) % 14 for i in range(len(specs))]  # 3..16, interleaved
        want = [reference_row_statistics([spec], method, k)[0]
                for spec, k in zip(specs, cutoffs)]
        assert_same_entries(counting._row_statistics(specs, method, cutoffs), want)

    def test_mean_count_bound_in_point_order(self):
        # one photon sent into |g>: N_1 = 1 - 6/T at T = 1e6 but above 1 at
        # T = 1e9 and 1e12; T = 10, N = 120 fails its inversion
        specs = [ps.DriveSpec(ps.SquarePulse(T=T, N=N))
                 for T, N in [(1e6, 1.0), (1e9, 1.0), (10.0, 120.0), (1e12, 1.0)]]
        got = counting._row_statistics(specs)
        assert_same_entries(got, reference_row_statistics(specs))
        assert [type(g) for g in got] == [PhotonStats] + [NumericalError] * 3
        assert [str(g).startswith("mean count N_1") for g in got[1:]] == [True, False, True]

    @pytest.mark.parametrize("times, values, sent", [
        ((-1.0, 1.0, 2.0), (2.0, 4.0, 0.0), 5.5),  # cut at t = 0, where the flux is 3
        ((0.5, 1.5), (2.0, 2.0), 2.0),  # steps on at t = 0.5
        ((-2.0, -1.0), (3.0, 3.0), 0.0),  # ends before the window
    ])
    def test_photons_sent_by_a_sampled_envelope(self, times, values, sent):
        spec = ps.DriveSpec(ps.SampledPulse(times, values))
        assert counting._photons_sent(spec) == sent

    def test_counting_distribution_is_the_fixed_cutoff_row_of_one(self, monkeypatch):
        def outcome(call, *args):
            try:
                return call(*args)
            except NumericalError as exc:
                return exc

        def reference(spec, n_max):
            traces = counting._level_traces([spec], n_max, None, True)
            return _complete_distribution(traces[0], n_max)

        def check(cases) -> list:
            want = [outcome(reference, *case) for case in cases]
            for got, w in zip([outcome(ps.counting_distribution, *case) for case in cases], want):
                assert type(got) is type(w)
                if isinstance(w, Exception):
                    assert str(got) == str(w)
                else:
                    assert got.shape == w.shape and got.tobytes() == w.tobytes()
            return want

        want = check([(PI_PULSE, 1), (PI_PULSE, 6), (BEYOND_CAP, MAX_CUTOFF)])
        assert type(want[0]) is CutoffError
        assert str(want[0]).endswith("lies beyond n_max=1; insufficient n_max")
        monkeypatch.setattr(counting, "_level_traces", synthetic_traces)
        want = check([(ps.DriveSpec(ps.SquarePulse(T=1.0, N=float(n))), 3 + n % 5)
                      for n in range(40)])
        assert {CutoffError, NumericalError} <= {type(w) for w in want}


def synthetic_traces(specs, k, rho0, resolved):
    """Made-up level traces 0..k at cutoff ``k``. The point whose N is n
    meets its criterion from cutoff 4 + 2 (n % 8) on, and has a P_n beyond
    the clamp band at cutoff 4 + 2 (n // 8) (18 or more: never), so points
    0..63 meet every order of criterion, negative check and last rung. At
    other cutoffs a value may sit in the clamp band."""
    rows = []
    for spec in specs:
        n = int(spec.pulse.N)
        rng = np.random.default_rng([n, k])
        probs = rng.dirichlet(np.ones(k + 1)) * np.geomspace(1.0, 1e-14, k + 1)
        met = k >= 4 + 2 * (n % 8)
        if met:
            probs /= probs.sum()
        elif resolved:  # a missing mass of 1e-3
            probs *= (1.0 - 1e-3) / probs.sum()
        else:  # a top moment N_k = P_k of 1e-3
            probs[:-1] *= (1.0 - 1e-3) / probs[:-1].sum()
            probs[-1] = 1e-3
        below = k == 4 + 2 * (n // 8)
        band = not below and rng.random() < 0.5
        if resolved:
            probs[-1] = -2e-8 if below else -5e-10 if band else probs[-1]
            rows.append(probs)
            continue
        moments = moments_from_probabilities(probs, k)
        if below:  # the top moment stays on its side of the criterion; P_(k-1) < -1e-8
            moments[-1] += 5e-9
        elif band and met:
            moments[-1] = -5e-10
        rows.append(np.concatenate(([1.0], moments)))
    return np.array(rows)
