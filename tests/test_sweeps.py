import numpy as np
import pytest

import photonstat as ps
from photonstat import counting, propagator, sweeps
from photonstat.errors import NumericalError, SpecError
from photonstat.liouville import drive_coefficient
from photonstat.sweeps import _golden_max


class TestGoldenMax:
    def test_quadratic_peak(self):
        x = _golden_max(lambda v: -(v - 3.2) ** 2, 0.0, 10.0, 1e-6)
        assert abs(x - 3.2) < 1e-4

    def test_flat_function_returns_left_edge(self):
        assert _golden_max(np.ones_like, 2.0, 5.0, 1e-6) == pytest.approx(2.0, abs=1e-5)

    def test_plateau_tie_prefers_left(self):
        x = _golden_max(lambda v: np.minimum(v, 4.0), 0.0, 10.0, 1e-6)
        assert x <= 4.0 + 1e-3


class TestPiPulseNumber:
    def test_single_line(self):
        assert ps.pi_pulse_number(0.1) == pytest.approx(np.pi**2 / 0.2)

    def test_two_line(self):
        assert ps.pi_pulse_number(0.1, a=0.01) == pytest.approx(np.pi**2 / 0.004)


class TestMaximizeP1:
    def test_single_line_optimum(self):
        best = ps.maximize_p1(ps.SingleLine(), T=0.1)
        assert abs(best.stats.p1 - 0.5) < 0.03
        assert abs(best.n_star - 49.348) < 0.3 * 49.348
        assert not best.at_boundary

    def test_boundary_maximum_is_flagged(self):
        # a long pulse on a strongly coupled weak line emits most when its
        # area passes pi, at the top of the scanned lobe
        topology = ps.TwoLine(a=0.5)
        best = ps.maximize_p1(topology, T=5.0)
        assert best.at_boundary
        assert best.n_star == pytest.approx(1.5 * ps.pi_pulse_number(5.0, a=0.5), rel=1e-3)

    @pytest.mark.parametrize("T", [0.0, -0.1, float("nan"), float("inf")])
    def test_rejects_bad_width(self, T):
        with pytest.raises(SpecError, match=r"0 < T < inf"):
            ps.maximize_p1(ps.TwoLine(a=0.5), T)

    def test_two_line_beats_single_line(self):
        best_001 = ps.maximize_p1(ps.TwoLine(a=0.01), T=0.1)
        best_05 = ps.maximize_p1(ps.TwoLine(a=0.5), T=0.1)
        best_single = ps.maximize_p1(ps.SingleLine(), T=0.1)
        assert best_001.stats.p1 > best_05.stats.p1 > best_single.stats.p1
        assert best_05.stats.p1 > 0.5

    def test_reported_p1_is_the_objective_at_the_maximizer(self, monkeypatch):
        seen = {}

        def recording(topology, T, ns):
            p1 = ps.one_photon_probability(topology, T, ns)
            seen.update(zip(np.asarray(ns, dtype=float).tolist(), p1))
            return p1

        monkeypatch.setattr(sweeps, "one_photon_probability", recording)
        for topology, T in [(ps.TwoLine(a=0.01), 0.1), (ps.TwoLine(a=0.3), 0.5),
                            (ps.TwoLine(a=1.0), 5.0), (ps.SingleLine(), 0.1)]:
            seen.clear()
            best = ps.maximize_p1(topology, T)
            assert abs(best.stats.p1 - seen[best.n_star]) <= 1e-9

    def test_maximum_dominates_scan(self):
        best = ps.maximize_p1(ps.SingleLine(), T=0.1)
        for n in np.linspace(1.0, 74.0, 24):
            spec = ps.DriveSpec(ps.SquarePulse(T=0.1, N=float(n)))
            assert best.stats.p1 >= ps.photon_statistics(spec).p1 - 1e-9


class TestSweepSingleLine:
    def test_vacuum_column(self):
        result = ps.sweep_single_line(T_grid=[0.1, 0.3], N_grid=[0.0, 10.0, 49.35])
        assert len(result.records) == 6
        for rec in result.records:
            if rec.N == 0.0:
                assert rec.stats.probabilities[0] == 1.0

    def test_row_major_order_and_axes(self):
        result = ps.sweep_single_line(T_grid=[0.1, 0.2], N_grid=[1.0, 2.0])
        assert [(r.T, r.N) for r in result.records] == \
            [(0.1, 1.0), (0.1, 2.0), (0.2, 1.0), (0.2, 2.0)]
        assert np.array_equal(result.axes["T"], [0.1, 0.2])

    def test_deterministic_reruns(self):
        a = ps.sweep_single_line(T_grid=[0.1], N_grid=[5.0, 20.0, 49.0])
        b = ps.sweep_single_line(T_grid=[0.1], N_grid=[5.0, 20.0, 49.0])
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.stats.probabilities, rb.stats.probabilities)

    def test_parallel_matches_serial(self):
        serial = ps.sweep_single_line(T_grid=[0.1], N_grid=[5.0, 20.0, 49.0])
        parallel = ps.sweep_single_line(T_grid=[0.1], N_grid=[5.0, 20.0, 49.0], workers=2)
        for ra, rb in zip(serial.records, parallel.records):
            assert np.array_equal(ra.stats.probabilities, rb.stats.probabilities)

    def test_fixed_width_slice_peaks_near_pi_pulse(self):
        n_grid = np.linspace(0.0, 120.0, 120)
        result = ps.sweep_single_line(T_grid=[0.1], N_grid=n_grid)
        p1 = np.array([r.stats.probabilities[1] for r in result.records])
        i_max = int(np.argmax(p1))
        assert abs(p1[i_max] - 0.5) < 0.03
        assert abs(n_grid[i_max] - 49.348) < 0.3 * 49.348
        # rises to the first maximum, then falls
        assert np.all(np.diff(p1[: i_max + 1]) > -1e-12)
        assert p1[i_max] > p1[-1]

    def test_rejects_bad_grids(self):
        with pytest.raises(SpecError):
            ps.sweep_single_line(T_grid=[0.0, 0.1], N_grid=[1.0])
        with pytest.raises(SpecError):
            ps.sweep_single_line(T_grid=[0.1], N_grid=[-1.0])

    @pytest.mark.parametrize("grids, message", [
        (([0.1, float("nan")], [1.0]), r"0 < T < inf, got T=nan"),
        (([0.1, float("inf")], [1.0]), r"0 < T < inf, got T=inf"),
        (([-0.1], [1.0]), r"0 < T < inf, got T=-0.1"),
        (([0.1], [1.0, float("nan")]), r"0 <= N < inf, got N=nan"),
        (([0.1], [float("inf")]), r"0 <= N < inf, got N=inf"),
    ])
    def test_bad_grid_values_rejected_before_any_work(self, grids, message, kernel_calls):
        with pytest.raises(SpecError, match=message):
            ps.sweep_single_line(*grids)
        assert kernel_calls == []

    def test_failed_dual_check_names_the_point(self, monkeypatch):
        # of 24 points, the check mask selects only the 22nd
        n_grid = np.linspace(0.0, 120.0, 24)
        assert np.flatnonzero(sweeps._check_mask(len(n_grid))).tolist() == [21]
        monkeypatch.setattr(counting, "DUAL_TOLERANCE", -1.0)
        with pytest.raises(NumericalError, match=rf"disagree by .* at T=0\.5, "
                                                 rf"N={n_grid[21]:.6g}$"):
            ps.sweep_single_line(T_grid=[0.5], N_grid=n_grid)


class TestSweepTwoLine:
    def test_small_map(self):
        result = ps.sweep_two_line(a_grid=[0.01, 0.5], T_grid=[0.1])
        assert len(result.records) == 2
        rec_small, rec_large = result.records
        assert rec_small.a == 0.01 and rec_large.a == 0.5
        assert rec_small.stats.p1 > 0.9
        assert rec_small.stats.p1 > rec_large.stats.p1
        for rec in result.records:
            assert rec.stats.probabilities[1] == pytest.approx(
                max(r.stats.p1 for r in [rec]), abs=0.0)

    def test_max_p1_non_increasing_in_a(self):
        result = ps.sweep_two_line(a_grid=[0.01, 0.1, 0.5, 1.0], T_grid=[0.1])
        p1s = [r.stats.p1 for r in result.records]
        assert all(x >= y - 1e-9 for x, y in zip(p1s, p1s[1:]))

    def test_short_pulse_mass_in_first_four_bins(self):
        result = ps.sweep_two_line(a_grid=[0.05, 0.5], T_grid=[0.1, 0.5])
        for rec in result.records:
            assert rec.T <= 0.5
            assert rec.stats.probabilities[:4].sum() >= 0.999

    @pytest.mark.parametrize("T", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_widths_rejected_before_any_work(self, T, kernel_calls):
        with pytest.raises(SpecError, match=rf"0 < T < inf, got T={T}"):
            ps.sweep_two_line(a_grid=[0.5], T_grid=[0.1, T])
        with pytest.raises(SpecError, match=rf"0 < T < inf, got T={T}"):
            ps.sweep_two_line_slices([0.5], T=T, points=4)
        assert kernel_calls == []

    @pytest.mark.parametrize("points", [-3, 0, 2.5, True])
    def test_slices_need_a_positive_point_count(self, points):
        with pytest.raises(SpecError, match=rf"points=.*{points!r}"):
            ps.sweep_two_line_slices([0.5], T=0.1, points=points)

    def test_slices_cover_first_lobe(self):
        result = ps.sweep_two_line_slices([0.5], T=0.1, points=40)
        p1 = np.array([r.stats.probabilities[1] for r in result.records])
        n_vals = np.array([r.N for r in result.records])
        assert p1.max() > 0.6
        n_best = n_vals[int(np.argmax(p1))]
        assert abs(n_best - ps.pi_pulse_number(0.1, a=0.5)) < 0.3 * ps.pi_pulse_number(0.1, a=0.5)


def assert_same_stats(got, want):
    assert np.array_equal(got.probabilities, want.probabilities)
    assert np.array_equal(got.moments, want.moments)
    assert got.cutoff_k == want.cutoff_k
    assert got.tail_bound == want.tail_bound


def assert_one_call_per_rung(calls, topology, records, checks):
    """The kernel calls of one sweep row: one stacked call per cutoff rung over
    the row's points not yet settled, then one call per dual-checked point.
    Every slice is its own pulse's generator, over its own width."""
    top = max(rec.stats.cutoff_k for rec in records)
    expected = [(k, [rec for rec in records if rec.stats.cutoff_k >= k], False)
                for k in range(counting.START_CUTOFF, top + 1, 2)]
    expected += [(rec.stats.cutoff_k, [rec], True) for rec, check in zip(records, checks)
                 if check]
    assert len(calls) == len(expected)
    static, drive, jump = propagator.real_parts(topology)
    for (diag, k, widths), (cutoff, recs, resolved) in zip(calls, expected):
        assert k == cutoff
        assert widths.tolist() == [rec.T for rec in recs]
        base = static - jump if resolved else static
        amps = [np.sqrt(drive_coefficient(topology) * (rec.N / rec.T)) for rec in recs]
        assert np.array_equal(diag, [base + amp * drive for amp in amps])


class TestSweepRows:
    """A sweep row is one stacked hierarchy per cutoff rung; every point must
    come out bit for bit as if it were computed alone."""

    def test_single_line_rows_equal_points_alone(self):
        # T = 10 climbs from k = 4 at N = 0 to k = 16 at N = 80, so the
        # 120-point stacks mix slices of very different norms
        n_grid = np.linspace(0.0, 80.0, 120)
        result = ps.sweep_single_line(T_grid=[0.05, 10.0], N_grid=n_grid)
        cutoffs = {rec.stats.cutoff_k for rec in result.records}
        assert {4, 16} <= cutoffs
        for rec in result.records:
            assert_same_stats(rec.stats, ps.photon_statistics(
                ps.DriveSpec(ps.SquarePulse(T=rec.T, N=rec.N))))

    def test_two_line_slices_equal_points_alone(self):
        result = ps.sweep_two_line_slices([0.01, 1.0], T=4.5, points=30)
        assert len({rec.stats.cutoff_k for rec in result.records}) > 2
        for rec in result.records:
            assert_same_stats(rec.stats, ps.photon_statistics(
                ps.DriveSpec(ps.SquarePulse(T=rec.T, N=rec.N), ps.TwoLine(a=rec.a))))

    def test_two_line_rows_equal_maximizations_alone(self):
        # one row's widths climb to three different cutoffs together
        result = ps.sweep_two_line(a_grid=[0.05, 1.0], T_grid=[0.1, 1.0, 5.0])
        assert len({rec.stats.cutoff_k for rec in result.records}) >= 3
        for rec in result.records:
            best = ps.maximize_p1(ps.TwoLine(a=rec.a), rec.T)
            assert rec.N == best.n_star
            assert_same_stats(rec.stats, best.stats)

    def test_one_pulse_exponential_call_per_rung(self, kernel_calls):
        n_grid = np.linspace(0.0, 120.0, 24)
        result = ps.sweep_single_line(T_grid=[2.0], N_grid=n_grid)
        assert_one_call_per_rung(kernel_calls, ps.SingleLine(), result.records,
                                 sweeps._check_mask(len(n_grid)))
        assert len(kernel_calls[0][0]) == 24
        assert all(isinstance(rec.stats.cutoff_k, int) for rec in result.records)

    def test_row_statistics_one_call_per_rung(self, kernel_calls):
        # the fig5 worker finds every width's maximizer (k = 1 calls), then
        # settles the row's distributions as one stack per rung
        topology = ps.TwoLine(a=0.3)
        T_grid = [0.2, 0.7, 2.0, 5.0]
        result = ps.sweep_two_line(a_grid=[0.3], T_grid=T_grid)
        assert len({rec.stats.cutoff_k for rec in result.records}) > 1
        first = next(i for i, (_, k, _) in enumerate(kernel_calls) if k > 1)
        assert {k for _, k, _ in kernel_calls[:first]} == {1}
        assert_one_call_per_rung(kernel_calls[first:], topology, result.records,
                                 sweeps._check_mask(len(T_grid)))

    def test_maximization_exponentiates_no_undriven_generator(self, kernel_calls):
        topology = ps.TwoLine(a=0.3)
        best = ps.maximize_p1(topology, T=0.7)
        assert best.stats.cutoff_k >= counting.START_CUTOFF
        static, _, jump = propagator.real_parts(topology)
        assert kernel_calls
        for diag, _, widths in kernel_calls:
            # every slice spans the pulse only: the undriven tail is closed-form
            assert widths.tolist() == [0.7] * len(diag)
            # the scan's N = 0 is one slice of a driven stack, never a call alone
            assert not all(np.array_equal(d, static) or np.array_equal(d, static - jump)
                           for d in diag)

    @pytest.mark.parametrize("n_grid", [[50.0, 120.0, 200.0], [50.0, 200.0, 120.0]])
    def test_first_failing_point_raises_in_grid_order(self, n_grid):
        # at T = 10, N = 120 fails its inversion and N = 200 its tail test
        with pytest.raises(NumericalError) as alone:
            ps.photon_statistics(ps.DriveSpec(ps.SquarePulse(T=10.0, N=n_grid[1])))
        with pytest.raises(NumericalError) as row:
            ps.sweep_single_line(T_grid=[10.0], N_grid=n_grid)
        assert type(row.value) is type(alone.value)
        assert str(row.value) == str(alone.value)
