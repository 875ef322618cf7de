import subprocess
import sys

import numpy as np
import pytest

import photonstat as ps
from photonstat import cli, counting, propagator, sweeps
from photonstat.cli import RunConfig, main
from photonstat.errors import NumericalError, SpecError
from photonstat.liouville import drive_coefficient
from photonstat.sweeps import _golden_max


def golden_max(f, lo, hi, rel_tol):
    """The walk of ``_golden_max`` run to its maximizer on a memo, each round's
    missing probes evaluated by ``f`` (an array of points to their values)."""
    values = {}
    while isinstance(got := _golden_max(lo, hi, rel_tol, values), list):
        values.update(zip(got, f(np.array(got))))
    return got


class TestGoldenMax:
    def test_quadratic_peak(self):
        x = golden_max(lambda v: -(v - 3.2) ** 2, 0.0, 10.0, 1e-6)
        assert abs(x - 3.2) < 1e-4

    def test_flat_function_returns_left_edge(self):
        assert golden_max(np.ones_like, 2.0, 5.0, 1e-6) == pytest.approx(2.0, abs=1e-5)

    def test_plateau_tie_prefers_left(self):
        x = golden_max(lambda v: np.minimum(v, 4.0), 0.0, 10.0, 1e-6)
        assert x <= 4.0 + 1e-3

    def test_step_onto_a_stopped_state_asks_only_for_its_final_pair(self):
        # x2 wins, so the walk keeps [x1, 1]: its width 1/phi is below rel_tol times
        # its midpoint, and only the midpoint beside the known x1 is ever compared
        x1, x2 = 1.0 - sweeps._INV_PHI, sweeps._INV_PHI
        assert _golden_max(0.0, 1.0, 1.0, {x1: 0.0, x2: 1.0}) == [0.5 * (x1 + 1.0)]


class TestPiPulseNumber:
    def test_single_line(self):
        assert ps.pi_pulse_number(0.1) == pytest.approx(np.pi**2 / 0.2)

    def test_two_line(self):
        assert ps.pi_pulse_number(0.1, a=0.01) == pytest.approx(np.pi**2 / 0.004)

    @pytest.mark.parametrize("T", [0.0, -0.1, np.nan, np.inf])
    @pytest.mark.parametrize("a", [None, 0.5])
    def test_width_outside_square_pulse_domain(self, T, a):
        with pytest.raises(SpecError, match=rf"^pulse width must satisfy 0 < T < inf, got T={T}$"):
            ps.pi_pulse_number(T, a)

    @pytest.mark.parametrize("a", [0.0, -0.2, 1.5, np.nan, np.inf])
    def test_ratio_outside_two_line_domain(self, a):
        with pytest.raises(SpecError,
                           match=rf"^coupling ratio must satisfy 0 < a <= 1, got a={a}$"):
            ps.pi_pulse_number(0.1, a)

    def test_domain_edges_accepted(self):
        assert ps.pi_pulse_number(0.1, a=1) == ps.pi_pulse_number(0.1, a=1.0) > 0
        assert ps.pi_pulse_number(1e-300) > 0


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

        def recording(topology, T, share, ns):
            values = counting._one_photon(topology, T, share, ns)
            seen.update(zip(np.asarray(ns, dtype=float).tolist(), values))
            return values

        monkeypatch.setattr(sweeps, "_one_photon", recording)
        for topology, T in [(ps.TwoLine(a=0.01), 0.1), (ps.TwoLine(a=0.3), 0.5),
                            (ps.TwoLine(a=1.0), 5.0), (ps.SingleLine(), 0.1)]:
            seen.clear()
            best = ps.maximize_p1(topology, T)
            assert abs(best.stats.p1 - seen[best.n_star]) <= 1e-9

    # (a, T, n_star, stats.p1, stats.cutoff_k, at_boundary) across the fig5
    # domain (a = None: single line), bit for bit; the golden CSVs keep 12 digits
    PINNED = [
        (0.005, 0.05, '0x1.353e5d4b3238cp+13', '0x1.fa4ceabf4502cp-1', 4, False),
        (0.01, 0.1, '0x1.360fe4c6276dcp+11', '0x1.f4ba89be03c6bp-1', 6, False),
        (0.02, 5.0, '0x1.01ae2759f1ec0p+5', '0x1.402a2d67cb077p-1', 8, False),
        (0.05, 0.3, '0x1.4fad50914498cp+7', '0x1.d6d2f975fb11cp-1', 6, False),
        (0.1, 0.5, '0x1.9b9086ae71ec9p+5', '0x1.b89f10fe35a77p-1', 6, False),
        (0.3, 1.5, '0x1.b140a1795d68cp+2', '0x1.5bf7e3b4685a4p-1', 6, False),
        (0.5, 5.0, '0x1.7ad33f5d7c49fp+0', '0x1.eeeac10ea6201p-2', 8, True),
        (0.7, 0.08, '0x1.68f256408cb1ep+5', '0x1.2c45512185a42p-1', 4, False),
        (1.0, 2.0, '0x1.d9880f34db5c6p+0', '0x1.e8fedc382efc1p-2', 6, True),
        (None, 0.1, '0x1.92cffa47ebea6p+5', '0x1.fffe85dc98d7ep-2', 4, False),
    ]

    @pytest.mark.parametrize("a, T, n_star, p1, cutoff_k, at_boundary", PINNED)
    def test_maximizer_is_pinned_bit_for_bit(self, a, T, n_star, p1, cutoff_k, at_boundary):
        best = ps.maximize_p1(ps.SingleLine() if a is None else ps.TwoLine(a=a), T)
        assert (best.n_star.hex(), best.stats.p1.hex()) == (n_star, p1)
        assert (best.stats.cutoff_k, best.at_boundary) == (cutoff_k, at_boundary)

    @pytest.mark.parametrize("call", [
        lambda: ps.maximize_p1(ps.TwoLine(a=0.1), 0.5, k=0),
        lambda: ps.sweep_two_line(a_grid=[0.1, 0.2], T_grid=[0.5, 1.0], k=0),
        lambda: ps.sweep_single_line(T_grid=[0.5], N_grid=[1.0, 2.0], k=0),
        lambda: ps.sweep_two_line_slices([0.1], T=0.5, points=3, k=0),
    ], ids=["maximize_p1", "sweep_two_line", "sweep_single_line", "sweep_two_line_slices"])
    def test_bad_cutoff_rejected_before_any_work(self, call, kernel_calls):
        with pytest.raises(SpecError, match=r"^cutoff k must be an integer >= 1, got k=0$"):
            call()
        assert kernel_calls == []

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
        # two rows, so that the pool runs
        serial = ps.sweep_single_line(T_grid=[0.1, 0.3], N_grid=[5.0, 20.0, 49.0])
        parallel = ps.sweep_single_line(T_grid=[0.1, 0.3], N_grid=[5.0, 20.0, 49.0],
                                        workers=2)
        for ra, rb in zip(serial.records, parallel.records):
            assert np.array_equal(ra.stats.probabilities, rb.stats.probabilities)

    def test_one_row_runs_without_a_pool(self):
        # a one-row sweep at two workers, like fig3, pays no pool start-up
        code = ("import sys, photonstat as ps; "
                "rows = ps.sweep_single_line(T_grid=[0.1], N_grid=[5.0, 20.0], workers=2); "
                "print(len(rows.records), sorted(m for m in sys.modules "
                "if m in ('multiprocessing', 'concurrent.futures.process')))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "2 []"

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

    @pytest.mark.parametrize("a_grid, T_grid", [([0.1], []), ([], [0.5])],
                             ids=["no widths", "no ratios"])
    def test_empty_grid_gives_no_records_and_no_kernel_call(self, a_grid, T_grid, kernel_calls):
        assert ps.sweep_two_line(a_grid=a_grid, T_grid=T_grid).records == ()
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
    the row's points not yet settled, then one jump-counting call per distinct
    cutoff of the dual-checked points, in ascending order, over the checked
    points at it. Every slice is its own pulse's generator, over its own width."""
    top = max(rec.stats.cutoff_k for rec in records)
    expected = [(k, [rec for rec in records if rec.stats.cutoff_k >= k], False)
                for k in range(counting.START_CUTOFF, top + 1, 2)]
    checked = [rec for rec, check in zip(records, checks) if check]
    expected += [(k, [rec for rec in checked if rec.stats.cutoff_k == k], True)
                 for k in sorted({rec.stats.cutoff_k for rec in checked})]
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

    # widths whose walks stop after different rounds; T = 5 peaks at the edge of its scan
    MIXED_ROW = (ps.TwoLine(a=0.5), [0.05, 0.3, 1.0, 5.0])

    def test_row_maximizers_equal_rows_of_one(self):
        topology, T_grid = self.MIXED_ROW
        row = sweeps._argmax_p1(topology, T_grid)
        assert row[-1][1] and not any(at_boundary for _, at_boundary in row[:-1])
        for T, (n_star, at_boundary) in zip(T_grid, row):
            ((alone, alone_at_boundary),) = sweeps._argmax_p1(topology, [T])
            assert (n_star.hex(), at_boundary) == (alone.hex(), alone_at_boundary)

    def test_row_maximizers_make_one_scan_call_then_one_call_per_round(self, kernel_calls):
        topology, T_grid = self.MIXED_ROW
        alone = []
        for T in T_grid:
            kernel_calls.clear()
            sweeps._argmax_p1(topology, [T])
            alone.append(list(kernel_calls))
        kernel_calls.clear()
        sweeps._argmax_p1(topology, T_grid)
        (scan, _, widths), *rounds = kernel_calls
        assert len(scan) == len(T_grid) * sweeps._SCAN_POINTS
        assert widths.tolist() == np.repeat(T_grid, sweeps._SCAN_POINTS).tolist()
        assert len(rounds) == max(len(calls) for calls in alone) - 1
        assert {k for _, k, _ in kernel_calls} == {1}
        assert (sum(len(diag) for diag, _, _ in kernel_calls)
                == sum(len(diag) for calls in alone for diag, _, _ in calls))

    @pytest.mark.parametrize("points, checked_cutoffs", [(24, 1), (120, 2)])
    def test_one_pulse_exponential_call_per_rung(self, kernel_calls, points, checked_cutoffs):
        n_grid = np.linspace(0.0, 120.0, points)
        checks = sweeps._check_mask(len(n_grid))
        result = ps.sweep_single_line(T_grid=[2.0], N_grid=n_grid)
        assert_one_call_per_rung(kernel_calls, ps.SingleLine(), result.records, checks)
        assert len(kernel_calls[0][0]) == points
        assert all(isinstance(rec.stats.cutoff_k, int) for rec in result.records)
        assert len({rec.stats.cutoff_k for rec, check in zip(result.records, checks)
                    if check}) == checked_cutoffs

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

    @pytest.mark.parametrize("Ns, checks, message", [
        ([50.0, 120.0], [True, False], r"disagree by .* at T=10, N=50$"),
        ([120.0, 50.0], [False, True], r"^probability -.* below -1e-09"),
        ([1.0, 50.0], [False, True], r"^mean count N_1 = 1\.000000061 exceeds its bound 1 "),
        ([50.0, 1.0], [True, False], r"disagree by .* at T=10, N=50$"),
    ], ids=["check-first", "error-first", "bound-first", "check-before-bound"])
    def test_first_failing_point_or_check_raises_in_point_order(self, monkeypatch, Ns, checks,
                                                                message):
        # at T = 10, N = 120 fails its inversion; at T = 1e9, N = 1 exceeds its bound
        Ts = [1e9 if N == 1.0 else 10.0 for N in Ns]
        monkeypatch.setattr(counting, "DUAL_TOLERANCE", -1.0)
        with pytest.raises(NumericalError, match=message):
            sweeps._fixed_row(ps.SingleLine(), Ts, Ns, None, checks)



class TestPoolSize:
    """Every pool process starts at once, so the pool is sized to the work."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """Sizes of the pools asked for; each maps in this process instead."""
        import concurrent.futures

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 16)
        return sizes

    @pytest.mark.parametrize("workers, n_points, cpus, size", [
        (8, 2, 16, 2), (100_000, 3, 16, 3), (8, 40, 4, 4), (4, 40, None, None),
        (1, 40, 16, None), (8, 1, 16, None),
    ])
    def test_pool_has_at_most_one_process_per_point_and_cpu(
            self, pools, monkeypatch, workers, n_points, cpus, size):
        monkeypatch.setattr(sweeps.os, "cpu_count", lambda: cpus)
        points = [(i, 10 * i) for i in range(n_points)]
        out = sweeps._run_points(lambda a, b: a + b, points, workers)
        assert out == tuple(11 * i for i in range(n_points))
        assert pools == ([] if size is None else [size])

    def test_fig4_preset_starts_one_process_per_row(self, pools, tmp_path):
        out = tmp_path / "fig4.csv"
        assert main(["sweep", "--preset", "fig4", "--threads", "8", "--out", str(out)]) == 0
        # two coupling ratios, one row of the sweep each
        assert pools == [2]

    def test_traj_threads_beyond_trajectories(self, pools, tmp_path):
        args = ["traj", "--T", "0.1", "--N", "20", "--n-traj", "50", "--seed", "7"]
        one, many = tmp_path / "one.csv", tmp_path / "many.csv"
        assert main(args + ["--threads", "1", "--out", str(one)]) == 0
        assert main(args + ["--threads", "100000", "--out", str(many)]) == 0
        assert pools == [16]
        assert one.read_bytes() == many.read_bytes()

    @pytest.mark.parametrize("threads, n_traj, cpus, parts", [
        (1, 50, 16, 1), (3, 50, 16, 3), (20_000, 50, 4, 4), (20_000, 50, None, 1),
        (8, 2, 16, 2), (16, 50, 16, 16),
    ])
    def test_traj_makes_one_range_per_pool_process(self, monkeypatch, threads, n_traj, cpus,
                                                   parts):
        # each range builds its pieces and streams anew, so there are no more
        # ranges than processes; the ranges are recorded and run here
        monkeypatch.setattr(sweeps.os, "cpu_count", lambda: cpus)
        splits = []

        def recording(worker, points, workers):
            splits.append(([(lo, hi) for _, _, lo, hi, _ in points], workers))
            return tuple(worker(*point) for point in points)

        monkeypatch.setattr(cli, "_run_points", recording)
        config = RunConfig(T=0.1, N=20.0, n_traj=n_traj, seed=7, threads=threads)
        hist = cli._run_trajectories(config, config.drive_spec())
        (ranges, workers), = splits
        assert len(ranges) == parts == sweeps._pool_size(workers, len(ranges))
        assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
        assert ranges[-1][1] == n_traj and all(hi > lo for lo, hi in ranges)
        whole = ps.sample_trajectories(config.drive_spec(), n_traj, seed=7)
        assert np.array_equal(hist, whole.counts)
