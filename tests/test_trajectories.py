import numpy as np
import pytest
from scipy.linalg import expm

import photonstat as ps
from photonstat import trajectories
from photonstat.cli import main
from photonstat.errors import SpecError
from photonstat.trajectories import _Piece, _Streams

UNDRIVEN_EXCITED = ps.DriveSpec(ps.SquarePulse(T=1.0, N=0.0), t_end=20.0)
PI_PULSE = ps.DriveSpec(ps.SquarePulse(T=0.1, N=np.pi**2 / 0.2))
RAMP = ps.DriveSpec(ps.SampledPulse((0, .05, .15, .2), (0, 60, 60, 0)))
STEP_EDGE = ps.DriveSpec(ps.SampledPulse((0, .1), (50, 50)))
BUMP = ps.DriveSpec(ps.SampledPulse((0, .1, .2, .3, .4), (0, 20, 80, 20, 0)), ps.TwoLine(a=0.3))
N_TRAJ = 20000


@pytest.fixture(scope="module")
def excited_run():
    return ps.sample_trajectories(UNDRIVEN_EXCITED, N_TRAJ, seed=7, psi0=(0.0, 1.0))


@pytest.fixture(scope="module")
def ramp_run():
    return ps.sample_trajectories(RAMP, N_TRAJ, seed=3)


def assert_within_3_sigma(res, spec):
    ref = ps.photon_statistics(spec).probabilities
    p = res.counts / res.n_traj
    for n in range(max(len(p), len(ref))):
        p_obs = p[n] if n < len(p) else 0.0
        p_ref = ref[n] if n < len(ref) else 0.0
        se = np.sqrt(max(p_ref * (1 - p_ref), 1e-12) / res.n_traj)
        assert abs(p_obs - p_ref) < 3 * se, f"bin {n}: {p_obs} vs {p_ref}"


class TestPiecePropagator:
    def test_closed_form_matches_scipy_expm(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            s = rng.uniform(0.01, 0.5, size=3)
            piece = _Piece(h, float(s[0]), rate=1.0, driven=True)
            u = np.array(piece.matrix(s)).reshape(2, 2, -1)
            for j in range(len(s)):
                assert np.max(np.abs(u[..., j] - expm(-1j * h * s[j]))) < 1e-12
            assert np.max(np.abs(np.reshape(piece.full, (2, 2))
                                 - expm(-1j * h * s[0]))) < 1e-12

    def test_exceptional_point(self):
        # drive amplitude R/4 on resonance: the traceless part is nilpotent, q = 0
        h = np.array([[0.0, 0.25], [0.25, -0.5j]])
        piece = _Piece(h, 5.0, rate=1.0, driven=True)
        assert piece.q == 0
        s = np.array([1e-10, 0.1, 1.0, 5.0])
        u = np.array(piece.matrix(s)).reshape(2, 2, -1)
        for j in range(len(s)):
            assert np.max(np.abs(u[..., j] - expm(-1j * h * s[j]))) < 1e-12
        zero = _Piece(np.zeros((2, 2), complex), 1e-10, rate=1.0, driven=False)
        assert np.allclose(np.reshape(zero.full, (2, 2)), np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("h", [
        ps.effective_hamiltonian(ps.DriveSpec(ps.SquarePulse(T=2.0, N=60.0),
                                              ps.SingleLine(delta=1.5)), 1.0),
        np.random.default_rng(12).normal(size=(2, 2, 2)) @ [1.0, 1j],
        # the exceptional point q = 0
        np.array([[0.0, 0.25], [0.25, -0.5j]]),
    ], ids=["detuned", "random", "exceptional-point"])
    def test_column_is_the_first_column_bit_for_bit(self, h):
        piece = _Piece(h, 5.0, rate=1.0, driven=True)
        s = np.concatenate([[0.0], np.random.default_rng(13).uniform(0.0, 5.0, 99)])
        u00, _, u10, _ = piece.matrix(s)
        g, e = piece.column(s)
        assert np.array_equal(g.view(np.uint64), u00.view(np.uint64))
        assert np.array_equal(e.view(np.uint64), u10.view(np.uint64))

    def test_crossing_solves_norm_equation(self):
        rng = np.random.default_rng(5)
        h = ps.effective_hamiltonian(PI_PULSE, 0.05)
        piece = _Piece(h, 0.1, rate=1.0, driven=True)
        g = np.ones(200, dtype=complex)
        e = np.zeros(200, dtype=complex)
        u00, _, u10, _ = piece.full
        n_end = abs(u00) ** 2 + abs(u10) ** 2
        thr = rng.uniform(n_end, 1.0, size=200)
        span = np.full(200, 0.1)
        s = piece.crossing(span, g, e, thr, np.full(200, n_end))
        assert np.all((s > 0) & (s < 0.1))
        c0, _, c1, _ = piece.matrix(s)
        assert np.max(np.abs(abs(c0) ** 2 + abs(c1) ** 2 - thr)) < 1e-12


def ground_rows(piece, span, rng):
    """Crossing inputs of rows that start in |g> with the given spans."""
    c0, _, c1, _ = piece.matrix(span)
    n_end = abs(c0) ** 2 + abs(c1) ** 2
    g, e = np.ones(len(span), dtype=complex), np.zeros(len(span), dtype=complex)
    return span, g, e, rng.uniform(n_end, 1.0), n_end


def mixed_rows(piece, rng):
    """Crossing inputs that mix rows starting in |g> with rows that do not."""
    span, g, e, thr, n_end = ground_rows(piece, rng.uniform(0.2, 1.0, 40) * piece.length, rng)
    other = slice(0, 40, 3)
    g[other] = rng.uniform(0.3, 0.6, 14) * np.exp(1j * rng.uniform(0, 6, 14))
    e[other] = np.sqrt(1 - abs(g[other]) ** 2) * 1j
    u00, u01, u10, u11 = piece.matrix(span[other])
    n_end[other] = (abs(u00 * g[other] + u01 * e[other]) ** 2
                    + abs(u10 * g[other] + u11 * e[other]) ** 2)
    thr[other] = rng.uniform(n_end[other], 1.0)
    return span, g, e, thr, n_end


class TestGroundStartCrossing:
    """Rows that start in |g> take their first iterate from the piece's table."""

    @pytest.mark.parametrize("h, rate", [
        (ps.effective_hamiltonian(PI_PULSE, 0.05), 1.0),
        (ps.effective_hamiltonian(ps.DriveSpec(ps.SquarePulse(T=1.0, N=20.0),
                                               ps.SingleLine(delta=1.5)), 0.5), 1.0),
        (ps.effective_hamiltonian(ps.DriveSpec(ps.SquarePulse(T=2.0, N=60.0),
                                               ps.TwoLine(a=0.5)), 1.0), 1.5),
        # drive amplitude R/4 on resonance: the exceptional point q = 0
        (np.array([[0.0, 0.25], [0.25, -0.5j]]), 1.0),
    ], ids=["pi-pulse", "detuned", "two-line", "exceptional-point"])
    @pytest.mark.parametrize("decays", [0.005, 0.1, 1.0, 10.0, trajectories._MAX_PIECE_DECAYS])
    def test_solves_norm_equation(self, h, rate, decays):
        length = decays / rate
        piece = _Piece(h, length, rate, driven=True)
        rng = np.random.default_rng(8)
        span, g, e, thr, n_end = ground_rows(piece, rng.uniform(0.01, 1.0, 200) * length, rng)
        s = piece.crossing(span, g, e, thr, n_end)
        assert np.all((s > 0) & (s <= span))
        c0, _, c1, _ = piece.matrix(s)
        assert np.max(np.abs(abs(c0) ** 2 + abs(c1) ** 2 - thr)) < 1e-12

    def test_row_result_does_not_depend_on_its_block(self):
        rng = np.random.default_rng(10)
        h = ps.effective_hamiltonian(ps.DriveSpec(ps.SquarePulse(T=2.0, N=60.0)), 1.0)
        piece = _Piece(h, 2.0, rate=1.0, driven=True)
        rows = mixed_rows(piece, rng)
        block = piece.crossing(*rows)
        alone = np.array([piece.crossing(*(x[i:i + 1] for x in rows))[0]
                          for i in range(40)])
        order = rng.permutation(40)
        shuffled = np.empty(40)
        shuffled[order] = piece.crossing(*(x[order] for x in rows))
        split = np.concatenate([piece.crossing(*(x[:17] for x in rows)),
                                piece.crossing(*(x[17:] for x in rows))])
        for other in (alone, shuffled, split):
            assert np.array_equal(block.view(np.uint64), other.view(np.uint64))

    def test_no_table_without_a_ground_start_crossing(self):
        rng = np.random.default_rng(11)
        h = ps.effective_hamiltonian(PI_PULSE, 0.05)
        piece = _Piece(h, 0.1, rate=1.0, driven=True)
        span, g, e, thr, n_end = mixed_rows(piece, rng)
        other = np.flatnonzero(g != 1.0)
        piece.crossing(span[other], g[other], e[other], thr[other], n_end[other])
        assert "ground_table" not in vars(piece)
        piece.crossing(span, g, e, thr, n_end)
        assert "ground_table" in vars(piece)

    def test_sampled_envelope_builds_tables_only_where_needed(self, monkeypatch):
        # a piece builds its table exactly when a crossing there has a row in |g>
        pieces, ground_calls = [], set()
        make_pieces, crossing = trajectories._pieces, _Piece.crossing

        def recording_pieces(spec):
            pieces.extend(make_pieces(spec))
            return pieces

        def recording_crossing(piece, span, g, e, thr, n_end):
            if piece.driven and np.any((g == 1.0) & (e == 0.0)):
                ground_calls.add(id(piece))
            return crossing(piece, span, g, e, thr, n_end)

        monkeypatch.setattr(trajectories, "_pieces", recording_pieces)
        monkeypatch.setattr(_Piece, "crossing", recording_crossing)
        # a plateau from t = 0, where every row starts in |g>, then a ramp of
        # twenty short pieces entered in evolved states
        spec = ps.DriveSpec(ps.SampledPulse((0, .3, .4), (50, 50, 0)))
        ps.sample_trajectories(spec, 4000, seed=3)
        tables = {id(p) for p in pieces if "ground_table" in vars(p)}
        assert tables == ground_calls
        assert id(pieces[0]) in tables and len(tables) < len(pieces) // 4


M64 = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15


def mix64(z):
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & M64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & M64
    return z ^ z >> 31


def reference_draws(seed, i, n):
    """Draws 1..n of trajectory ``i``: the documented formula on Python ints."""
    key, rest = 0, seed
    while True:
        key = mix64((key ^ rest & M64) + GAMMA & M64)
        rest >>= 64
        if not rest:
            break
    base = mix64(i ^ key)
    return [(mix64(base + j * GAMMA & M64) >> 11) * 2.0**-53 for j in range(1, n + 1)]


class TestStreams:
    def test_matches_reference_formula(self):
        # seeds of one, two and three 64-bit words; indices at and above 2**32
        seeds = [0, 7, 2**64 - 1, 2**64, 2**100 + 11, 2**128, 2**190 + 2**64 + 3]
        index = [0, 1, 999, 2**32 - 1, 2**32, 2**32 + 1, 2**63 + 5, 2**64 - 1]
        for seed in seeds:
            streams = _Streams(seed, np.array(index, dtype=np.uint64))
            draws = [[] for _ in index]
            # rows advance unevenly, as after jumps: each keeps its own counter
            for rows in ([0, 1, 2, 3, 4, 5, 6, 7], [1, 3, 5, 7], [7], [0, 2, 4, 6, 7],
                         [0, 1, 2, 3, 4, 5, 6]):
                for r, x in zip(rows, streams.next(np.array(rows))):
                    draws[r].append(x)
            for i, got in zip(index, draws):
                assert got == reference_draws(seed, i, len(got)), (seed, i)

    def test_uniform_and_independent(self):
        # 1e6 draws: trajectories i = 0..999 of seed 0, draws j = 1..1000;
        # every statistic must lie within 5 standard errors of its expectation
        n_i = n_j = 1000
        streams = _Streams(0, np.arange(n_i, dtype=np.uint64))
        rows = np.arange(n_i)
        u = np.array([streams.next(rows) for _ in range(n_j)]).T
        n = u.size
        assert np.all((u >= 0.0) & (u < 1.0))
        assert abs(u.mean() - 0.5) < 5 * np.sqrt(1 / 12 / n)
        # the sample variance of U(0, 1) has variance (1/80 - 1/144) / n
        assert abs(u.var() - 1 / 12) < 5 * np.sqrt((1 / 80 - 1 / 144) / n)
        # chi-square over 100 equal bins: 99 degrees of freedom, sd sqrt(198)
        observed = np.bincount((u * 100).astype(int).ravel(), minlength=100)
        chi2 = np.sum((observed - n / 100) ** 2 / (n / 100))
        assert abs(chi2 - 99) < 5 * np.sqrt(198)
        # lag-1 correlation across adjacent trajectories and adjacent draws
        for a, b in ((u[:-1], u[1:]), (u[:, :-1], u[:, 1:])):
            r = np.corrcoef(a.ravel(), b.ravel())[0, 1]
            assert abs(r) < 5 / np.sqrt(a.size)


class TestSampling:
    def test_excited_start_is_fair_coin(self, excited_run):
        # exactly one emission per trajectory, reflected with weight 1/2
        p = excited_run.counts / excited_run.n_traj
        sigma = np.sqrt(0.25 / excited_run.n_traj)
        assert len(excited_run.counts) == 2
        assert abs(p[0] - 0.5) < 3 * sigma
        assert abs(p[1] - 0.5) < 3 * sigma

    def test_histogram_total(self, excited_run):
        assert excited_run.counts.sum() == excited_run.n_traj

    def test_channel_totals_symmetric(self, excited_run):
        left = excited_run.per_channel_totals["left"] * excited_run.n_traj
        right = excited_run.per_channel_totals["right"] * excited_run.n_traj
        assert abs(left - right) < 4 * np.sqrt(left + right)

    def test_vacuum_input_never_jumps(self):
        spec = ps.DriveSpec(ps.SquarePulse(T=0.1, N=0.0), t_end=5.0)
        res = ps.sample_trajectories(spec, 2000, seed=1)
        assert np.array_equal(res.counts, [2000])
        assert res.per_channel_totals == {"left": 0.0, "right": 0.0}

    def test_mean_matches_first_moment(self, excited_run):
        n1 = ps.binomial_moments(UNDRIVEN_EXCITED, 1, rho0=ps.EXCITED)[0]
        mean = excited_run.per_channel_totals["left"]
        se = np.sqrt(0.25 / excited_run.n_traj)
        assert abs(mean - n1) < 4 * se

    def test_pi_pulse_matches_counting_within_3_sigma(self):
        res = ps.sample_trajectories(PI_PULSE, N_TRAJ, seed=11)
        ref = ps.photon_statistics(PI_PULSE).probabilities
        p = res.counts / res.n_traj
        for n in range(len(res.counts)):
            p_ref = ref[n] if n < len(ref) else 0.0
            se = np.sqrt(max(p_ref * (1 - p_ref), 1e-12) / res.n_traj)
            assert abs(p[n] - p_ref) < 3 * se + 2 / res.n_traj

    def test_sampled_ramp_matches_moments_within_3_sigma(self, ramp_run):
        assert_within_3_sigma(ramp_run, RAMP)

    def test_sampled_step_edge_matches_moments_within_3_sigma(self):
        assert_within_3_sigma(ps.sample_trajectories(STEP_EDGE, N_TRAJ, seed=4), STEP_EDGE)

    def test_two_line_monitored_fraction(self):
        a = 0.25
        spec = ps.DriveSpec(ps.SquarePulse(T=1.0, N=0.0), ps.TwoLine(a=a), t_end=15.0)
        res = ps.sample_trajectories(spec, N_TRAJ, seed=5, psi0=(0.0, 1.0))
        p1 = res.counts[1] / res.n_traj
        expected = 1.0 / (1.0 + a)
        assert abs(p1 - expected) < 3 * np.sqrt(expected * (1 - expected) / res.n_traj)
        assert res.per_channel_totals["strong"] + res.per_channel_totals["weak"] \
            == pytest.approx(1.0, abs=1e-12)


class TestReproducibility:
    def test_identical_seed_identical_histogram(self):
        a = ps.sample_trajectories(PI_PULSE, 3000, seed=42)
        b = ps.sample_trajectories(PI_PULSE, 3000, seed=42)
        assert np.array_equal(a.counts, b.counts)
        assert a.per_channel_totals == b.per_channel_totals

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        a = ps.sample_trajectories(PI_PULSE, 3000, seed=42)
        monkeypatch.setattr(trajectories, "_CHUNK", 271)
        b = ps.sample_trajectories(PI_PULSE, 3000, seed=42)
        assert np.array_equal(a.counts, b.counts)

    def test_range_merge_equals_full_run(self):
        full, mon, oth = ps.sample_trajectory_range(PI_PULSE, 42, 0, 3000)
        h1, m1, o1 = ps.sample_trajectory_range(PI_PULSE, 42, 0, 1100)
        h2, m2, o2 = ps.sample_trajectory_range(PI_PULSE, 42, 1100, 3000)
        width = max(len(full), len(h1), len(h2))
        pad = lambda h: np.pad(h, (0, width - len(h)))
        assert np.array_equal(pad(full), pad(h1) + pad(h2))
        assert (mon, oth) == (m1 + m2, o1 + o2)

    def test_different_seeds_differ(self):
        a = ps.sample_trajectories(PI_PULSE, 3000, seed=1)
        b = ps.sample_trajectories(PI_PULSE, 3000, seed=2)
        assert not np.array_equal(a.counts, b.counts)


class TestPinnedHistograms:
    """Histograms and channel totals of the event-driven sampler on the
    counter-based streams of :class:`_Streams`; a change to either moves them."""

    def test_pi_pulse(self):
        res = ps.sample_trajectories(PI_PULSE, 3000, seed=42)
        assert res.counts.tolist() == [1492, 1502, 6]
        assert res.per_channel_totals == {"left": 1514 / 3000, "right": 1515 / 3000}

    def test_two_line_from_excited(self):
        spec = ps.DriveSpec(ps.SquarePulse(T=0.5, N=10.0), ps.TwoLine(a=0.3))
        res = ps.sample_trajectories(spec, 3000, seed=5, psi0=(0.0, 1.0))
        assert res.counts.tolist() == [2119, 592, 286, 3]
        assert res.per_channel_totals == {"strong": 1173 / 3000, "weak": 358 / 3000}

    def test_sampled_ramp(self, ramp_run):
        assert ramp_run.counts.tolist() == [13959, 6028, 13]
        assert ramp_run.per_channel_totals == {"left": 6054 / N_TRAJ,
                                               "right": 6253 / N_TRAJ}

    @pytest.mark.parametrize("spec, seed, psi0, counts, totals", [
        # many jumps per trajectory: about two emissions each
        (ps.DriveSpec(ps.SquarePulse(T=2.0, N=60.0), ps.TwoLine(a=0.5)), 9, None,
         [600, 1349, 624, 337, 69, 19, 2], {"strong": 3991, "weak": 2012}),
        (ps.DriveSpec(ps.SquarePulse(T=1.0, N=20.0), ps.SingleLine(delta=1.5)), 13, None,
         [2221, 538, 226, 15], {"left": 1035, "right": 1023}),
        (ps.DriveSpec(ps.SquarePulse(T=0.5, N=10.0)), 17, (0.0, 1.0),
         [2566, 304, 129, 1], {"left": 565, "right": 526}),
        (ps.DriveSpec(ps.SquarePulse(T=0.5, N=10.0)), 19, (0.6, 0.8j),
         [2312, 647, 40, 1], {"left": 730, "right": 743}),
        (BUMP, 21, None, [1249, 1731, 20], {"strong": 1771, "weak": 532}),
    ], ids=["two-line-many-jumps", "detuned", "excited", "superposition", "bump"])
    def test_pinned_run(self, spec, seed, psi0, counts, totals):
        res = ps.sample_trajectories(spec, 3000, seed=seed, psi0=psi0)
        assert res.counts.tolist() == counts
        assert res.per_channel_totals == {name: n / 3000 for name, n in totals.items()}

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_cli_counts(self, tmp_path, threads):
        out = tmp_path / "traj.csv"
        assert main(["traj", "--T", "1", "--N", "30", "--topology", "two", "--a", "0.5",
                     "--n-traj", "4000", "--seed", "5", "--threads", threads,
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [int(row.split(",")[1]) for row in rows] == [1941, 1360, 577, 117, 5]


class TestValidation:
    def test_rejects_empty_run(self):
        with pytest.raises(SpecError):
            ps.sample_trajectories(PI_PULSE, 0, seed=1)

    def test_rejects_unnormalized_initial_state(self):
        with pytest.raises(SpecError, match="norm"):
            ps.sample_trajectories(PI_PULSE, 10, seed=1, psi0=(0.8, 0.8))

    def test_rejects_wrong_shape(self):
        with pytest.raises(SpecError):
            ps.sample_trajectories(PI_PULSE, 10, seed=1, psi0=(1.0, 0.0, 0.0))

    @pytest.mark.parametrize("seed", [-3, 1.5, True, False, 2.0, "7", None])
    def test_rejects_bad_seed(self, seed):
        pattern = rf"^seed must be an integer >= 0, got seed={seed!r}$"
        with pytest.raises(SpecError, match=pattern):
            ps.sample_trajectory_range(PI_PULSE, seed, 0, 10)
        with pytest.raises(SpecError, match=pattern):
            ps.sample_trajectories(PI_PULSE, 10, seed=seed)

    @pytest.mark.parametrize("n_traj", [True, False, 10.5, 10.0, "10", None, 0, -2])
    def test_rejects_non_integer_n_traj(self, n_traj):
        with pytest.raises(SpecError, match=rf"^n_traj must be an integer >= 1, got n_traj={n_traj!r}$"):
            ps.sample_trajectories(PI_PULSE, n_traj, seed=1)

    @pytest.mark.parametrize("start, stop, name", [(True, 10, "start"), (-1, 10, "start"),
                                                   (0, 10.0, "stop"), (0, False, "stop"),
                                                   (5, 5, "stop")])
    def test_rejects_bad_trajectory_range(self, start, stop, name):
        with pytest.raises(SpecError, match=rf"^{name} must be an integer"):
            ps.sample_trajectory_range(PI_PULSE, 1, start, stop)

    def test_numpy_integers_are_accepted(self):
        res = ps.sample_trajectories(PI_PULSE, np.int64(10), seed=np.uint32(3))
        assert res.n_traj == 10 and res.seed == 3
        assert res.counts.sum() == 10
