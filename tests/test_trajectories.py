import numpy as np
import pytest
from scipy.linalg import expm

import photonstat as ps
from photonstat import trajectories
from photonstat.errors import SpecError
from photonstat.trajectories import _Piece, _Streams

UNDRIVEN_EXCITED = ps.DriveSpec(ps.SquarePulse(T=1.0, N=0.0), t_end=20.0)
PI_PULSE = ps.DriveSpec(ps.SquarePulse(T=0.1, N=np.pi**2 / 0.2))
RAMP = ps.DriveSpec(ps.SampledPulse((0, .05, .15, .2), (0, 60, 60, 0)))
STEP_EDGE = ps.DriveSpec(ps.SampledPulse((0, .1), (50, 50)))
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


class TestStreams:
    def test_matches_numpy_generators(self):
        # entropy beyond the four-word pool and indices of two 32-bit words
        # take separate paths through SeedSequence
        seeds = [0, 7, 2**31 - 1, 2**32 + 5, 2**100 + 11]
        index = [0, 1, 999, 2**32 - 1, 2**32 + 1]
        for seed in seeds:
            streams = _Streams(seed, np.array(index, dtype=np.uint64))
            rows = np.arange(len(index))
            draws = np.array([streams.next(rows) for _ in range(5)]).T
            for i, got in zip(index, draws):
                assert np.array_equal(got, np.random.default_rng([seed, i]).random(5)), \
                    (seed, i)


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
        n1 = ps.binomial_moments(UNDRIVEN_EXCITED, ps.jump_superop(UNDRIVEN_EXCITED), 1,
                                 rho0=ps.EXCITED)[0]
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
    """Histograms and channel totals frozen from the fixed-step sampler."""

    def test_pi_pulse(self):
        res = ps.sample_trajectories(PI_PULSE, 3000, seed=42)
        assert res.counts.tolist() == [1524, 1465, 11]
        assert res.per_channel_totals == {"left": 1487 / 3000, "right": 1551 / 3000}

    def test_two_line_from_excited(self):
        spec = ps.DriveSpec(ps.SquarePulse(T=0.5, N=10.0), ps.TwoLine(a=0.3))
        res = ps.sample_trajectories(spec, 3000, seed=5, psi0=(0.0, 1.0))
        assert res.counts.tolist() == [2085, 602, 309, 4]
        assert res.per_channel_totals == {"strong": 1232 / 3000, "weak": 369 / 3000}

    def test_sampled_ramp(self, ramp_run):
        assert ramp_run.counts.tolist() == [13790, 6187, 23]
        assert ramp_run.per_channel_totals == {"left": 6233 / N_TRAJ,
                                               "right": 6181 / N_TRAJ}


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

    @pytest.mark.parametrize("seed", [-3, 1.5])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(SpecError, match=str(seed)):
            ps.sample_trajectory_range(PI_PULSE, seed, 0, 10)
