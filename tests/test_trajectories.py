import numpy as np
import pytest
from scipy.linalg import expm

import photonstat as ps
from photonstat.errors import SpecError
from photonstat.trajectories import _StepGen

UNDRIVEN_EXCITED = ps.DriveSpec(ps.SquarePulse(T=1.0, N=0.0), t_end=20.0)
PI_PULSE = ps.DriveSpec(ps.SquarePulse(T=0.1, N=np.pi**2 / 0.2))
N_TRAJ = 20000


@pytest.fixture(scope="module")
def excited_run():
    return ps.sample_trajectories(UNDRIVEN_EXCITED, N_TRAJ, seed=7, psi0=(0.0, 1.0))


class TestStepGenerator:
    def test_closed_form_matches_scipy_expm(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            s = float(rng.uniform(0.01, 0.5))
            gen = _StepGen(h, s, rate=1.0, driven=True)
            u = np.array([[gen.u00, gen.u01], [gen.u10, gen.u11]])
            assert np.max(np.abs(u - expm(-1j * h * s))) < 1e-12

    def test_small_angle_branch(self):
        gen = _StepGen(np.zeros((2, 2), complex), 1e-10, rate=1.0, driven=False)
        u = np.array([[gen.u00, gen.u01], [gen.u10, gen.u11]])
        assert np.allclose(u, np.eye(2), atol=1e-12)


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

    def test_chunk_size_does_not_change_results(self):
        a = ps.sample_trajectories(PI_PULSE, 3000, seed=42, chunk_size=4096)
        b = ps.sample_trajectories(PI_PULSE, 3000, seed=42, chunk_size=271)
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
