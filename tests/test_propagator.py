import numpy as np
import pytest
from scipy.linalg import expm

import photonstat as ps
from conftest import random_density, time_grid
from photonstat import propagator
from photonstat.counting import verify_dual
from photonstat.errors import SpecError
from photonstat.liouville import drive_intervals
from photonstat.propagator import (
    _CAPACITY,
    _CHOICE,
    _FROM_R,
    _TO_R,
    _block_expm,
    _cf4,
    _real,
    advance,
    real_parts,
)
from photonstat.trajectories import _MAX_STEP, _pieces


def reference_rk4(spec, rho0, t1, n_steps):
    """Independent fine-step integration of the master equation.

    Classical RK4 on the 2x2 density matrix written directly from the
    equation of motion; shares nothing with the package's propagation
    paths except the generator construction.
    """
    def rhs(t, rho):
        return ps.devectorize(ps.build_liouvillian(spec, min(t, t1 * (1 - 1e-12)))
                              @ ps.vectorize(rho))

    h = t1 / n_steps
    rho = np.array(rho0, dtype=complex)
    for i in range(n_steps):
        t = i * h
        k1 = rhs(t, rho)
        k2 = rhs(t + h / 2, rho + h / 2 * k1)
        k3 = rhs(t + h / 2, rho + h / 2 * k2)
        k4 = rhs(t + h, rho + h * k3)
        rho = rho + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return rho


class TestSegmentPropagators:
    def test_undriven_segments_are_decay_exponentials(self):
        spec = ps.DriveSpec(ps.SquarePulse(T=1.0, N=0.0), t_end=1.0)
        grid = time_grid(spec, step=0.5)
        expected = expm(ps.dissipator(ps.SIGMA_MINUS) * 0.5)
        assert len(grid.segments) == 2
        for seg in grid.segments:
            assert np.allclose(seg, expected, atol=1e-13)
        rho1 = ps.devectorize(grid.segments[1] @ (grid.segments[0] @ ps.vectorize(ps.EXCITED)))
        assert rho1[1, 1].real == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_pi_pulse_inversion_vs_fine_reference(self):
        T = 0.1
        spec = ps.DriveSpec(ps.SquarePulse(T=T, N=np.pi**2 / (2 * T)))
        rho_T = ps.evolve_state(spec, ps.GROUND, 0.0, T)
        assert abs(rho_T[1, 1].real - 1.0) < 0.05
        ref = reference_rk4(spec, ps.GROUND, T, 2000)
        assert np.max(np.abs(rho_T - ref)) < 1e-9

    def test_composition_property(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            T = float(rng.uniform(0.05, 1.0))
            N = float(rng.uniform(0.0, 60.0))
            spec = ps.DriveSpec(ps.SquarePulse(T=T, N=N))
            t0, t1, t2 = sorted(rng.uniform(0.0, spec.t_end, size=3))
            direct = ps.propagator_between(spec, t0, t2)
            composed = ps.propagator_between(spec, t1, t2) @ ps.propagator_between(spec, t0, t1)
            assert np.max(np.abs(direct - composed)) < 1e-8
        # a sampled span crossing every envelope knot equals the product over its parts
        ramp = ps.DriveSpec(ps.SampledPulse((0.0, 0.05, 0.15, 0.2), (0.0, 60.0, 60.0, 0.0)))
        t0, t2 = 0.0, 0.5
        knots = (t0, 0.05, 0.15, 0.2, t2)
        composed = np.eye(4)
        for a, b in zip(knots, knots[1:]):
            composed = ps.propagator_between(ramp, a, b) @ composed
        assert np.max(np.abs(ps.propagator_between(ramp, t0, t2) - composed)) < 1e-9

    def test_trace_preservation_on_random_states(self):
        rng = np.random.default_rng(29)
        spec = ps.DriveSpec(ps.SquarePulse(T=0.2, N=80.0), ps.TwoLine(a=0.4))
        grid = time_grid(spec)
        for seg in grid.segments[::25]:
            rho = random_density(rng)
            out = ps.devectorize(seg @ ps.vectorize(rho))
            assert abs(out.trace() - rho.trace()) < 1e-9

    def test_states_along_window(self):
        spec = ps.DriveSpec(ps.SquarePulse(T=0.1, N=49.35))
        grid = time_grid(spec)
        for rho in grid.states[:: len(grid.states) // 40]:
            assert abs(rho.trace() - 1.0) < 1e-9
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
            assert np.linalg.eigvalsh(rho).min() > -1e-9

    def test_square_pulse_states_step_independent(self):
        spec = ps.DriveSpec(ps.SquarePulse(T=0.1, N=49.35), t_end=1.0)
        coarse = time_grid(spec, step=0.02)
        fine = time_grid(spec, step=0.01)
        for j, t in enumerate(coarse.times):
            i = int(np.argmin(np.abs(fine.times - t)))
            assert abs(fine.times[i] - t) < 1e-12
            assert np.max(np.abs(coarse.states[j] - fine.states[i])) < 1e-12

    def test_sampled_step_halving_stability(self):
        pulse = ps.SampledPulse((0.0, 0.05, 0.15, 0.2), (0.0, 60.0, 60.0, 0.0))
        spec = ps.DriveSpec(pulse, t_end=1.0)
        coarse = time_grid(spec, step=0.02)
        fine = time_grid(spec, step=0.01)
        for j, t in enumerate(coarse.times):
            i = int(np.argmin(np.abs(fine.times - t)))
            if abs(fine.times[i] - t) < 1e-12:
                assert np.max(np.abs(coarse.states[j] - fine.states[i])) < 1e-8

    def test_sampled_rectangle_matches_square_pulse(self):
        T, N = 0.1, 12.0
        square = ps.DriveSpec(ps.SquarePulse(T=T, N=N), t_end=2.0)
        sampled = ps.DriveSpec(ps.SampledPulse((0.0, T), (N / T, N / T)), t_end=2.0)
        ga = time_grid(square, step=0.02)
        gb = time_grid(sampled, step=0.02)
        assert max(np.max(np.abs(a - b)) for a, b in zip(ga.states, gb.states)) < 1e-8


class TestEvolveState:
    def test_rejects_reversed_interval(self):
        spec = ps.DriveSpec(ps.SquarePulse(T=0.1, N=1.0))
        with pytest.raises(SpecError):
            ps.evolve_state(spec, ps.GROUND, 1.0, 0.5)

    def test_detuned_coherence_rotation(self):
        # undriven, detuned: the <e|rho|g> coherence picks up e^{(i delta - 1/2) t}
        delta, t = 1.3, 0.7
        spec = ps.DriveSpec(ps.SquarePulse(T=1.0, N=0.0), ps.SingleLine(delta=delta), t_end=1.0)
        rho0 = np.array([[0.6, 0.35], [0.35, 0.4]], dtype=complex)
        rho_t = ps.evolve_state(spec, rho0, 0.0, t)
        expected = rho0[1, 0] * np.exp((1j * delta - 0.5) * t)
        assert abs(rho_t[1, 0] - expected) < 1e-9
        assert abs(rho_t[0, 1] - np.conj(expected)) < 1e-9

    def test_validates_initial_state(self):
        spec = ps.DriveSpec(ps.SquarePulse(T=0.1, N=1.0))
        with pytest.raises(SpecError, match="Hermitian"):
            ps.evolve_state(spec, np.array([[1.0, 0.2], [0.0, 0.0]]), 0.0, 0.1)
        with pytest.raises(SpecError, match="trace"):
            ps.evolve_state(spec, 0.5 * ps.GROUND, 0.0, 0.1)

    def test_identity_propagator_at_zero_duration(self):
        spec = ps.DriveSpec(ps.SquarePulse(T=0.1, N=5.0))
        assert np.array_equal(ps.propagator_between(spec, 0.3, 0.3), np.eye(4))


# the acceptance ramp: onset, flat top, tail-off, undriven tail
RAMP = ps.DriveSpec(ps.SampledPulse((0.0, 0.05, 0.15, 0.2), (0.0, 60.0, 60.0, 0.0)),
                    t_end=1.0)


def block_hierarchy(diag, feed, k):
    """Dense generator of hierarchy levels 0..k, built independently of the package."""
    return np.kron(np.eye(k + 1), diag) + np.kron(np.eye(k + 1, k=-1), feed)


class TestSampledIntegrator:
    def test_sampled_rectangle_equals_square_pulse(self):
        T, N = 0.1, 30.0
        square = ps.DriveSpec(ps.SquarePulse(T=T, N=N), t_end=5.0)
        sampled = ps.DriveSpec(ps.SampledPulse((0.0, T), (N / T, N / T)), t_end=5.0)
        for method in ("moment-inversion", "jump-counting"):
            pa = ps.photon_statistics(square, method=method, k=5)
            pb = ps.photon_statistics(sampled, method=method, k=5)
            assert np.max(np.abs(pa.probabilities - pb.probabilities)) < 1e-12
            assert np.max(np.abs(pa.moments - pb.moments)) < 1e-12
        for t0, t1 in ((0.0, 5.0), (0.03, 0.07), (0.05, 2.0)):
            diff = ps.propagator_between(square, t0, t1) - ps.propagator_between(sampled, t0, t1)
            assert np.max(np.abs(diff)) < 1e-12

    def test_flat_top_is_one_exponential(self):
        t0, t1 = 0.05, 0.15
        gen = ps.build_liouvillian(RAMP, 0.1)
        exact = expm(gen * (t1 - t0))
        assert np.max(np.abs(ps.propagator_between(RAMP, t0, t1) - exact)) < 1e-12
        njump = ps.jump_superop(RAMP)
        k = 4
        y = np.random.default_rng(3).normal(size=4 * (k + 1)).astype(complex)
        for resolved in (False, True):
            diag = gen - njump if resolved else gen
            expected = expm(block_hierarchy(diag, njump, k) * (t1 - t0)) @ y
            got = advance(RAMP, y, t0, t1, 1e-9, resolved)
            assert np.max(np.abs(got - expected)) < 1e-12

    def test_cf4_is_fourth_order_on_the_onset(self):
        # the onset [0, 0.05] has a square-root amplitude in t; in the graded
        # variable halving the step still divides the difference by ~16
        # _cf4 works in the real coordinates r of the propagator
        static, _, njump = real_parts(RAMP.topology)
        k = 3
        level0 = np.zeros(4 * (k + 1))
        level0[0] = 1.0
        for base, y in ((static, np.eye(4)), (static - njump, level0)):
            runs = [_cf4(RAMP, base, y, 0.0, 0.05, n) for n in (8, 16, 32)]
            coarse = np.max(np.abs(runs[1] - runs[0]))
            fine = np.max(np.abs(runs[2] - runs[1]))
            assert coarse / fine >= 12

    def test_small_nonzero_end_is_graded(self, monkeypatch):
        # [0.5, 1] falls from 30 to 2e-3: its amplitude has a near-infinite
        # slope at t = 1 unless the variable is graded toward that end
        spec = ps.DriveSpec(ps.SampledPulse((0.0, 0.5, 1.0), (1e-12, 30.0, 2e-3)),
                            ps.SingleLine(delta=2.0))
        steps = []

        def recording_cf4(spec, base, y, t0, t1, n):
            steps.append((t0, t1, n))
            return _cf4(spec, base, y, t0, t1, n)

        monkeypatch.setattr(propagator, "_cf4", recording_cf4)
        moments = ps.photon_statistics(spec)
        verify_dual(spec, moments)
        tail_steps = [n for t0, t1, n in steps if (t0, t1) == (0.5, 1.0)]
        assert tail_steps and max(tail_steps) < 1000

    def test_partition_matches_trajectory_pieces(self):
        specs = [
            RAMP,
            ps.DriveSpec(ps.SampledPulse((0.0, 0.3, 0.6), (0.0, 8.0, 0.0)), ps.TwoLine(a=0.5)),
            ps.DriveSpec(ps.SampledPulse((0.1, 0.2, 0.4), (5.0, 5.0, 20.0))),
            ps.DriveSpec(ps.SquarePulse(T=0.1, N=49.35)),
        ]
        for spec in specs:
            parts = drive_intervals(spec)
            assert [p[0] for p in parts[1:]] == [p[1] for p in parts[:-1]]
            assert (parts[0][0], parts[-1][1]) == (0.0, spec.t_end)
            pieces = iter(_pieces(spec))
            for t0, t1, amp in parts:
                covered, inside = 0.0, []
                while covered < (t1 - t0) * (1 - 1e-12):
                    inside.append(next(pieces))
                    covered += inside[-1].length
                # a constant-flux interval is one constant-H_eff piece; a
                # linear one is cut into midpoint-frozen steps
                if amp is not None:
                    assert len(inside) == 1
                    assert amp == ps.drive_amplitude(spec, 0.5 * (t0 + t1))
                else:
                    assert len(inside) > 1
                    assert max(p.length for p in inside) <= _MAX_STEP * (1 + 1e-12)
            assert next(pieces, None) is None


TOPOLOGIES = [ps.SingleLine(), ps.SingleLine(delta=0.7), ps.TwoLine(a=0.3, delta=-1.2)]


class TestRealCoordinates:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_generators_are_real_and_round_trip(self, topology):
        static, drive = ps.liouville.liouvillian_parts(topology)
        spec = ps.DriveSpec(ps.SquarePulse(T=0.3, N=12.0), topology)
        originals = (static, drive, ps.jump_superop(spec))
        for real, original in zip(real_parts(topology), originals):
            assert real.dtype == np.float64
            assert np.max(np.abs(_FROM_R @ real @ _TO_R - original)) <= 1e-15
        gen = ps.build_liouvillian(spec, 0.1)
        assert np.max(np.abs(_FROM_R @ _real(gen) @ _TO_R - gen)) <= 1e-15
        assert np.array_equal(_TO_R @ _FROM_R, np.eye(4))

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_non_hermitian_states_propagate_exactly(self, topology):
        # advance works in r but takes and returns column-stacked states of
        # any kind; compare with the dense column-stacked hierarchy
        spec = ps.DriveSpec(ps.SquarePulse(T=0.3, N=12.0), topology)
        njump = ps.jump_superop(spec)
        k = 3
        rng = np.random.default_rng(8)
        y = rng.normal(size=(4 * (k + 1), 2)) + 1j * rng.normal(size=(4 * (k + 1), 2))
        for resolved in (False, True):
            expected = y
            for t0, t1, _ in drive_intervals(spec):
                gen = ps.build_liouvillian(spec, 0.5 * (t0 + t1))
                diag = gen - njump if resolved else gen
                expected = expm(block_hierarchy(diag, njump, k) * (t1 - t0)) @ expected
            got = advance(spec, y, 0.0, spec.t_end, 1e-9, resolved)
            assert got.shape == y.shape
            assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))


def norm_spread_stack(topology, n, rng, dt=1.0):
    """Hierarchy blocks of ``n`` drives whose 1-norms ``max col-sum(|D| + |J|) dt``
    are log-spaced over [1e-4, 400], with the feed scaled along."""
    static, drive, jump = real_parts(topology)
    diag = static - jump * rng.integers(0, 2) + rng.uniform(0, 30, n)[:, None, None] * drive
    feed = np.broadcast_to(jump, diag.shape)
    norms = (np.abs(diag) + np.abs(feed)).sum(-2).max(-1)
    scale = (np.geomspace(1e-4, 400.0, n) if n > 1 else np.array([400.0])) / (norms * dt)
    return diag * scale[:, None, None], feed * scale[:, None, None]


class TestBlockExponential:
    @pytest.mark.parametrize("topology", [ps.SingleLine(), ps.TwoLine(a=0.3)])
    @pytest.mark.parametrize("k", range(1, 17))
    def test_matches_scipy_on_dense_generator(self, topology, k):
        rng = np.random.default_rng(k)
        n = (1, 2, 5, 17, 64)[k % 5]
        dt = float(rng.uniform(0.5, 2.0))
        diag, feed = norm_spread_stack(topology, n, rng, dt)
        got = _block_expm(diag, feed, k, dt)
        assert got.shape == (n, 4 * (k + 1), 4 * (k + 1))
        for d, f, g in zip(diag, feed, got):
            ref = expm(block_hierarchy(d, f, k) * dt)
            assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_slices_with_different_choices_equal_each_alone(self):
        rng = np.random.default_rng(4)
        for topology in (ps.SingleLine(delta=0.7), ps.TwoLine(a=0.3)):
            diag, feed = norm_spread_stack(topology, 24, rng)
            norms = (np.abs(diag) + np.abs(feed)).sum(-2).max(-1)
            degree, squarings = _CHOICE[:, np.searchsorted(_CAPACITY, norms)]
            assert len(set(degree)) > 2 and len(set(squarings)) > 5
            for k in (0, 1, 6, 16):
                stack = _block_expm(diag, feed, k, 1.0)
                for i in rng.permutation(24)[:8]:
                    assert np.array_equal(stack[i], _block_expm(diag[i], feed[i], k, 1.0))
