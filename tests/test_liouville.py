import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photonstat as ps
from conftest import random_density
from photonstat.errors import SpecError


class TestPauliAlgebra:
    def test_lowering_nilpotent(self):
        assert np.all(ps.SIGMA_MINUS @ ps.SIGMA_MINUS == 0)
        assert np.all(ps.SIGMA_PLUS @ ps.SIGMA_PLUS == 0)

    def test_sigma_x_decomposition(self):
        assert np.array_equal(ps.SIGMA_X, ps.SIGMA_MINUS + ps.SIGMA_PLUS)

    def test_sigma_z_convention(self):
        # ground has eigenvalue -1, excited +1
        assert np.array_equal(ps.SIGMA_Z, np.diag([-1.0 + 0j, 1.0]))

    def test_raising_lowering_commutator(self):
        comm = ps.SIGMA_PLUS @ ps.SIGMA_MINUS - ps.SIGMA_MINUS @ ps.SIGMA_PLUS
        assert np.array_equal(comm, ps.SIGMA_Z)

    def test_lowering_action(self):
        # sm |e> = |g>
        assert np.array_equal(ps.SIGMA_MINUS @ np.array([0, 1]), np.array([1, 0]))


class TestVectorization:
    def test_identity(self):
        assert np.array_equal(ps.vectorize(np.eye(2)), [1, 0, 0, 1])

    def test_entry_01_maps_to_slot_2(self):
        m = np.zeros((2, 2), complex)
        m[0, 1] = 1.0
        assert np.array_equal(ps.vectorize(m), [0, 0, 1, 0])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, seed):
        m = np.random.default_rng(seed).normal(size=(2, 2, 2))
        m = m[0] + 1j * m[1]
        assert np.array_equal(ps.devectorize(ps.vectorize(m)), m)

    def test_superop_application_matches_sandwich(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        super_op = np.kron(b.T, a)
        direct = a @ x @ b
        assert np.allclose(ps.devectorize(super_op @ ps.vectorize(x)), direct, atol=1e-14)


class TestDissipator:
    def test_excited_state_decays(self):
        out = ps.devectorize(ps.dissipator(ps.SIGMA_MINUS) @ ps.vectorize(ps.EXCITED))
        assert np.allclose(out, ps.GROUND - ps.EXCITED, atol=1e-15)

    def test_ground_state_is_dark(self):
        out = ps.dissipator(ps.SIGMA_MINUS) @ ps.vectorize(ps.GROUND)
        assert np.all(out == 0)

    def test_coherence_decays_at_half_rate(self):
        coh = np.zeros((2, 2), complex)
        coh[1, 0] = 1.0  # |e><g|
        out = ps.devectorize(ps.dissipator(ps.SIGMA_MINUS) @ ps.vectorize(coh))
        assert np.allclose(out, -0.5 * coh, atol=1e-15)

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(11)
        d = ps.dissipator(ps.SIGMA_MINUS)
        for _ in range(5):
            rho = random_density(rng)
            out = ps.devectorize(d @ ps.vectorize(rho))
            assert np.max(np.abs(out - out.conj().T)) < 1e-14


class TestDriveSpec:
    def test_square_flux_profile(self):
        pulse = ps.SquarePulse(T=0.5, N=2.0)
        assert pulse.flux(0.0) == 4.0
        assert pulse.flux(0.49) == 4.0
        assert pulse.flux(0.5) == 0.0
        assert pulse.flux(-0.01) == 0.0

    def test_square_validation(self):
        with pytest.raises(SpecError):
            ps.SquarePulse(T=0.0, N=1.0)
        with pytest.raises(SpecError):
            ps.SquarePulse(T=1.0, N=-0.5)

    def test_sampled_interpolation(self):
        pulse = ps.SampledPulse((0.0, 1.0, 2.0), (0.0, 4.0, 0.0))
        assert pulse.flux(0.5) == 2.0
        assert pulse.flux(1.5) == 2.0
        assert pulse.flux(2.5) == 0.0
        assert pulse.flux(-0.5) == 0.0

    def test_sampled_validation(self):
        with pytest.raises(SpecError):
            ps.SampledPulse((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(SpecError):
            ps.SampledPulse((0.0,), (1.0,))

    def test_coupling_ratio_bounds(self):
        with pytest.raises(SpecError, match="0 < a <= 1"):
            ps.TwoLine(a=1.5)
        with pytest.raises(SpecError, match="0 < a <= 1"):
            ps.TwoLine(a=0.0)
        ps.TwoLine(a=1.0)

    @pytest.mark.parametrize("build, field", [
        (lambda: ps.SquarePulse(T=1.0, N=math.inf), "N="),
        (lambda: ps.SquarePulse(T=1.0, N=math.nan), "N="),
        (lambda: ps.SquarePulse(T=math.inf, N=1.0), "T="),
        (lambda: ps.SampledPulse((0.0, math.nan), (1.0, 1.0)), "times"),
        (lambda: ps.SampledPulse((0.0, 1.0), (1.0, math.nan)), "values"),
        (lambda: ps.SingleLine(delta=math.nan), "delta="),
        (lambda: ps.TwoLine(a=0.5, delta=math.inf), "delta="),
        (lambda: ps.DriveSpec(ps.SquarePulse(T=1.0, N=1.0), t_end=math.nan), "t_end="),
    ])
    def test_non_finite_inputs_name_the_field(self, build, field):
        with pytest.raises(SpecError, match=field):
            build()

    def test_window_must_contain_pulse(self):
        with pytest.raises(SpecError):
            ps.DriveSpec(ps.SquarePulse(T=1.0, N=1.0), t_end=0.5)

    def test_default_window_policy(self):
        single = ps.DriveSpec(ps.SquarePulse(T=0.1, N=1.0))
        assert single.t_end == pytest.approx(12.1)
        two = ps.DriveSpec(ps.SquarePulse(T=0.1, N=1.0), ps.TwoLine(a=0.5))
        assert two.t_end == pytest.approx(0.1 + 12.0 / 1.5)


class TestLiouvillian:
    def test_undriven_single_line_is_pure_dissipator(self):
        spec = ps.DriveSpec(ps.SquarePulse(T=1.0, N=0.0), t_end=2.0)
        gen = ps.build_liouvillian(spec, 0.5)
        assert np.array_equal(gen, ps.dissipator(ps.SIGMA_MINUS))

    def test_two_line_form(self):
        a = 0.3
        spec = ps.DriveSpec(ps.SquarePulse(T=1.0, N=2.0), ps.TwoLine(a=a), t_end=2.0)
        gen = ps.build_liouvillian(spec, 0.5)
        amp = np.sqrt(a * 2.0)
        ham = amp * ps.SIGMA_X
        expected = (1 + a) * ps.dissipator(ps.SIGMA_MINUS) \
            - 1j * (np.kron(ps.IDENTITY2, ham) - np.kron(ham.T, ps.IDENTITY2))
        assert np.allclose(gen, expected, atol=1e-14)

    def test_rejects_negative_flux(self):
        spec = ps.DriveSpec(ps.SampledPulse((0.0, 1.0), (-1.0, -1.0)), t_end=2.0)
        with pytest.raises(SpecError, match="non-negative"):
            ps.build_liouvillian(spec, 0.5)

    @given(st.floats(0.05, 5.0), st.floats(0.0, 100.0), st.floats(-2.0, 2.0),
           st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_generator_is_traceless(self, T, N, delta, frac):
        spec = ps.DriveSpec(ps.SquarePulse(T=T, N=N), ps.SingleLine(delta=delta))
        t = frac * spec.t_end
        gen = ps.build_liouvillian(spec, t)
        rng = np.random.default_rng(17)
        for _ in range(3):
            rho = random_density(rng)
            out = ps.devectorize(gen @ ps.vectorize(rho))
            assert abs(out.trace()) < 1e-12

    def test_undriven_decay_rate(self):
        spec = ps.DriveSpec(ps.SquarePulse(T=1.0, N=0.0), t_end=1.0)
        rho = ps.evolve_state(spec, ps.EXCITED, 0.0, 1.0)
        assert rho[1, 1].real == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_two_line_decay_rate(self):
        spec = ps.DriveSpec(ps.SquarePulse(T=1.0, N=0.0), ps.TwoLine(a=1.0), t_end=1.0)
        rho = ps.evolve_state(spec, ps.EXCITED, 0.0, 1.0)
        assert rho[1, 1].real == pytest.approx(np.exp(-2.0), abs=1e-12)

    def test_ground_is_steady_without_drive(self):
        spec = ps.DriveSpec(ps.SquarePulse(T=1.0, N=0.0), t_end=5.0)
        rho = ps.evolve_state(spec, ps.GROUND, 0.0, 5.0)
        assert np.allclose(rho, ps.GROUND, atol=1e-12)


class TestJumpSuperop:
    def test_single_line_weight(self):
        spec = ps.DriveSpec(ps.SquarePulse(T=1.0, N=0.0))
        out = ps.devectorize(ps.jump_superop(spec) @ ps.vectorize(ps.EXCITED))
        assert np.allclose(out, 0.5 * ps.GROUND, atol=1e-15)

    def test_two_line_weight(self):
        spec = ps.DriveSpec(ps.SquarePulse(T=1.0, N=0.0), ps.TwoLine(a=0.3))
        out = ps.devectorize(ps.jump_superop(spec) @ ps.vectorize(ps.EXCITED))
        assert np.allclose(out, ps.GROUND, atol=1e-15)

    def test_ground_emits_nothing(self):
        for topo in (ps.SingleLine(), ps.TwoLine(a=0.5)):
            spec = ps.DriveSpec(ps.SquarePulse(T=1.0, N=0.0), topo)
            assert np.all(ps.jump_superop(spec) @ ps.vectorize(ps.GROUND) == 0)

    def test_single_is_half_of_two_line(self):
        single = ps.jump_superop(ps.DriveSpec(ps.SquarePulse(T=1.0, N=0.0)))
        two = ps.jump_superop(ps.DriveSpec(ps.SquarePulse(T=1.0, N=0.0), ps.TwoLine(a=0.7)))
        assert np.array_equal(2.0 * single, two)

    def test_shared_read_only_values(self):
        for topo, weight in ((ps.SingleLine(), 0.5), (ps.TwoLine(a=0.7), 1.0)):
            nj = ps.jump_superop(ps.DriveSpec(ps.SquarePulse(T=1.0, N=0.0), topo))
            assert np.array_equal(nj, weight * np.kron(ps.SIGMA_MINUS, ps.SIGMA_MINUS))
            assert not nj.flags.writeable
            assert nj is ps.jump_superop(ps.DriveSpec(ps.SquarePulse(T=2.0, N=3.0), topo))

    def test_double_application_annihilates(self):
        # sm sm = 0 makes repeated jumps without re-excitation impossible
        nj = ps.jump_superop(ps.DriveSpec(ps.SquarePulse(T=1.0, N=0.0)))
        rng = np.random.default_rng(3)
        for _ in range(5):
            v = ps.vectorize(random_density(rng))
            assert np.all(nj @ (nj @ v) == 0)

    def test_channel_weights_sum_to_total_rate(self):
        spec = ps.DriveSpec(ps.SquarePulse(T=1.0, N=0.0), ps.TwoLine(a=0.25))
        channels = ps.decay_channels(spec)
        assert sum(c.weight for c in channels) == pytest.approx(1.25)
        assert [c.monitored for c in channels] == [True, False]
