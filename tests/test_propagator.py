import gc
import hashlib
import math
import os
import struct
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest
from scipy.integrate import solve_ivp
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
    _dense,
    _magnus_steps,
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

    @pytest.mark.parametrize("t0, t1", [(np.nan, 0.1), (0.0, np.nan), (0.0, np.inf),
                                        (-np.inf, 0.1), (np.nan, np.nan)])
    def test_rejects_non_finite_times(self, t0, t1):
        spec = ps.DriveSpec(ps.SquarePulse(T=0.1, N=1.0))
        with pytest.raises(SpecError, match=rf"^times must be finite, got t0={t0}, t1={t1}$"):
            ps.propagator_between(spec, t0, t1)
        with pytest.raises(SpecError, match=rf"^times must be finite, got t0={t0}, t1={t1}$"):
            ps.evolve_state(spec, ps.GROUND, t0, t1)

    def test_identity_propagator_at_zero_duration(self):
        spec = ps.DriveSpec(ps.SquarePulse(T=0.1, N=5.0))
        assert np.array_equal(ps.propagator_between(spec, 0.3, 0.3), np.eye(4))


# the acceptance ramp: onset, flat top, tail-off, undriven tail
RAMP = ps.DriveSpec(ps.SampledPulse((0.0, 0.05, 0.15, 0.2), (0.0, 60.0, 60.0, 0.0)),
                    t_end=1.0)


def one_pass(spec, base, y, t0, t1, n):
    """``y`` advanced by one pass of ``n`` steps of ``_magnus_steps`` over [t0, t1]."""
    return propagator._chain(_magnus_steps(spec, base, len(y) // 4 - 1, [(t0, t1, n)]), y, n)


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

    def test_magnus_is_sixth_order_on_the_onset(self):
        # the onset [0, 0.05] has a square-root amplitude in t; in the graded
        # variable halving the step still divides the difference by ~64
        # a pass works in the real coordinates r of the propagator
        static, _, njump = real_parts(RAMP.topology)
        k = 3
        level0 = np.zeros(4 * (k + 1))
        level0[0] = 1.0
        for base, y in ((static, np.eye(4)), (static - njump, level0)):
            runs = [one_pass(RAMP, base, y, 0.0, 0.05, n) for n in (8, 16, 32)]
            coarse = np.max(np.abs(runs[1] - runs[0]))
            fine = np.max(np.abs(runs[2] - runs[1]))
            assert coarse / fine >= 48

    def test_small_nonzero_end_is_graded(self, monkeypatch):
        # [0.5, 1] falls from 30 to 2e-3: its amplitude has a near-infinite
        # slope at t = 1 unless the variable is graded toward that end
        spec = ps.DriveSpec(ps.SampledPulse((0.0, 0.5, 1.0), (1e-12, 30.0, 2e-3)),
                            ps.SingleLine(delta=2.0))
        steps = []

        def recording(spec, base, k, passes):
            steps.extend(passes)
            return _magnus_steps(spec, base, k, passes)

        monkeypatch.setattr(propagator, "_magnus_steps", recording)
        moments = ps.photon_statistics(spec)
        verify_dual([spec], [moments])
        tail_steps = [n for t0, t1, n in steps if (t0, t1) == (0.5, 1.0)]
        assert tail_steps and max(tail_steps) < 1000

    def test_magnus_exponent_keeps_hierarchy_form(self, monkeypatch):
        # one step is exp(Omega) of the three-node sixth-order exponent, written
        # out here on the dense hierarchy generators at the Gauss nodes of the
        # graded onset: Omega reaches the third subdiagonal and no further
        static, drive, njump = real_parts(RAMP.topology)
        k = 5
        nodes = 0.5 + np.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])
        amp, w = propagator._graded_drive(RAMP, 0.0, 0.05, nodes)
        y = np.random.default_rng(5).normal(size=(4 * (k + 1), 4))
        kernel, exponents = propagator._block_expm, []

        def recording(diag, feed, k, dt):
            bands = [diag[0]] + list(feed[0])
            exponents.append(dt * sum(np.kron(np.eye(k + 1, k=-j), band)
                                      for j, band in enumerate(bands)))
            return kernel(diag, feed, k, dt)

        def bracket(a, b):
            return a @ b - b @ a

        monkeypatch.setattr(propagator, "_block_expm", recording)
        for base in (static, static - njump):
            g1, g2, g3 = (block_hierarchy(w[m] * (base + amp[m] * drive), w[m] * njump, k)
                          for m in range(3))
            a1, a2, a3 = g2, np.sqrt(15.0) / 3.0 * (g3 - g1), 10.0 / 3.0 * (g3 - 2.0 * g2 + g1)
            c1 = bracket(a1, a2)
            c2 = -bracket(a1, 2.0 * a3 + c1) / 60.0
            omega = a1 + a3 / 12.0 + bracket(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
            for i in range(4, k + 1):
                assert not omega[4 * i:4 * i + 4, :4 * (i - 3)].any()
            got = one_pass(RAMP, base, y, 0.0, 0.05, 1)
            assert np.max(np.abs(got - expm(omega) @ y)) < 1e-12
            assert np.max(np.abs(exponents[-1] - omega)) < 1e-14

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 70])
    def test_pass_hands_the_kernel_one_slice_per_step(self, n, kernel_calls):
        static, _, _ = real_parts(RAMP.topology)
        one_pass(RAMP, static, np.eye(4), 0.0, 0.05, n)
        assert sum(len(stack) for stack, _, _ in kernel_calls) == n
        assert len(kernel_calls) == -(-n // propagator._STACK_STEPS)

    def test_first_checks_are_one_stack_of_kernel_calls(self, monkeypatch, kernel_calls):
        # both parts of the triangle pass their first check at k = 4, so the
        # advance forms both passes of each once and cuts them into full stacks
        spec = ps.DriveSpec(ps.SampledPulse((0.0, 0.3, 0.6), (0.0, 8.0, 0.0)))
        static, _, _ = real_parts(spec.topology)
        parts, tol = [(0.0, 0.3), (0.3, 0.6)], 1e-9
        first = [propagator._first_count(spec, static, a, b, tol) for a, b in parts]
        formed = []

        def recording(spec, base, k, passes):
            formed.append(list(passes))
            return _magnus_steps(spec, base, k, passes)

        monkeypatch.setattr(propagator, "_magnus_steps", recording)
        y = np.zeros(4 * 5)
        y[0] = 1.0
        advance(spec, y, 0.0, 0.6, tol)
        assert formed == [[(a, b, m) for (a, b), n in zip(parts, first) for m in (n, 2 * n)]]
        slices = sum(len(stack) for stack, _, _ in kernel_calls)
        assert slices == sum(3 * n for n in first)
        assert len(kernel_calls) == -(-slices // propagator._STACK_STEPS)

    def test_stacked_passes_equal_each_pass_alone(self):
        # one-step passes included: alone, numpy forms their exponent by a
        # vector product, which rounds differently from a matrix product; a
        # random base fills the basis, so that every rounding shows
        static, _, njump = real_parts(ps.TwoLine(a=0.3))
        spec = ps.DriveSpec(ps.SampledPulse((0.0, 0.1, 0.25, 0.4), (0.0, 40.0, 39.9, 0.0)),
                            ps.TwoLine(a=0.3))
        rng = np.random.default_rng(12)
        k = 4
        y = rng.normal(size=(4 * (k + 1), 2))
        passes = [(a, b, n) for a, b in [(0.0, 0.1), (0.1, 0.25), (0.25, 0.4)]
                  for n in (1, 2, 1, 17, 40)]
        for base in (static, static - njump, rng.normal(size=(4, 4))):
            steps = _magnus_steps(spec, base, k, passes)
            for t0, t1, n in passes:
                assert np.array_equal(propagator._chain(steps, y, n),
                                      one_pass(spec, base, y, t0, t1, n))
            assert next(steps, None) is None

    def test_graded_tail_keeps_its_pass_schedule(self, monkeypatch):
        # the tail [0.5, 1] fails its first two checks; stacking the first
        # check of every part leaves the refinements as they were
        spec = ps.DriveSpec(ps.SampledPulse((0.0, 0.5, 1.0), (1e-12, 30.0, 2e-3)),
                            ps.SingleLine(delta=2.0))
        steps = []

        def recording(spec, base, k, passes):
            steps.extend(passes)
            return _magnus_steps(spec, base, k, passes)

        monkeypatch.setattr(propagator, "_magnus_steps", recording)
        ps.photon_statistics(spec, method="jump-counting", k=4)
        assert [n for t0, t1, n in steps if (t0, t1) == (0.5, 1.0)] == [17, 34, 68, 136]

    @pytest.mark.parametrize("method, schedule, sha256", [
        ("moment-inversion", [1, 2, 1, 2, 12, 24, 48, 9, 18, 36, 72, 144],
         "abb0d2c6d93c98bd1c5bf1fbec8f8c4ae90c568a1e7a88672f7907c20106127f"),
        ("jump-counting", [1, 2, 1, 2, 11, 22, 44, 9, 18, 36, 72, 144],
         "bd815b3c10830c606b0b5cc76d867961b54d574a331f36d819f879748d2fa084"),
    ])
    def test_retry_past_a_doubling_keeps_its_passes(self, monkeypatch, method, schedule, sha256):
        # one-step first passes fail their checks by far more than 2^6, so a
        # retry jumps past doubling the step count (1 -> 12 or 11 steps)
        spec = ps.DriveSpec(ps.SampledPulse((0.0, 0.5, 1.0), (1e-12, 30.0, 2e-3)),
                            ps.SingleLine(delta=2.0))
        steps = []

        def recording(spec, base, k, passes):
            steps.extend(passes)
            return _magnus_steps(spec, base, k, passes)

        monkeypatch.setattr(propagator, "_FIRST_STEPS", 0.01)
        monkeypatch.setattr(propagator, "_magnus_steps", recording)
        stats = ps.photon_statistics(spec, method=method, k=4)
        assert [n for _, _, n in steps] == schedule
        onset = [n for t0, t1, n in steps if (t0, t1) == (0.0, 0.5)]
        assert onset[2] != 2 * onset[1]
        assert hashlib.sha256(stats.probabilities.tobytes()).hexdigest() == sha256

    def test_negative_part_rejected_before_any_work(self, kernel_calls):
        # the second part goes negative: no part of the envelope is integrated
        spec = ps.DriveSpec(ps.SampledPulse((0.0, 0.5, 1.0), (0.0, 5.0, -3.0)))
        message = r"^drive flux must be non-negative, got N_in = -3\.0$"
        for method in ("moment-inversion", "jump-counting"):
            with pytest.raises(SpecError, match=message):
                ps.photon_statistics(spec, method=method)
        with pytest.raises(SpecError, match=message):
            ps.propagator_between(spec, 0.0, 1.0)
        assert kernel_calls == []

    @pytest.mark.parametrize("spec", [
        ps.DriveSpec(ps.SampledPulse((0.0, 0.3, 0.6), (0.0, 8.0, 0.0))),
        ps.DriveSpec(ps.SampledPulse((0.0, 0.1, 0.3, 0.5), (0.0, 20.0, 10.0, 0.0)),
                     ps.TwoLine(a=0.5)),
        ps.DriveSpec(ps.SampledPulse((0.0, 0.1, 0.2, 0.4, 0.7), (2.0, 15.0, 30.0, 5.0, 0.0)),
                     ps.SingleLine(delta=1.0)),
    ])
    def test_moment_route_matches_dense_ode_solution(self, spec):
        # the moment hierarchy from |g><g| by DOP853 on the dense column-stacked
        # generator, knot to knot (every envelope ends at zero flux, so the
        # generator is continuous on each closed part), then
        # inclusion-exclusion by hand
        k = 6
        njump = ps.jump_superop(spec)
        y = np.zeros(4 * (k + 1), dtype=complex)
        y[:4] = ps.vectorize(ps.GROUND)
        edges = spec.breakpoints()
        for t0, t1 in zip(edges, edges[1:]):
            def rhs(t, y):
                return block_hierarchy(ps.build_liouvillian(spec, t), njump, k) @ y

            y = solve_ivp(rhs, (t0, t1), y, method="DOP853", rtol=1e-12, atol=1e-14).y[:, -1]
        moments = np.array([1.0] + [y[4 * m] + y[4 * m + 3] for m in range(1, k + 1)]).real
        reference = [sum((-1) ** (m - n) * math.comb(m, n) * moments[m] for m in range(n, k + 1))
                     for n in range(k + 1)]
        got = ps.photon_statistics(spec, k=k).probabilities
        assert np.max(np.abs(got - reference)) < 1e-8

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


SAMPLED_PINS = {
    "ramp": RAMP,
    "triangle": ps.DriveSpec(ps.SampledPulse((0.0, 0.3, 0.6), (0.0, 8.0, 0.0))),
    # three interior knots
    "two_line": ps.DriveSpec(ps.SampledPulse((0.0, 0.1, 0.25, 0.4, 0.6),
                                             (0.0, 20.0, 10.0, 25.0, 0.0)), ps.TwoLine(a=0.5)),
    "graded_tail": ps.DriveSpec(ps.SampledPulse((0.0, 0.5, 1.0), (1e-12, 30.0, 2e-3)),
                                ps.SingleLine(delta=2.0)),
    "flat_top": ps.DriveSpec(ps.SampledPulse((0.0, 0.1, 0.2, 0.4, 0.5),
                                             (0.0, 20.0, 20.0, 10.0, 0.0))),
}
# SHA-256 of the bytes of moments, probabilities, cutoff_k and tail_bound
SAMPLED_SHA256 = {
    ("ramp", "moment-inversion"):
        "593d7bb80fb0f909beb395e3d2602d6d6754880d84e6ce3cda4b8ea684f64a86",
    ("ramp", "jump-counting"):
        "8ba37105d6c0a31d427072a873cd64972ba1415c4d1d5cc7009bc0ed695a4fdb",
    ("triangle", "moment-inversion"):
        "90d83059fd7b798d8df56e93e23e7a18be3aacd6a9de2fc0b258be3c7df5bb5a",
    ("triangle", "jump-counting"):
        "a50401509c944b176ca02110e936a4adf7e5d1e2f08f8852177de846f8542faf",
    ("two_line", "moment-inversion"):
        "ef2a29cb951ed27645b636cb17bc9bd8caefc52d2f798eaa697741c74ec2a8da",
    ("two_line", "jump-counting"):
        "0305f0ba2f1dec585735784696621d1e2fd5031de07216ed5d8e1a7cf11b90db",
    ("graded_tail", "moment-inversion"):
        "c8156dd2445091c6530beb693d349cc653d48a6d655dff920d88af42ed46e419",
    ("graded_tail", "jump-counting"):
        "c35b1882204cee3bd1154d9fb0d9034fa015dd3d4d7286a79f2157607ffe0a2b",
    ("flat_top", "moment-inversion"):
        "6f009bfde2f9f054702b6f9adca71710095498ad726ab96e5e53bfe44889868d",
    ("flat_top", "jump-counting"):
        "b2ba028559a144451e6da39cac6c75757f58d2e364c8375125a89a79d9c9de6e",
}
RAMP_PROPAGATOR_SHA256 = "9ba89ae210e6e5e67d7693f43e748bb086c0b47a9aac78afbc1f6d45ea9ee6ba"


class TestSampledPins:
    """Every output bit of sampled envelopes, on both routes, pinned."""

    @pytest.mark.parametrize("name, method", list(SAMPLED_SHA256))
    def test_statistics_are_pinned_bit_for_bit(self, name, method):
        stats = ps.photon_statistics(SAMPLED_PINS[name], method=method)
        data = (stats.moments.tobytes() + stats.probabilities.tobytes()
                + struct.pack("<qd", stats.cutoff_k, stats.tail_bound))
        assert hashlib.sha256(data).hexdigest() == SAMPLED_SHA256[name, method]

    def test_propagator_is_pinned_bit_for_bit(self):
        prop = ps.propagator_between(RAMP, 0.0, 1.0)
        assert hashlib.sha256(prop.tobytes()).hexdigest() == RAMP_PROPAGATOR_SHA256


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

    def test_parts_are_the_conversion_of_each_operator_bit_for_bit(self):
        # real_parts combines parts converted once; the result must be the
        # conversion of the topology's own operators, sign bits included
        rng = np.random.default_rng(39)
        scales = 10 ** rng.uniform(-6, 4, 300)
        deltas = [0.0, -0.0, 5e-324, -1e300, *(rng.normal(size=300) * scales)]
        for delta in deltas:
            for topology in (ps.SingleLine(delta=delta),
                             ps.TwoLine(a=float(rng.uniform(1e-9, 1.0)), delta=delta)):
                static, drive = ps.liouville.liouvillian_parts(topology)
                jump = ps.jump_superop(ps.DriveSpec(ps.SquarePulse(T=1.0, N=1.0), topology))
                for real, op in zip(real_parts.__wrapped__(topology), (static, drive, jump)):
                    assert real.tobytes() == _real(op).tobytes() and not real.flags.writeable

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
        got = _dense(_block_expm(diag, feed, k, dt))
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

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_feed_stack_of_subdiagonal_bands(self, k):
        rng = np.random.default_rng(10 + k)
        diag, feed = norm_spread_stack(ps.TwoLine(a=0.3), 12, rng)
        bands = np.zeros((12, 3, 4, 4))
        bands[:, 0] = feed
        # zero higher bands: bit for bit the single-band call
        assert np.array_equal(_block_expm(diag, bands, k, 1.0), _block_expm(diag, feed, k, 1.0))
        scale = np.abs(feed).max((1, 2))[:, None, None, None]
        bands[:, 1:] = rng.normal(size=(12, 2, 4, 4)) * scale
        got = _block_expm(diag, bands, k, 1.0)
        # bands beyond level k enter only the norm, which reads their magnitudes
        flipped = bands.copy()
        flipped[:, k:] *= -1.0
        assert np.array_equal(_block_expm(diag, flipped, k, 1.0), got)
        for d, b, g in zip(diag, bands, _dense(got)):
            ref = expm(sum(np.kron(np.eye(k + 1, k=-j), band) for j, band in enumerate([d, *b])))
            assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 16])
    def test_dense_matrix_is_the_block_toeplitz_of_the_column(self, k):
        diag, feed = norm_spread_stack(ps.TwoLine(a=0.3), 6, np.random.default_rng(k))
        column = _block_expm(diag, feed, k, 1.0)
        assert column.shape == (6, k + 1, 4, 4)
        dense = _dense(column)
        assert dense.shape == (6, 4 * (k + 1), 4 * (k + 1))
        for i in range(k + 1):
            for j in range(k + 1):
                block = dense[:, 4 * i:4 * i + 4, 4 * j:4 * j + 4]
                want = column[:, i - j] if j <= i else np.zeros_like(block)
                assert np.array_equal(block, want)
        assert np.array_equal(_dense(column[2]), dense[2])



class TestKernelPins:
    """The kernel's output bits across its capacity table: every degree index
    and squarings 0-9, as a 24-slice stack with per-slice steps and as one-slice
    calls with a scalar step, which equal the stack's slices bit for bit."""

    PINS = {
        (0, 1): "3c005108d37b28b51618e25d3a05198a28bb4d888ed2fa7d5e1f17b447b609de",
        (0, 3): "6d06d97e70b28fbdd7e8fc798b77cfd63512f3519fd6d238868d9d448c330c73",
        (1, 1): "5638a4af06348845f7eb73a7bf74b0adebfb1fa25d296677aa4b73c8c861c129",
        (1, 3): "1bbe33e39b8cd6c5a7b1463c66416325b751bd5adb1dd38e53fbb4761bee48a4",
        (4, 1): "b2c01c8b4bd4b6392a874419c45f100c8c785846df4e107331c2446b6be4be8d",
        (4, 3): "9b1e4d3bf6c76b6aa57d5d8b5274ab671d7ca8835c1b294581a5be04a94946a7",
        (16, 1): "f9704e7902f75c60a53d1cf9ba09cab7b2a0d927936978a963d40664700df553",
        (16, 3): "5bd812208bc4e4e62173a859244252499e1fb08163a904463ba4604b617af83f",
    }

    @staticmethod
    def inputs(k, bands):
        rng = np.random.default_rng(100 * k + bands)
        dt = rng.uniform(0.5, 2.0, 24)
        diag, feed = norm_spread_stack(ps.TwoLine(a=0.3), 24, rng, dt)
        if bands > 1:
            spread = (np.abs(diag) + np.abs(feed)).sum(-2).max(-1)
            scale = np.abs(feed).max((1, 2))[:, None, None, None]
            feed = np.concatenate([feed[:, None], rng.normal(size=(24, bands - 1, 4, 4)) * scale], 1)
            # rescaled, so the 1-norms over all bands keep the spread
            scale = (spread / (np.abs(diag) + np.abs(feed).sum(1)).sum(-2).max(-1))[:, None, None]
            diag, feed = diag * scale, feed * scale[:, None]
        return diag, feed, dt

    @pytest.mark.parametrize("k", [0, 1, 4, 16])
    @pytest.mark.parametrize("bands", [1, 3])
    def test_outputs_are_pinned_bit_for_bit(self, k, bands):
        diag, feed, dt = self.inputs(k, bands)
        norms = (np.abs(diag) + np.abs(feed.reshape(24, -1, 4, 4)).sum(1)).sum(-2).max(-1) * dt
        degree, squarings = _CHOICE[:, np.searchsorted(_CAPACITY, norms)]
        assert set(degree) == set(range(5)) and set(squarings) == set(range(10))
        stack = _block_expm(diag, feed, k, dt)
        singles = [_block_expm(d, f, k, float(t)) for d, f, t in zip(diag, feed, dt)]
        for got in (stack, np.array(singles)):
            assert hashlib.sha256(got.tobytes()).hexdigest() == self.PINS[k, bands]

def in_fresh_thread(fn):
    """``fn()`` run in a new thread, whose kernel work buffer starts empty."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    return result[0]


class TestWorkBuffer:
    """The kernel's work arrays live in one buffer per thread."""

    @staticmethod
    def stacks(rng, shapes):
        return [norm_spread_stack(topology, n, rng) + (k,) for topology, n, k in shapes]

    @pytest.mark.parametrize("k", [0, 1, 6])
    def test_returned_column_outlives_later_calls(self, k):
        rng = np.random.default_rng(20 + k)
        diag, feed = norm_spread_stack(ps.TwoLine(a=0.3), 8, rng)
        largest, *others = self.stacks(rng, [(ps.SingleLine(), 24, 16), (ps.SingleLine(), 1, 1),
                                             (ps.TwoLine(a=0.01), 8, k), (ps.SingleLine(), 3, 0)])

        def run():
            # sized first, so that the later calls reuse the buffer
            _dense(_block_expm(*largest, 1.0))
            column = _block_expm(diag, feed, k, 1.0)
            dense = _dense(column)
            kept = column.copy(), dense.copy()
            for stack in [largest, *others]:
                _dense(_block_expm(*stack, 1.0))
            return (column, dense), kept

        (column, dense), kept = in_fresh_thread(run)
        assert np.array_equal(column, kept[0]) and np.array_equal(dense, kept[1])

    def test_stack_does_not_depend_on_earlier_calls(self):
        rng = np.random.default_rng(23)
        diag, feed = norm_spread_stack(ps.TwoLine(a=0.3), 24, rng)
        # smaller requests, so the repeat runs on what they left in the buffer
        others = self.stacks(rng, [(ps.SingleLine(), 5, 16), (ps.SingleLine(), 1, 3),
                                   (ps.TwoLine(a=0.01), 12, 9), (ps.SingleLine(), 3, 0)])

        def run():
            first = _block_expm(diag, feed, 12, 1.0)
            first_dense = _dense(first)
            size = len(propagator._WORK.buffer)
            for stack in others:
                _dense(_block_expm(*stack, 1.0))
            assert len(propagator._WORK.buffer) == size
            later_dense = _dense(first)
            again = _block_expm(diag, feed, 12, 1.0)
            return first, again, [first_dense, later_dense, _dense(again)]

        first, again, dense = in_fresh_thread(run)
        assert np.array_equal(first, again)
        assert all(np.array_equal(d, dense[0]) for d in dense)

    def test_cached_layouts_follow_the_buffer(self):
        rng = np.random.default_rng(25)
        small, large = self.stacks(rng, [(ps.TwoLine(a=0.3), 6, 4), (ps.SingleLine(), 24, 16)])

        def run():
            first = _block_expm(*small, 1.0)
            old = weakref.ref(propagator._WORK.buffer)
            _block_expm(*large, 1.0)
            assert propagator._WORK.buffer is not old()
            gc.collect()
            # no layout cached for the old buffer keeps it alive
            released = old() is None
            return first, _block_expm(*small, 1.0), released

        first, again, released = in_fresh_thread(run)
        assert np.array_equal(first, again) and released

    def test_concurrent_threads_get_their_serial_results(self):
        rng = np.random.default_rng(24)
        jobs = self.stacks(rng, [(ps.SingleLine(), 24, 16), (ps.TwoLine(a=0.3), 7, 5),
                                 (ps.SingleLine(delta=0.7), 31, 8), (ps.TwoLine(a=0.01), 2, 1)])
        serial = [_dense(_block_expm(*job, 1.0)) for job in jobs]
        barrier = threading.Barrier(len(jobs))
        results = [[] for _ in jobs]

        def work(i):
            barrier.wait(timeout=60)
            for _ in range(20):
                results[i].append(_dense(_block_expm(*jobs[i], 1.0)))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for want, got in zip(serial, results):
            assert len(got) == 20
            assert all(np.array_equal(g, want) for g in got)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="ru_minflt counts minor page faults on Linux")
    def test_repeated_stacks_fault_in_no_pages(self):
        # a fresh interpreter: large frees earlier in a process raise the
        # allocator's thresholds, after which fresh arrays stop faulting too
        pytest.importorskip("resource")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        run = subprocess.run([sys.executable, "-c", FAULT_SCRIPT], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert int(run.stdout) < 100


# Minor page faults of 50 repeated 24-slice kernel calls at k = 8, after one
# call that sizes the work buffer.
FAULT_SCRIPT = """
import resource
import numpy as np
import photonstat as ps
from photonstat.propagator import _block_expm, real_parts

static, drive, jump = real_parts(ps.SingleLine())
scale = np.geomspace(1e-3, 100.0, 24)[:, None, None]
diag, feed = scale * (static + 20.0 * drive), scale * jump
_block_expm(diag, feed, 8, 1.0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    _block_expm(diag, feed, 8, 1.0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
