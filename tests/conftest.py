import sys
from typing import NamedTuple

import numpy as np
import pytest

import photonstat as ps
from photonstat import propagator

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def kernel_calls(monkeypatch):
    """``(diag, k, widths)`` of every call of the hierarchy kernel
    ``propagator._block_expm``, rebound in each package namespace that holds
    it: the call's diagonal blocks as a stack ``(slices, 4, 4)``, its cutoff,
    and the time step of each slice."""
    kernel = propagator._block_expm
    calls = []

    def recording(diag, feed, k, dt):
        stack = np.array(diag).reshape(-1, 4, 4)
        calls.append((stack, k, np.broadcast_to(dt, len(stack)).copy()))
        return kernel(diag, feed, k, dt)

    for name, module in list(sys.modules.items()):
        if name.startswith("photonstat") and getattr(module, "_block_expm", None) is kernel:
            monkeypatch.setattr(module, "_block_expm", recording)
    return calls


def random_square_spec(rng):
    """One draw from the randomized validation suite.

    Pulse widths log-uniform over [0.05, 5], photon numbers uniform over
    [0, 100]; half the draws are single-line (with a few detunings), half
    two-line with ratios from {0.01, 0.1, 0.5, 1}.
    """
    T = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
    N = float(rng.uniform(0.0, 100.0))
    if rng.random() < 0.5:
        delta = float(rng.choice([0.0, 0.0, 0.5, -0.5, 2.0, -2.0]))
        topology = ps.SingleLine(delta=delta)
    else:
        a = float(rng.choice([0.01, 0.1, 0.5, 1.0]))
        topology = ps.TwoLine(a=a)
    return ps.DriveSpec(ps.SquarePulse(T=T, N=N), topology)


def random_density(rng):
    """Random 2x2 density matrix (Hermitian, unit trace, PSD)."""
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = m @ m.conj().T
    return rho / rho.trace()


class TimeGrid(NamedTuple):
    """States and propagators of a run on a time grid.

    ``segments[j]`` maps the vectorized state at ``times[j]`` to the one at
    ``times[j+1]``; ``states[j]`` is the density matrix at ``times[j]``.
    """

    spec: ps.DriveSpec
    times: np.ndarray
    segments: tuple
    states: tuple


def time_grid(spec, step=None):
    """Propagate ``|g><g|`` across ``[0, t_end]`` on a breakpoint-aligned grid.

    Each interval between envelope breakpoints is split uniformly at
    ``step``, by default ``min(0.01, pulse end / 20)``, which resolves both
    the drive oscillation and the decay.
    """
    step = min(0.01, spec.pulse.end / 20.0) if step is None else step
    edges = spec.breakpoints()
    times = [np.array([0.0])]
    for lo, hi in zip(edges, edges[1:]):
        n = max(1, int(np.ceil((hi - lo) / step - 1e-12)))
        times.append(np.linspace(lo, hi, n + 1)[1:])
    times = np.concatenate(times)
    spans = list(zip(times, times[1:]))
    segments = tuple(ps.propagator_between(spec, t0, t1) for t0, t1 in spans)
    states = [ps.validate_density(ps.GROUND)]
    for t0, t1 in spans:
        states.append(ps.evolve_state(spec, states[-1], t0, t1))
    return TimeGrid(spec, times, segments, tuple(states))
