"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v``; the per-criterion lines are
echoed in the terminal summary. The regression constants in criterion 3 were
frozen after certification against the Monte Carlo oracle with 10^6
trajectories (seed 20260808); all per-bin deviations were below 2 binomial
standard errors at that size.
"""

import time

import numpy as np

import photonstat as ps
from conftest import ACCEPTANCE_LINES, random_square_spec, time_grid
from photonstat.cli import main

PI_SQ = np.pi**2


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} {name}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def fig3_slice():
    return ps.sweep_single_line(T_grid=[0.1], N_grid=ps.DEFAULT_N_GRID)


def test_criterion_1_pi_pulse_optimum():
    t0 = time.time()
    result = fig3_slice()
    slice_seconds = time.time() - t0
    best = ps.maximize_p1(ps.SingleLine(), T=0.1)
    n_pi = PI_SQ / 0.2
    ok = (abs(best.stats.p1 - 0.5) <= 0.03
          and abs(best.n_star - n_pi) <= 0.30 * n_pi
          and slice_seconds < 10.0
          and len(result.records) == 120)
    report(1, "single-line pi-pulse optimum", ok,
           f"max P1 = {best.stats.p1:.5f} (target 0.5 +- 0.03) at "
           f"N* = {best.n_star:.2f} (pi-pulse {n_pi:.2f} +- 30%), "
           f"Fig. 3 slice in {slice_seconds:.2f}s (< 10 s)")


def test_criterion_2_multiphoton_suppression():
    result = fig3_slice()
    p2 = max(r.stats.probabilities[2] for r in result.records)
    p3 = max(r.stats.probabilities[3] for r in result.records)
    ok = p2 < 0.02 and p3 < 0.005
    report(2, "multi-photon suppression at T=0.1", ok,
           f"max P2 = {p2:.5f} (< 0.02), max P3 = {p3:.6f} (< 0.005) over N in [0, 120]")


def test_criterion_3_two_line_near_unity():
    # regression values certified by the trajectory oracle (1e6 runs, |z| < 2)
    frozen = {
        (0.01, 0.1): (2480.496677, 0.97798567, 0.90),
        (0.005, 0.05): (9895.795554, 0.98886808, 0.95),
    }
    details = []
    ok = True
    for (a, T), (n_ref, p1_ref, floor) in frozen.items():
        best = ps.maximize_p1(ps.TwoLine(a=a), T=T)
        ok &= best.stats.p1 >= floor
        ok &= abs(best.stats.p1 - p1_ref) < 5e-4
        ok &= abs(best.n_star - n_ref) < 1e-2 * n_ref
        details.append(f"a={a}, T={T}: P1 = {best.stats.p1:.6f} (>= {floor}, "
                       f"frozen {p1_ref:.6f}) at N* = {best.n_star:.1f}")
    report(3, "two-line near-unity source", ok, "; ".join(details))


def test_criterion_4_constant_area_ridges():
    t_values = [float(t) for t in ps.DEFAULT_T_GRID if t <= 0.5]
    worst = {0: 0, 1: 0}
    cells = []
    for T in t_values:
        n_grid = np.linspace(0.0, 1.3 * 9 * PI_SQ / (2 * T), 121)
        cells.append(n_grid[1] - n_grid[0])
        p1 = np.array([
            ps.photon_statistics(ps.DriveSpec(ps.SquarePulse(T=T, N=float(n))), k=4).p1
            for n in n_grid
        ])
        peaks = [i for i in range(1, len(p1) - 1)
                 if p1[i] >= p1[i - 1] and p1[i] >= p1[i + 1] and p1[i] > 1e-6]
        for j in (0, 1):
            n_theory = (2 * j + 1) ** 2 * PI_SQ / (2 * T)
            i_theory = int(np.argmin(np.abs(n_grid - n_theory)))
            assert peaks, f"no P1 ridge found at T={T}"
            i_found = min(peaks, key=lambda i: abs(i - i_theory))
            worst[j] = max(worst[j], abs(i_found - i_theory))
    ok = worst[0] <= 1 and worst[1] <= 1
    report(4, "P1 ridges on constant pulse area", ok,
           f"sqrt(2NT) = (2j+1)pi ridge offsets <= {max(worst.values())} grid cell(s) "
           f"for j=0,1 over {len(t_values)} widths T <= 0.5 "
           f"(cell widths {min(cells):.2f}..{max(cells):.2f})")


def test_criterion_5_tri_method_consistency():
    t0 = time.time()
    rng = np.random.default_rng(918273645)
    worst_gap = 0.0
    for _ in range(200):
        spec = random_square_spec(rng)
        sm = ps.photon_statistics(spec)
        sc = ps.photon_statistics(spec, method="jump-counting", k=sm.cutoff_k)
        worst_gap = max(worst_gap, float(np.max(np.abs(sm.probabilities
                                                       - sc.probabilities))))

    rng_t = np.random.default_rng(314159)
    n_traj = 100000
    bins = violations = 0
    for i in range(20):
        spec = random_square_spec(rng_t)
        ref = ps.photon_statistics(spec).probabilities
        res = ps.sample_trajectories(spec, n_traj, seed=1000 + i)
        p_hat = res.counts / n_traj
        # bins with at least one expected count; below that the 3-sigma
        # binomial band is ill-defined
        top = max(n for n in range(len(ref)) if ref[n] * n_traj >= 1.0 or n == 0)
        for n in range(top + 1):
            p_ref = float(ref[n])
            p_obs = float(p_hat[n]) if n < len(p_hat) else 0.0
            se = np.sqrt(max(p_ref * (1 - p_ref), 1e-12) / n_traj)
            bins += 1
            if abs(p_obs - p_ref) > 3 * se:
                violations += 1
    elapsed = time.time() - t0
    allowed = max(1, int(0.01 * bins))
    ok = worst_gap <= 1e-6 and violations <= allowed and elapsed < 300.0
    report(5, "tri-method consistency", ok,
           f"dual-method worst gap {worst_gap:.2e} (<= 1e-6) on 200 specs; "
           f"{violations}/{bins} bins beyond 3 sigma (allowed {allowed}) on 20 specs "
           f"x 1e5 trajectories; total {elapsed:.0f}s (< 300 s)")


def test_criterion_6_exact_anchors():
    excited = ps.DriveSpec(ps.SquarePulse(T=1.0, N=0.0), t_end=20.0)
    stats = ps.photon_statistics(excited, rho0=ps.EXCITED)
    anchor_half = (abs(stats.probabilities[0] - 0.5) <= 1e-6
                   and abs(stats.probabilities[1] - 0.5) <= 1e-6
                   and stats.moments[1] <= 1e-9)

    vacuum = ps.photon_statistics(ps.DriveSpec(ps.SquarePulse(T=0.1, N=0.0)))
    anchor_vacuum = vacuum.probabilities[0] == 1.0 and np.all(vacuum.probabilities[1:] == 0.0)

    rng = np.random.default_rng(777)
    worst_g2 = 0.0
    for _ in range(100):
        spec = random_square_spec(rng)
        t = float(rng.uniform(0.0, spec.t_end))
        worst_g2 = max(worst_g2, abs(ps.correlator(spec, [t, t])))
    anchor_g2 = worst_g2 <= 1e-12

    ok = anchor_half and anchor_vacuum and anchor_g2
    report(6, "exact analytic anchors", ok,
           f"excited start P0 = {stats.probabilities[0]:.8f}, "
           f"P1 = {stats.probabilities[1]:.8f} (0.5 +- 1e-6), "
           f"N2 = {stats.moments[1]:.1e} (<= 1e-9); vacuum P0 = "
           f"{vacuum.probabilities[0]}; max |G2(t,t)| = {worst_g2:.1e} over 100 draws")


def test_criterion_7_numerical_hygiene(tmp_path):
    # trace preservation along a strongly driven window
    spec = ps.DriveSpec(ps.SquarePulse(T=0.2, N=100.0), ps.TwoLine(a=0.4))
    grid = time_grid(spec)
    rng = np.random.default_rng(99)
    worst_trace = 0.0
    for seg in grid.segments[::10]:
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = m @ m.conj().T
        rho /= rho.trace()
        out = ps.devectorize(seg @ ps.vectorize(rho))
        worst_trace = max(worst_trace, abs((out.trace() - rho.trace()).real))
    trace_ok = worst_trace <= 1e-9

    # normalization of every distribution in a small random batch
    rng_s = np.random.default_rng(1212)
    norm_gap = max(abs(ps.photon_statistics(random_square_spec(rng_s)).probabilities.sum() - 1.0)
                   for _ in range(25))
    norm_ok = norm_gap <= 1e-6

    # window doubling
    window_gap = 0.0
    for topo in (ps.SingleLine(), ps.TwoLine(a=0.01)):
        base = ps.DriveSpec(ps.SquarePulse(T=0.1, N=49.35), topo)
        wide = ps.DriveSpec(ps.SquarePulse(T=0.1, N=49.35), topo, t_end=2 * base.t_end)
        pa = ps.photon_statistics(base).probabilities
        pb = ps.photon_statistics(wide).probabilities
        upto = min(len(pa), len(pb))
        window_gap = max(window_gap, float(np.max(np.abs(pa[:upto] - pb[:upto]))))
    window_ok = window_gap <= 1e-5

    # step halving for a sampled envelope
    pulse = ps.SampledPulse((0.0, 0.05, 0.15, 0.2), (0.0, 60.0, 60.0, 0.0))
    ramp = ps.DriveSpec(pulse, t_end=1.0)
    coarse = time_grid(ramp, step=0.02)
    fine = time_grid(ramp, step=0.01)
    halving_gap = 0.0
    for j, t in enumerate(coarse.times):
        i = int(np.argmin(np.abs(fine.times - t)))
        if abs(fine.times[i] - t) < 1e-12:
            halving_gap = max(halving_gap, float(np.max(np.abs(coarse.states[j]
                                                               - fine.states[i]))))
    halving_ok = halving_gap <= 1e-8

    # byte-identical reruns, fixed seed, any thread count
    args = ["traj", "--T", "0.1", "--N", "30", "--n-traj", "2000", "--seed", "77"]
    paths = [tmp_path / f"r{i}.csv" for i in range(3)]
    assert main(args + ["--out", str(paths[0]), "--threads", "1"]) == 0
    assert main(args + ["--out", str(paths[1]), "--threads", "1"]) == 0
    assert main(args + ["--out", str(paths[2]), "--threads", "3"]) == 0
    bytes_ok = (paths[0].read_bytes() == paths[1].read_bytes()
                == paths[2].read_bytes())

    ok = trace_ok and norm_ok and window_ok and halving_ok and bytes_ok
    report(7, "numerical hygiene", ok,
           f"trace drift {worst_trace:.1e} (<= 1e-9); normalization gap "
           f"{norm_gap:.1e} (<= 1e-6); window doubling {window_gap:.1e} (<= 1e-5); "
           f"step halving {halving_gap:.1e} (<= 1e-8); reruns byte-identical "
           f"across thread counts: {bytes_ok}")
