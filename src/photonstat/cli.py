"""Command-line interface: single runs, parameter sweeps, and trajectory
validation, emitting deterministic CSV or JSON tables.

Exit codes: 0 success, 2 invalid configuration, 3 numerical-tolerance
failure. Output formatting is fixed (12 significant digits, LF line
endings, header row always present) so reruns with the same seed and any
worker count produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .counting import MAX_CUTOFF, photon_statistics, verify_dual
from .errors import ConfigError, NumericalError
from .liouville import (
    EXCITED,
    GROUND,
    DriveSpec,
    SampledPulse,
    SingleLine,
    SquarePulse,
    TwoLine,
)
from .sweeps import (
    DEFAULT_N_GRID,
    DEFAULT_T_GRID,
    _run_points,
    sweep_single_line,
    sweep_two_line,
    sweep_two_line_slices,
)
from .trajectories import sample_trajectory_range

__all__ = ["RunConfig", "main"]


@dataclass(frozen=True)
class RunConfig:
    """Flat, JSON-serializable description of one CLI invocation."""

    topology: str = "single"
    pulse: str = "square"
    T: float = 0.1
    N: float = 0.0
    delta: float = 0.0
    a: float | None = None
    samples: list | None = None
    window: float | None = None
    initial: str = "ground"
    method: str = "all"
    k: int | None = None
    n_traj: int = 100000
    seed: int = 1
    out: str | None = None
    format: str = "csv"
    threads: int = 1
    compare: bool = False
    preset: str | None = None
    t_grid: list | None = None
    n_grid: list | None = None
    a_grid: list | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        for key in data:
            if key not in known:
                raise ConfigError(f"unknown config key: {key!r}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return asdict(self)

    def validate(self) -> None:
        def expect(name, value, allowed):
            if value not in allowed:
                raise ConfigError(f"{name} must be one of {sorted(allowed)}, got {value!r}")

        expect("topology", self.topology, {"single", "two"})
        expect("pulse", self.pulse, {"square", "sampled"})
        expect("initial", self.initial, {"ground", "excited"})
        expect("method", self.method, {"moments", "counting", "trajectories", "all"})
        expect("format", self.format, {"csv", "json"})
        if self.topology == "two" and self.a is None:
            raise ConfigError("coupling ratio a is required for the two-line topology")
        if self.k is not None and self.k < 1:
            raise ConfigError(f"cutoff k must be >= 1, got {self.k}")
        if self.n_traj < 1:
            raise ConfigError(f"n_traj must be >= 1, got {self.n_traj}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")

    def drive_spec(self) -> DriveSpec:
        if self.pulse == "sampled":
            if not self.samples:
                raise ConfigError("sampled pulse requires a 'samples' list of [t, flux] pairs")
            times = [s[0] for s in self.samples]
            values = [s[1] for s in self.samples]
            pulse = SampledPulse(tuple(times), tuple(values))
        else:
            pulse = SquarePulse(T=self.T, N=self.N)
        if self.topology == "two":
            topo = TwoLine(a=self.a, delta=self.delta)
        else:
            topo = SingleLine(delta=self.delta)
        return DriveSpec(pulse, topo, t_end=self.window)

    def initial_density(self):
        return EXCITED if self.initial == "excited" else GROUND

    def initial_amplitudes(self):
        return (0.0, 1.0) if self.initial == "excited" else (1.0, 0.0)


# ---------------------------------------------------------------------------
# Output formatting

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def _emit(config: RunConfig, header: list[str], rows: list[list]) -> None:
    if config.format == "json":
        payload = {
            "config": config.to_dict(),
            "rows": [dict(zip(header, row)) for row in rows],
        }
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    else:
        lines = [",".join(header)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if config.out is None:
        sys.stdout.write(text)
    else:
        with open(config.out, "w", newline="") as fh:
            fh.write(text)


def _entry(array, n, scale=1.0):
    return float(array[n]) * scale if n < len(array) else None


# ---------------------------------------------------------------------------
# Commands

def _run_trajectories(config: RunConfig, spec: DriveSpec) -> np.ndarray:
    """Histogram of monitored counts, identical for any thread count."""
    psi0 = config.initial_amplitudes()
    n = config.n_traj
    per = math.ceil(n / config.threads)
    ranges = [(spec, config.seed, i, min(i + per, n), psi0) for i in range(0, n, per)]
    pieces = _run_points(sample_trajectory_range, ranges, config.threads)
    width = max(len(h) for h, _, _ in pieces)
    hist = np.zeros(width, dtype=np.int64)
    for h, _, _ in pieces:
        hist[:len(h)] += h
    return hist


def cmd_simulate(config: RunConfig) -> int:
    spec = config.drive_spec()
    rho0 = config.initial_density()
    want = {config.method} if config.method != "all" else {"moments", "counting", "trajectories"}

    stats_m = stats_c = hist = None
    if "moments" in want:
        stats_m = photon_statistics(spec, "moment-inversion", k=config.k, rho0=rho0)
    if "counting" in want:
        stats_c = (verify_dual(spec, stats_m, rho0) if stats_m is not None
                   else photon_statistics(spec, "jump-counting", k=config.k, rho0=rho0))
    if "trajectories" in want:
        hist = _run_trajectories(config, spec)

    header = ["n"]
    if stats_m is not None:
        header += ["binomial_moment", "p_moment_inversion"]
    if stats_c is not None:
        header += ["p_jump_counting"]
    if hist is not None:
        header += ["p_trajectory", "p_trajectory_stderr"]
    header += ["tail_bound"]

    n_rows = max(len(s.probabilities) for s in (stats_m, stats_c) if s is not None) \
        if (stats_m or stats_c) else 0
    if hist is not None:
        n_rows = max(n_rows, len(hist))
    tail = (stats_m or stats_c).tail_bound if (stats_m or stats_c) else None

    rows = []
    for n in range(n_rows):
        row: list = [n]
        if stats_m is not None:
            moment = 1.0 if n == 0 else _entry(stats_m.moments, n - 1)
            row += [moment, _entry(stats_m.probabilities, n)]
        if stats_c is not None:
            row += [_entry(stats_c.probabilities, n)]
        if hist is not None:
            p_hat = _entry(hist, n, 1.0 / config.n_traj) or 0.0
            row += [p_hat, math.sqrt(max(p_hat * (1 - p_hat), 0.0) / config.n_traj)]
        row += [tail]
        rows.append(row)

    _emit(config, header, rows)
    return 0


_SWEEP_HEADER = ["T", "N", "a", "P0", "P1", "P2", "P3", "N1", "N2", "tail_bound"]


def _sweep_rows(result) -> list[list]:
    rows = []
    for rec in result.records:
        p = rec.stats.probabilities
        m = rec.stats.moments
        rows.append([
            rec.T, rec.N, rec.a,
            _entry(p, 0), _entry(p, 1), _entry(p, 2), _entry(p, 3),
            _entry(m, 0), _entry(m, 1), rec.stats.tail_bound,
        ])
    return rows


def cmd_sweep(config: RunConfig) -> int:
    preset = config.preset or "custom"
    workers = config.threads
    if preset == "fig2":
        result = sweep_single_line(k=config.k, delta=config.delta, workers=workers)
    elif preset == "fig3":
        result = sweep_single_line(T_grid=[config.T], N_grid=DEFAULT_N_GRID,
                                   k=config.k, delta=config.delta, workers=workers)
    elif preset == "fig4":
        result = sweep_two_line_slices([0.01, 0.5], T=config.T, k=config.k,
                                       delta=config.delta, workers=workers)
    elif preset == "fig5":
        result = sweep_two_line(k=config.k, delta=config.delta, workers=workers)
    elif preset == "custom":
        if config.a_grid is not None:
            result = sweep_two_line(a_grid=config.a_grid,
                                    T_grid=config.t_grid or DEFAULT_T_GRID,
                                    k=config.k, delta=config.delta, workers=workers)
        elif config.t_grid is not None or config.n_grid is not None:
            result = sweep_single_line(T_grid=config.t_grid or DEFAULT_T_GRID,
                                       N_grid=config.n_grid or DEFAULT_N_GRID,
                                       k=config.k, delta=config.delta, workers=workers)
        else:
            raise ConfigError("custom sweep needs t_grid/n_grid or a_grid")
    else:
        raise ConfigError(f"unknown preset {config.preset!r}; "
                          "use fig2, fig3, fig4, fig5 or custom")
    _emit(config, _SWEEP_HEADER, _sweep_rows(result))
    return 0


def cmd_traj(config: RunConfig) -> int:
    spec = config.drive_spec()
    hist = _run_trajectories(config, spec)
    n_traj = config.n_traj
    p_hat = hist / n_traj
    stderr = np.sqrt(p_hat * (1 - p_hat) / n_traj)

    header = ["n", "count", "p_hat", "stderr"]
    ref = None
    if config.compare:
        rho0 = config.initial_density()
        stats = photon_statistics(spec, "jump-counting", k=config.k, rho0=rho0)
        # without --k the reference covers the adaptive cutoff and every
        # observed bin, up to MAX_CUTOFF
        widest = min(len(hist) - 1, MAX_CUTOFF)
        if config.k is None and widest > stats.cutoff_k:
            stats = photon_statistics(spec, "jump-counting", k=widest, rho0=rho0)
        ref = stats.probabilities
        header += ["p_counting", "z"]
    header += ["seed"]

    rows = []
    for n in range(len(hist)):
        row: list = [n, int(hist[n]), float(p_hat[n]), float(stderr[n])]
        if ref is not None:
            p_ref = float(ref[n]) if n < len(ref) else 0.0
            se = math.sqrt(max(p_ref * (1 - p_ref), 1e-12) / n_traj)
            row += [p_ref, (float(p_hat[n]) - p_ref) / se]
        row += [config.seed]
        rows.append(row)
    _emit(config, header, rows)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing

def _parse_grid(text: str) -> list[float]:
    """Grid flag syntax: 'a,b,c' or 'lo:hi:count[:log]'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise ConfigError(f"grid spec {text!r} is not lo:hi:count[:log]")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if len(parts) == 4 and parts[3] == "log":
            return list(np.logspace(math.log10(lo), math.log10(hi), count))
        return list(np.linspace(lo, hi, count))
    return [float(v) for v in text.split(",")]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonstat",
        description="Photon-number statistics of pulses scattered by a "
                    "two-level emitter in 1D lines.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with flat config keys")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=["csv", "json"])
        p.add_argument("--seed", type=int)
        p.add_argument("--threads", type=int)
        p.add_argument("--topology", choices=["single", "two"])
        p.add_argument("--pulse", choices=["square", "sampled"])
        p.add_argument("--T", type=float, help="pulse width (relaxation times)")
        p.add_argument("--N", type=float, help="mean photon number in the pulse")
        p.add_argument("--delta", type=float, help="detuning")
        p.add_argument("--a", type=float, help="two-line coupling ratio")
        p.add_argument("--window", type=float, help="counting window override")
        p.add_argument("--initial", choices=["ground", "excited"])
        p.add_argument("--k", type=int, help="photon-number cutoff")

    sim = sub.add_parser("simulate", help="count statistics for one drive")
    common(sim)
    sim.add_argument("--method", choices=["moments", "counting", "trajectories", "all"])
    sim.add_argument("--n-traj", type=int, dest="n_traj")

    swp = sub.add_parser("sweep", help="parameter sweeps")
    common(swp)
    swp.add_argument("--preset", choices=["fig2", "fig3", "fig4", "fig5", "custom"])
    swp.add_argument("--T-grid", dest="t_grid", help="'a,b,c' or 'lo:hi:count[:log]'")
    swp.add_argument("--N-grid", dest="n_grid", help="'a,b,c' or 'lo:hi:count[:log]'")
    swp.add_argument("--a-grid", dest="a_grid", help="'a,b,c' or 'lo:hi:count[:log]'")

    trj = sub.add_parser("traj", help="Monte Carlo trajectory histogram")
    common(trj)
    trj.add_argument("--n-traj", type=int, dest="n_traj")
    trj.add_argument("--compare", action="store_true", default=None,
                     help="append jump-counting columns and z-scores")

    return parser


def _merge_config(ns: argparse.Namespace) -> RunConfig:
    """Config file keys overridden by explicit flags; grid strings parsed."""
    data: dict = {}
    if ns.config:
        with open(ns.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        data.update(loaded)
    for name in (f.name for f in fields(RunConfig)):
        value = getattr(ns, name, None)
        if value is not None:
            data[name] = value
    for name, value in data.items():
        if name.endswith("_grid") and isinstance(value, str):
            try:
                data[name] = _parse_grid(value)
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from exc
    return RunConfig.from_dict(data)


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    dispatch = {"simulate": cmd_simulate, "sweep": cmd_sweep, "traj": cmd_traj}
    try:
        config = _merge_config(ns)
        return dispatch[ns.command](config)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
