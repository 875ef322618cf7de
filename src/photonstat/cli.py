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
import typing
from dataclasses import asdict, dataclass, fields

import numpy as np

from .counting import MAX_CUTOFF, photon_statistics, verify_dual
from .errors import ConfigError, NumericalError
from .liouville import EXCITED, GROUND, DriveSpec, SampledPulse, SingleLine, SquarePulse, TwoLine
from .sweeps import (_pool_size, _run_points, sweep_single_line, sweep_two_line,
                     sweep_two_line_slices)
from .trajectories import sample_trajectory_range

__all__ = ["RunConfig", "main"]

# Allowed values of the enumerated config keys, in the order the parser lists them.
_CHOICES = {
    "topology": ("single", "two"),
    "pulse": ("square", "sampled"),
    "initial": ("ground", "excited"),
    "method": ("moments", "counting", "trajectories", "all"),
    "format": ("csv", "json"),
    "preset": ("fig2", "fig3", "fig4", "fig5", "custom"),
}


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
        hints = typing.get_type_hints(cls)
        names = {f.name: f.type for f in fields(cls)}
        for key, value in data.items():
            if key not in hints:
                raise ConfigError(f"unknown config key: {key!r}")
            if not _has_type(value, hints[key]):
                raise ConfigError(f"config key {key!r} must be {names[key]}, got {value!r}")
        return cls(**data)

    def __post_init__(self):
        self.validate()

    def to_dict(self) -> dict:
        return asdict(self)

    def validate(self) -> None:
        for name, allowed in _CHOICES.items():
            if name != "preset" and (value := getattr(self, name)) not in allowed:
                raise ConfigError(f"{name} must be one of {sorted(allowed)}, got {value!r}")
        if self.topology == "two" and self.a is None:
            raise ConfigError("coupling ratio a is required for the two-line topology")
        if self.k is not None and self.k < 1:
            raise ConfigError(f"cutoff k must be >= 1, got {self.k}")
        if self.n_traj < 1:
            raise ConfigError(f"n_traj must be >= 1, got {self.n_traj}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        for name in ("t_grid", "n_grid", "a_grid"):
            if (grid := getattr(self, name)) is not None and len(grid) == 0:
                raise ConfigError(f"{name} must not be empty")
        if (self.preset or "custom") not in (presets := _CHOICES["preset"]):
            raise ConfigError(f"unknown preset {self.preset!r}; "
                              f"use {', '.join(presets[:-1])} or {presets[-1]}")

    def drive_spec(self) -> DriveSpec:
        return DriveSpec(_build("pulse", self), _build("topology", self), t_end=self.window)

    def initial_density(self):
        return EXCITED if self.initial == "excited" else GROUND

    def initial_amplitudes(self):
        return (0.0, 1.0) if self.initial == "excited" else (1.0, 0.0)


def _has_type(value, hint) -> bool:
    """Whether a config value fits its field: an int passes for a float, a
    bool for nothing but a bool."""
    allowed = typing.get_args(hint) or (hint,)
    if isinstance(value, bool):
        return bool in allowed
    if isinstance(value, int) and float in allowed:
        return True
    return isinstance(value, allowed)


def _sampled_pulse(samples) -> SampledPulse:
    pairs = all(isinstance(s, list) and len(s) == 2
                and all(_has_type(v, float) for v in s) for s in samples or [])
    if not samples or not pairs:
        raise ConfigError("sampled pulse requires a 'samples' list of [t, flux] pairs, "
                          f"got {samples!r}")
    return SampledPulse(tuple(s[0] for s in samples), tuple(s[1] for s in samples))


def _custom_sweep(config: RunConfig, **shared):
    if config.t_grid is None and config.n_grid is None:
        raise ConfigError("custom sweep needs t_grid/n_grid or a_grid")
    return sweep_single_line(T_grid=config.t_grid, N_grid=config.n_grid, **shared)


# What each topology, pulse and sweep preset reads and builds from the config.
# A key governs the inputs that any of its entries reads; an input set
# explicitly that the selected entry does not read is an error. A custom
# sweep with an a-grid is an entry of its own: it maximizes P1 over N, so it
# reads no N-grid. A preset's sweep also takes k, delta and the workers.
_READS = {
    "topology": {
        "single": ((), lambda c: SingleLine(delta=c.delta)),
        "two": (("a",), lambda c: TwoLine(a=c.a, delta=c.delta)),
    },
    "pulse": {
        "square": (("T", "N"), lambda c: SquarePulse(T=c.T, N=c.N)),
        "sampled": (("samples",), lambda c: _sampled_pulse(c.samples)),
    },
    "preset": {
        "fig2": ((), lambda c, **kw: sweep_single_line(**kw)),
        "fig3": (("T",), lambda c, **kw: sweep_single_line(T_grid=[c.T], **kw)),
        "fig4": (("T",), lambda c, **kw: sweep_two_line_slices([0.01, 0.5], T=c.T, **kw)),
        "fig5": ((), lambda c, **kw: sweep_two_line(**kw)),
        "custom": (("t_grid", "n_grid"), _custom_sweep),
        "custom a_grid": (("t_grid", "a_grid"),
                          lambda c, **kw: sweep_two_line(a_grid=c.a_grid, T_grid=c.t_grid, **kw)),
    },
}


def _selected(key: str, data: dict) -> tuple:
    """The value that ``data`` gives ``key`` (or its default; no preset is a
    custom sweep) and the :data:`_READS` entry it selects, None if unknown."""
    value = data.get(key) or getattr(RunConfig, key) or "custom"
    if not isinstance(value, str):
        return value, None  # from_dict names the wrong type
    a_grid = key == "preset" and value == "custom" and data.get("a_grid") is not None
    return value, _READS[key].get(value + " a_grid" if a_grid else value)


def _build(key: str, config: RunConfig, **shared):
    """What the entry that ``config`` selects for ``key`` builds."""
    return _selected(key, vars(config))[1][1](config, **shared)


# ---------------------------------------------------------------------------
# Output formatting

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def _emit(config: RunConfig, columns: list[tuple[str, list]], reads) -> None:
    """Write named columns of equal length as a CSV table or JSON rows.

    The JSON config echo holds the keys in ``reads``, the command's keys,
    less the inputs that the selected topology, pulse or preset does not
    read, so that it reruns as a ``--config`` file.
    """
    header = [name for name, _ in columns]
    rows = list(zip(*(values for _, values in columns)))
    if config.format == "json":
        unread = _unread(reads, vars(config))
        echo = {name: value for name, value in config.to_dict().items()
                if name in reads and name not in unread}
        payload = {"config": echo, "rows": [dict(zip(header, r)) for r in rows]}
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
    """Histogram of monitored counts, identical for any thread count; one range per process."""
    psi0 = config.initial_amplitudes()
    n, parts = config.n_traj, _pool_size(config.threads, config.n_traj)
    ranges = [(spec, config.seed, n * i // parts, n * (i + 1) // parts, psi0)
              for i in range(parts)]
    pieces = _run_points(sample_trajectory_range, ranges, config.threads)
    width = max(len(h) for h, _, _ in pieces)
    hist = np.zeros(width, dtype=np.int64)
    for h, _, _ in pieces:
        hist[:len(h)] += h
    return hist


def cmd_simulate(config: RunConfig) -> list[tuple[str, list]]:
    spec = config.drive_spec()
    rho0 = config.initial_density()
    stats_m = stats_c = hist = None
    if config.method in ("moments", "all"):
        stats_m = photon_statistics(spec, "moment-inversion", k=config.k, rho0=rho0)
    if config.method in ("counting", "all"):
        stats_c = (verify_dual([spec], [stats_m], rho0)[0] if stats_m is not None
                   else photon_statistics(spec, "jump-counting", k=config.k, rho0=rho0))
    if config.method in ("trajectories", "all"):
        hist = _run_trajectories(config, spec)

    stats = [s for s in (stats_m, stats_c) if s is not None]
    ns = range(max([len(s.probabilities) for s in stats] + [0 if hist is None else len(hist)]))
    columns = [("n", list(ns))]
    if stats_m is not None:
        columns += [("binomial_moment", [1.0 if n == 0 else _entry(stats_m.moments, n - 1)
                                         for n in ns]),
                    ("p_moment_inversion", [_entry(stats_m.probabilities, n) for n in ns])]
    if stats_c is not None:
        columns.append(("p_jump_counting", [_entry(stats_c.probabilities, n) for n in ns]))
    if hist is not None:
        p_hat = [_entry(hist, n, 1.0 / config.n_traj) or 0.0 for n in ns]
        columns += [("p_trajectory", p_hat),
                    ("p_trajectory_stderr",
                     [math.sqrt(max(p * (1 - p), 0.0) / config.n_traj) for p in p_hat])]
    columns.append(("tail_bound", [stats[0].tail_bound if stats else None] * len(ns)))
    return columns


def cmd_sweep(config: RunConfig) -> list[tuple[str, list]]:
    records = _build("preset", config, k=config.k, delta=config.delta,
                     workers=config.threads).records
    stats = [r.stats for r in records]
    columns = [(name, [getattr(r, name) for r in records]) for name in ("T", "N", "a")]
    columns += [(f"P{n}", [_entry(s.probabilities, n) for s in stats]) for n in range(4)]
    columns += [(f"N{n + 1}", [_entry(s.moments, n) for s in stats]) for n in range(2)]
    columns.append(("tail_bound", [s.tail_bound for s in stats]))
    return columns


def cmd_traj(config: RunConfig) -> list[tuple[str, list]]:
    spec = config.drive_spec()
    hist = _run_trajectories(config, spec)
    n_traj = config.n_traj
    p_hat = hist / n_traj
    stderr = np.sqrt(p_hat * (1 - p_hat) / n_traj)

    columns = [("n", list(range(len(hist)))), ("count", hist.tolist()),
               ("p_hat", p_hat.tolist()), ("stderr", stderr.tolist())]
    if config.compare:
        rho0 = config.initial_density()
        stats = photon_statistics(spec, "jump-counting", k=config.k, rho0=rho0)
        # without --k the reference covers the adaptive cutoff and every
        # observed bin, up to MAX_CUTOFF
        widest = min(len(hist) - 1, MAX_CUTOFF)
        if config.k is None and widest > stats.cutoff_k:
            stats = photon_statistics(spec, "jump-counting", k=widest, rho0=rho0)
        ref = [float(stats.probabilities[n]) if n < len(stats.probabilities) else 0.0
               for n in range(len(hist))]
        columns += [("p_counting", ref),
                    ("z", [(p - r) / math.sqrt(max(r * (1 - r), 1e-12) / n_traj)
                           for p, r in zip(p_hat.tolist(), ref)])]
    columns.append(("seed", [config.seed] * len(hist)))
    return columns


# ---------------------------------------------------------------------------
# Argument parsing

def _parse_grid(text: str) -> list[float]:
    """Grid flag syntax: 'a,b,c' or 'lo:hi:count[:log]'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise ConfigError(f"grid spec {text!r} is not lo:hi:count[:log]")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if parts[3:] not in ([], ["log"]) or count < 1:
            raise ConfigError(f"grid spec {text!r} is not lo:hi:count[:log] with count >= 1")
        if parts[3:] and not (lo > 0 and hi > 0):
            raise ConfigError(f"grid spec {text!r}: lo:hi:count:log needs lo > 0 and hi > 0")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigError(f"grid spec {text!r}: lo:hi:count needs finite lo and hi")
        if parts[3:]:
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
        p.add_argument("--format", choices=_CHOICES["format"])
        p.add_argument("--threads", type=int)
        p.add_argument("--T", type=float, help="pulse width (relaxation times)")
        p.add_argument("--delta", type=float, help="detuning")
        p.add_argument("--k", type=int, help="photon-number cutoff")

    def one_drive(p):
        common(p)
        p.add_argument("--seed", type=int)
        p.add_argument("--topology", choices=_CHOICES["topology"])
        p.add_argument("--pulse", choices=_CHOICES["pulse"])
        p.add_argument("--N", type=float, help="mean photon number in the pulse")
        p.add_argument("--a", type=float, help="two-line coupling ratio")
        p.add_argument("--window", type=float, help="counting window override")
        p.add_argument("--initial", choices=_CHOICES["initial"])
        # a sampled envelope has no flag; it is read from the config file only
        p.set_defaults(samples=None)

    sim = sub.add_parser("simulate", help="count statistics for one drive")
    one_drive(sim)
    sim.add_argument("--method", choices=_CHOICES["method"])
    sim.add_argument("--n-traj", type=int, dest="n_traj")

    # no prefix matching, which would read --N and --a as --N-grid and --a-grid
    swp = sub.add_parser("sweep", help="parameter sweeps", allow_abbrev=False)
    common(swp)
    swp.add_argument("--preset", choices=_CHOICES["preset"])
    swp.add_argument("--T-grid", dest="t_grid", help="'a,b,c' or 'lo:hi:count[:log]'")
    swp.add_argument("--N-grid", dest="n_grid", help="'a,b,c' or 'lo:hi:count[:log]'")
    swp.add_argument("--a-grid", dest="a_grid", help="'a,b,c' or 'lo:hi:count[:log]'")

    trj = sub.add_parser("traj", help="Monte Carlo trajectory histogram")
    one_drive(trj)
    trj.add_argument("--n-traj", type=int, dest="n_traj")
    trj.add_argument("--compare", action="store_true", default=None,
                     help="append jump-counting columns and z-scores")

    return parser


_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


def _unread(keys, data: dict) -> dict[str, tuple]:
    """The inputs that the entries ``data`` selects for the :data:`_READS`
    keys among ``keys`` do not read, each mapped to ``(key, value)`` of its
    selection, in key order."""
    unread = {}
    for key, entries in _READS.items():
        value, entry = _selected(key, data) if key in keys else (None, None)
        if entry is None:
            continue  # a key the command lacks, or a value that from_dict rejects
        governed = {name for reads, _ in entries.values() for name in reads}
        for name in _CONFIG_KEYS:
            if name in governed - set(entry[0]):
                unread.setdefault(name, (key, value))
    return unread


def _check_reads(ns: argparse.Namespace, data: dict) -> None:
    """Reject an input set in ``data`` that the selected entry of one of the
    command's :data:`_READS` keys does not read."""
    for name, (key, value) in _unread(vars(ns), data).items():
        if data.get(name) is not None:
            raise ConfigError(f"{ns.command} {key} {value!r} does not read {name!r}")


def _merge_config(ns: argparse.Namespace) -> RunConfig:
    """Config file keys overridden by explicit flags; grid strings parsed."""
    data: dict = {}
    if ns.config:
        with open(ns.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        # the keys a command reads are the dests of its own parser
        for key in loaded:
            if key in _CONFIG_KEYS and key not in vars(ns):
                raise ConfigError(f"{ns.command} does not read config key {key!r}")
        data.update(loaded)
    for name in _CONFIG_KEYS:
        value = getattr(ns, name, None)
        if value is not None:
            data[name] = value
    for name, value in data.items():
        if name.endswith("_grid") and isinstance(value, str):
            try:
                data[name] = _parse_grid(value)
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from exc
    _check_reads(ns, data)
    return RunConfig.from_dict(data)


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    dispatch = {"simulate": cmd_simulate, "sweep": cmd_sweep, "traj": cmd_traj}
    try:
        config = _merge_config(ns)
        _emit(config, dispatch[ns.command](config), vars(ns))
        return 0
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
