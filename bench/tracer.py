"""Spans around the package's public functions, installed from outside.

The tracer rebinds each traced function in every ``photonstat`` module
namespace that holds it, so calls made through any import path are seen.
While a call is being traced, each wrapped call records a span
``(name, start, end, parent, call_id)`` in memory; between calls the
wrappers pass straight through. A function that no longer exists is
skipped and reports 0 calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (metric name, module, attribute) of every traced function
TARGETS = [
    ("liouville.build_liouvillian", "photonstat.liouville", "build_liouvillian"),
    ("liouville.jump_superop", "photonstat.liouville", "jump_superop"),
    ("liouville.constant_intervals", "photonstat.liouville", "constant_intervals"),
    ("liouville.effective_hamiltonian", "photonstat.liouville", "effective_hamiltonian"),
    ("propagator.segment_propagators", "photonstat.propagator", "segment_propagators"),
    ("propagator.expm_interval", "photonstat.propagator", "expm_interval"),
    ("propagator.expm", "photonstat.propagator", "expm"),
    ("counting.photon_statistics", "photonstat.counting", "photon_statistics"),
    ("counting.binomial_moments", "photonstat.counting", "binomial_moments"),
    ("counting.counting_distribution", "photonstat.counting", "counting_distribution"),
    ("counting.invert_moments", "photonstat.counting", "invert_moments"),
    ("sweeps.sweep_single_line", "photonstat.sweeps", "sweep_single_line"),
    ("sweeps.maximize_p1", "photonstat.sweeps", "maximize_p1"),
    ("trajectories.sample_trajectories", "photonstat.trajectories", "sample_trajectories"),
]
# numpy's generator factory, traced only on the trajectory workload
RNG_TARGET = ("trajectories.rng", "numpy.random", "default_rng")

DUAL = "sweeps.dual_check"
SPAN_NAMES = [name for name, _, _ in TARGETS] + [RNG_TARGET[0]]


def _package_modules() -> list:
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "photonstat" or name.startswith("photonstat."))]


def clear_caches() -> None:
    """Empty every functools cache held in a ``photonstat`` module."""
    for mod in _package_modules():
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class Tracer:
    def __init__(self, trace_rng: bool = False):
        self.targets = TARGETS + ([RNG_TARGET] if trace_rng else [])
        self.active = False
        self.call_id = -1
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, call_id]
        self._stack: list[int] = []
        self.dual: list[int] = []  # jump-counting spans opened under a sweep
        self.expm_dims: list[int] = []
        self.cutoffs: list[int] = []
        self.jumps = 0.0
        self.trajs = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name, module, attr in self.targets:
            try:
                original = getattr(importlib.import_module(module), attr)
            except (ImportError, AttributeError):
                continue
            wrapper = self._wrap(name, original)
            for mod in dict.fromkeys([*_package_modules(), sys.modules[module]]):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[idx][2] = time.perf_counter()
                tracer._stack.pop()
            tracer._returned(name, result)
            return result

        return wrapper

    def _open(self, name: str, args, kwargs) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if name == "propagator.expm":
            self.expm_dims.append(int(args[0].shape[0]))
        elif name == "counting.photon_statistics":
            method = kwargs.get("method", args[1] if len(args) > 1 else "moment-inversion")
            if method == "jump-counting" and any(
                    self.spans[i][0].startswith("sweeps.") for i in self._stack):
                self.dual.append(idx)
        self._stack.append(idx)
        self.spans.append([name, time.perf_counter(), None, parent, self.call_id])
        return idx

    def _returned(self, name: str, result) -> None:
        if name == "counting.photon_statistics":
            self.cutoffs.append(int(result.cutoff_k))
        elif name == "trajectories.sample_trajectories":
            self.jumps += sum(result.per_channel_totals.values()) * result.n_traj
            self.trajs += result.n_traj

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, self times and ratios; 0 for functions never called."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _, _), cover in zip(self.spans, covered):
            calls[name] += 1
            self_s[name] += (end - start) - cover

        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            if name != "propagator.expm_interval":
                out[f"{name}.self_s"] = self_s[name]
        out["trajectories.rng.constructions"] = out.pop("trajectories.rng.calls")

        lookups = calls["propagator.expm_interval"]
        misses = calls["propagator.expm"]
        out["propagator.expm.cache_hit_ratio"] = (
            max(lookups - misses, 0) / lookups if lookups else 0.0)
        dims = self.expm_dims
        out["propagator.expm.dim_mean"] = sum(dims) / len(dims) if dims else 0.0
        out["propagator.expm.work_dim3"] = float(sum(d ** 3 for d in dims))

        evaluations = calls["counting.binomial_moments"] + calls["counting.counting_distribution"]
        out["counting.hierarchy_useful_ratio"] = (
            calls["counting.photon_statistics"] / evaluations if evaluations else 0.0)
        out["counting.cutoff_k_mean"] = (
            sum(self.cutoffs) / len(self.cutoffs) if self.cutoffs else 0.0)

        maximizations = calls["sweeps.maximize_p1"]
        evals = sum(1 for span in self.spans if span[0] == "counting.photon_statistics"
                    and self._under(span, "sweeps.maximize_p1"))
        out["sweeps.evals_per_maximize"] = evals / maximizations if maximizations else 0.0
        # a dual check only groups its calls, so its time is inclusive
        out[f"{DUAL}.calls"] = len(self.dual)
        out[f"{DUAL}.self_s"] = sum((self.spans[i][2] - self.spans[i][1] for i in self.dual), 0.0)
        out["trajectories.jumps_per_traj"] = self.jumps / self.trajs if self.trajs else 0.0
        return out

    def _under(self, span, ancestor: str) -> bool:
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def call_counts(self) -> dict[str, int]:
        return {k: v for k, v in self.layer_metrics().items()
                if k.endswith(".calls") or k.endswith(".constructions")}

    def write_spans(self, path) -> None:
        """Write the recorded spans as JSON: one [name, start, end, parent, call_id] each."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "call_id"],
                       "spans": self.spans}, fh)
