"""One workload in a fresh interpreter; started by ``run.py``.

Imports ``photonstat.cli``, makes one untimed warm-up call and records the
monotonic clock, then, by ``--mode``:

* ``setup``  stops there;
* ``timed``  makes seeded calls, one input block at a time and each block
  on the next CPU in turn, until ``--seconds`` of call time is spent,
  checking every output outside the timed span;
* ``traced`` runs a fixed seeded list of calls three times: untraced and
  checked, then twice traced with in-process caches emptied before each
  pass. Both traced passes must make identical per-layer call counts.

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time
from pathlib import Path

import photonstat.cli  # noqa: F401  set-up covers the CLI import
import numpy as np
import scipy

from tracer import Tracer, clear_caches
from workloads import WORKLOADS, CheckFailure


def _attempt(workload, x, tracer=None, call_id=0):
    """Make one public call; returns (output or None, seconds, error or None)."""
    if tracer is not None:
        tracer.call_id = call_id
        tracer.active = True
    start = time.perf_counter()
    try:
        out = workload.call(x)
    except Exception as exc:  # a raising call is a counted failure, not a crash
        return None, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.active = False
    return out, time.perf_counter() - start, None


def _checked(workload, x, out, error):
    if error is None:
        try:
            workload.check(x, out)
        except CheckFailure as exc:
            error = f"check: {exc}"
    return error


def run_timed(workload, blocks, seconds: float) -> dict:
    """Whole input blocks until ``seconds`` of call time; throughput per block."""
    latencies, errors, block_rates = [], [], []
    busy = 0.0
    attempted = 0
    # Blocks take turns on the CPUs this process may use, so that contention
    # on one CPU of a shared host does not set the figures of a whole run.
    cpus = sorted(os.sched_getaffinity(0))
    while busy < seconds:
        os.sched_setaffinity(0, {cpus[len(block_rates) % len(cpus)]})
        block_busy, block_items = 0.0, 0
        for x in next(blocks):
            out, dt, error = _attempt(workload, x)
            block_busy += dt
            attempted += 1
            error = _checked(workload, x, out, error)
            if error is None:
                latencies.append(dt)
                block_items += workload.items(x)
            else:
                errors.append(error)
        busy += block_busy
        block_rates.append(block_items / block_busy)
    os.sched_setaffinity(0, cpus)
    return {"attempted": attempted, "errors": errors, "latencies_s": latencies,
            "block_rates": block_rates}


def _pass(workload, xs, tracer=None, check=False) -> tuple[float, list[str]]:
    busy, errors = 0.0, []
    for i, x in enumerate(xs):
        out, dt, error = _attempt(workload, x, tracer, i)
        busy += dt
        if check:
            error = _checked(workload, x, out, error)
        if error is not None:
            errors.append(f"call {i}: {error}")
    return busy, errors


def run_traced(workload, blocks, seconds: float, spans_path: Path) -> dict:
    # whole blocks, about a sixth of ``seconds`` of untraced call time
    xs = []
    while len(xs) < seconds * workload.trace_rate / 6 or not xs:
        xs += next(blocks)
    clear_caches()
    untraced_s, errors = _pass(workload, xs, check=True)
    tracer = Tracer(trace_rng=workload.name == "traj")
    tracer.install()
    try:
        clear_caches()
        traced_s, errors_a = _pass(workload, xs, tracer)
        layers = tracer.layer_metrics()
        counts_a = tracer.call_counts()
        tracer.write_spans(spans_path)
        tracer.reset()
        clear_caches()
        _, errors_b = _pass(workload, xs, tracer)
        counts_b = tracer.call_counts()
    finally:
        tracer.uninstall()
    errors += errors_a + errors_b
    mismatch = sorted(k for k in counts_a if counts_a[k] != counts_b[k])
    if mismatch:
        errors.append(f"per-layer call counts differ between identical passes: {mismatch}")
    # traced items_per_s relative to untraced, over the same calls
    layers["trace_overhead_frac"] = 1.0 - untraced_s / traced_s
    return {"attempted": len(xs), "errors": errors, "layers": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "timed", "traced"], required=True)
    parser.add_argument("--spans", type=Path, help="spans file written by --mode traced")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    workload.warmup()
    result = {"ready_monotonic": time.monotonic(), "item": workload.item,
              "numpy": np.__version__, "scipy": scipy.__version__}

    if args.mode != "setup":
        index = list(WORKLOADS).index(args.workload)
        rng = np.random.default_rng([args.seed % 2**63, index])
        blocks = workload.blocks(rng)
        if args.mode == "timed":
            result.update(run_timed(workload, blocks, args.seconds))
        else:
            result.update(run_traced(workload, blocks, args.seconds, args.spans))
        result["pooled_errors"] = workload.finish()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
