"""Benchmark of the photonstat package, one workload per invocation.

    python3 bench/run.py --workload map --seed 1 --seconds 20 --trace 0

Workloads (inputs drawn from ``--seed``; see ``workloads.py``):

    map       sweep_single_line over one T and 24 N values     (items: grid points)
    optimize  maximize_p1 on the two-line source               (items: maximizations)
    traj      sample_trajectories, 1000 trajectories per call  (items: trajectories)
    sampled   photon_statistics, both routes, sampled envelope (items: specs)

Every interpreter is fresh and serial, with one BLAS thread. With
``--trace 0`` the run times three set-ups and one closed loop of calls,
one call at a time, each input block on the next CPU in turn, and reports
the end-to-end metrics:

    setup_s      median over 3 fresh interpreters of the wall time to import
                 photonstat.cli and finish one warm-up call
    items_per_s  items completed per second of call time, median over the
                 run's input blocks (each block holds the same stratified mix)
    call_p50_ms  median latency of one call
    call_p90_ms  90th percentile latency (printed only with >= 100 calls)
    failed_frac  calls that raised or failed their output check / calls
    peak_rss_mb  peak resident memory of the workload process

With ``--trace 1`` it reports the per-layer metrics instead: spans around
the public functions of the package, recorded by ``tracer.py`` on a fixed
list of calls, and the import-time breakdown of ``python -X importtime``.

Outputs are checked outside the timed span. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the full record is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC_FILE = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 3
P90_MIN_CALLS = 100
TIME_LIMIT_S = 170.0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(cmd: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run a child to completion; it is killed and reaped at the deadline."""
    return subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))


def _worker(args, mode: str, deadline: float, spans: Path | None = None) -> tuple[dict, float]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    started = time.monotonic()
    proc = _run(cmd, deadline)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready_monotonic"] - started


def import_breakdown(deadline: float) -> dict[str, float]:
    """Cumulative import seconds of photonstat.cli and of scipy.integrate."""
    proc = _run([sys.executable, "-X", "importtime", "-c", "import photonstat.cli"], deadline)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("importing photonstat.cli failed")
    package = integrate = 0.0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        field = parts[2][1:]
        name = field.strip()
        cumulative = int(parts[1]) * 1e-6
        if field == name and (name == "photonstat" or name.startswith("photonstat.")):
            package += cumulative
        elif name == "scipy.integrate":
            integrate += cumulative
    return {"setup.import_photonstat_s": package, "setup.import_scipy_integrate_s": integrate}


def _git_hash() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _declared(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json declares under ``kind``, with their units."""
    spec = json.loads(SPEC_FILE.read_text())
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}


def measure(args) -> tuple[dict, dict]:
    """Run the workload; returns (metrics with units, record)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(SRC, quiet=1)  # keep bytecode compilation out of set-up time
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "git": _git_hash(), "nproc": len(os.sched_getaffinity(0)),
              "python": platform.python_version()}

    if args.trace:
        layers = import_breakdown(deadline)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        result, _ = _worker(args, "traced", deadline, spans)
        layers.update(result["layers"])
        metrics = _declared(layers, "per_layer")
        record["spans_file"] = str(spans.relative_to(ROOT))
    else:
        setups = [_worker(args, "setup", deadline)[1] for _ in range(SETUP_SAMPLES - 1)]
        result, setup = _worker(args, "timed", deadline)
        setups.append(setup)
        lat_ms = [1e3 * s for s in result["latencies_s"]]
        metrics = _declared({"setup_s": statistics.median(setups),
                             "items_per_s": statistics.median(result["block_rates"]),
                             "call_p50_ms": statistics.median(lat_ms) if lat_ms else 0.0,
                             "peak_rss_mb": result["peak_rss_mb"]}, "end_to_end")
        record["setup_samples_s"] = setups
        if len(lat_ms) >= P90_MIN_CALLS:
            record["call_p90_ms"] = statistics.quantiles(lat_ms, n=10)[-1]

    record.update(item=result["item"], numpy=result["numpy"], scipy=result["scipy"],
                  timed_calls=result["attempted"],
                  errors=result["errors"], pooled_errors=result["pooled_errors"])
    attempted = result["attempted"]
    # a failed pooled check covers every call it pooled
    failed = attempted if result["pooled_errors"] else min(attempted, len(result["errors"]))
    record.update(attempted=attempted, failed=failed, failed_frac=failed / attempted)
    return metrics, record


def report(metrics: dict, record: dict) -> None:
    print(f"photonstat benchmark  workload={record['workload']}  seed={record['seed']}  "
          f"seconds={record['seconds']}  trace={record['trace']}")
    print(f"  git={record['git']}  nproc={record['nproc']}  python={record['python']}  "
          f"numpy={record['numpy']}  scipy={record['scipy']}  "
          f"timed calls={record['timed_calls']}  items={record['item']}")
    rows = [(k, m["value"], m["unit"]) for k, m in metrics.items()]
    if not record["trace"]:
        p90 = record.get("call_p90_ms")
        rows.insert(3, ("call_p90_ms", p90 if p90 is not None
                        else f"n/a (< {P90_MIN_CALLS} calls)", "ms"))
        rows.insert(4, ("failed_frac", record["failed_frac"], "ratio"))
    for name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, (int, float)) else value
        print(f"  {name:<40} {shown:>16} {unit}")
    for error in (record["errors"] + record["pooled_errors"])[:10]:
        print(f"  FAILED {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "photonstat" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'photonstat'}", file=sys.stderr)
        return 2
    workloads = [w["name"] for w in json.loads(SPEC_FILE.read_text())["workloads"]]
    if args.workload not in workloads:
        print(f"error: --workload must be one of {workloads}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        metrics, record = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"metrics": metrics, "record": record}, indent=1))
    report(metrics, record)
    correct = not record["errors"] and not record["pooled_errors"]
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
