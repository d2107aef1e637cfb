"""pisim benchmark: end-to-end metrics per workload, or per-layer metrics
from a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; pisim is imported from ./src. Set-up
is measured in fresh interpreters (see probe.py), the workload in one worker
process that calls pisim.cli.main with the argv a user would type (see
worker.py). The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Lines before it name every
metric with its unit, the run environment and, for verify_toy, the
per-label transcript byte table.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep_serial", "verify_toy")
SWEEPS = ("sweep_serial",)
SETUP_PROBES = 4
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "cpu_ref_s": "s", "throughput_per_s": "1/s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "import.costmodel_s": "s", "import.protocol_s": "s", "import.desim_s": "s",
    "import.cli_s": "s", "costmodel.calibrate_s": "s", "costmodel.phase_costs_ms": "ms",
    "costmodel.worst_residual": "ratio", "desim.requests": "count",
    "desim.completed": "count", "desim.arrivals_s": "s", "desim.schedule_s": "s",
    "desim.schedule_us_per_req": "us", "desim.summarize_s": "s", "desim.aggregate_s": "s",
    "desim.output_s": "s", "protocol.offline_ms.p50": "ms", "protocol.offline_ms.p95": "ms",
    "protocol.online_ms.p50": "ms", "protocol.online_ms.p95": "ms",
    "protocol.oracle_ms": "ms", "protocol.weights_ms": "ms", "protocol.compile_ms": "ms",
    "protocol.recv_wait_s": "s", "protocol.messages": "count", "protocol.kernel_s": "s",
    "protocol.kernel_calls": "count", "protocol.kernel_bytes": "bytes",
    "protocol.bytes.offline.c2s": "bytes", "protocol.bytes.offline.s2c": "bytes",
    "protocol.bytes.online.c2s": "bytes", "protocol.bytes.online.s2c": "bytes",
    "protocol.model_delta_bytes": "bytes", "cli.self_s": "s", "cli.wall_s": "s",
    "cli.traced_wall_s": "s",
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # OpenBLAS worker threads spin while idle, which adds CPU time that
    # varies from run to run; none of the workloads' matrices is large
    # enough to gain from them.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def run_child(argv: list[str], deadline: float) -> dict:
    """Run a Python child to completion (killed at the deadline) and parse
    its last stdout line as JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before " + " ".join(argv))
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[0]} did not finish within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{argv[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not Path(result["pisim_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"imported pisim from {result['pisim_file']}, not from {SRC}")
    return result


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def environment() -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "openblas_num_threads": child_env()["OPENBLAS_NUM_THREADS"],
        "host": platform.node(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "pisim" / "cli.py").is_file():
        print(f"error: no pisim sources under {SRC}; run from a pisim checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    env["reference_loop_s_start"] = speed.reference_loop()
    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        # The first probe also writes the bytecode caches; it is not timed.
        probes = [run_child([str(HERE / "probe.py")], deadline)
                  for _ in range(SETUP_PROBES + 1)][1:]
        work = run_child([str(HERE / "worker.py"), "--workload", args.workload,
                          "--seed", str(args.seed), "--seconds", str(args.seconds),
                          "--trace", str(args.trace), "--out", str(out_dir)], deadline)
        spans_file = None
        if args.trace:
            spans_file = out_dir.parent / f"spans-{args.workload}-seed{args.seed}.jsonl"
            shutil.move(out_dir / "spans.jsonl", spans_file)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    env["backend"] = work["backend"]
    env["loadavg_end"] = os.getloadavg()
    env["reference_loop_s_end"] = speed.reference_loop()

    def median_of(key: str) -> float:
        return statistics.median(p[key] for p in probes)

    walls, cpus, ref_cpus = work["walls"], work["cpus"], work["ref_cpus"]
    sweep = args.workload in SWEEPS
    if args.trace:
        metrics = {k: median_of(k) for k in PER_LAYER_UNITS if k.startswith("import.")}
        metrics["costmodel.calibrate_s"] = median_of("costmodel.calibrate_s")
        metrics["costmodel.phase_costs_ms"] = median_of("costmodel.phase_costs_ms")
        metrics["costmodel.worst_residual"] = probes[-1]["costmodel.worst_residual"]
        metrics["desim.requests"] = work["work"] if sweep else 0
        metrics["desim.completed"] = work["completed"] if sweep else 0
        metrics.update(work["layers"])
        totals = work.get("transcript_totals", {})
        for key in ("offline.c2s", "offline.s2c", "online.c2s", "online.s2c"):
            metrics["protocol.bytes." + key] = totals.get(key, 0)
        metrics["protocol.model_delta_bytes"] = work.get("model_delta_bytes", 0)
        metrics["cli.wall_s"] = statistics.median(walls)
        units = PER_LAYER_UNITS
        metrics = {k: metrics[k] for k in units}
    else:
        metrics = {
            "setup_s": median_of("setup_s"),
            "cpu_ref_s": statistics.median(ref_cpus),
            "throughput_per_s": statistics.median(work["work"] / c for c in ref_cpus),
            "peak_rss_mb": work["peak_rss_mb"],
        }
        units = END_TO_END_UNITS

    attempted, failed = work["attempted"], work["failed"]
    rate_name = "sim_req_per_s" if sweep else "inferences_per_s"
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {work['work']} "
          f"{'simulated requests' if sweep else 'masked inferences'} per pass")
    print("  untraced pass walls s: " + " ".join(f"{w:.4f}" for w in walls))
    print("  untraced pass cpus s:  " + " ".join(f"{c:.4f}" for c in cpus))
    print("  reference loops s:     " + " ".join(f"{r:.4f}" for r in work["references"]))
    print("  untraced pass cpu_ref s: " + " ".join(f"{c:.4f}" for c in ref_cpus))
    print("  setup probes cpu s: " + " ".join(f"{p['setup_cpu_s']:.4f}" for p in probes))
    print("  setup probes cpu_ref s: " + " ".join(f"{p['setup_s']:.4f}" for p in probes))
    for name, value in metrics.items():
        alias = f"  ({rate_name})" if name == "throughput_per_s" else ""
        print(f"  {name:<28} {value:>16.6g} {units[name]}{alias}")
    print(f"  {'wall_s':<28} {statistics.median(walls):>16.6g} s  (median pass wall time; "
          "not in the result line, see README)")
    print(f"  {'fail_frac':<28} {failed / attempted:>16.6g} ({failed}/{attempted} checked ops)")
    for msg in work["messages"]:
        print(f"  check failed: {msg}")
    for protocol, rows in work.get("label_bytes", {}).items():
        print(f"{protocol} transcript bytes by phase, direction, label:")
        for phase, direction, label, nbytes in rows:
            print(f"  {phase:<8} {direction} {label:<16} {nbytes:>10}")
    if spans_file is not None:
        print(f"spans: {spans_file.relative_to(ROOT)}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
