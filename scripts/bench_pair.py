"""Benchmark a base commit against the working tree in alternating pairs.

    python3 scripts/bench_pair.py --base REV --pairs 10 --seconds 45 --out BENCH_<slug>.json

Exports REV with `git archive` into a temporary directory (removed at the
end) and copies the working tree beside it without `.git` and `__pycache__`,
so neither side starts from bytecode the other lacks. Then for each
workload of BENCHMARK.json runs --pairs pairs of `perfbench/run.py
--trace 0`, one run in each tree at the pair's seed, alternating which
side runs first. Each run uses its own tree's perfbench.
For every end-to-end metric the output holds both sides' medians and
interquartile ranges, each run's value, and the pairs the change won
(ties count for neither side); it also holds failed counts, the base
commit, the working tree's HEAD and whether it has uncommitted changes,
and each side's first environment line (whose src_sha256 names the
sources that ran).

Then a fresh-process stage times what users wait for: --pairs pairs of
each FRESH command, `python -c pass` as the floor, perfbench's set-up
probe path as `startup` and fresh `python -m pisim ...` runs, base and
change interleaved, command by command, with the same alternating order.
Each side first runs every command once untimed, so both start from
their own compiled bytecode: the fresh runs' environment drops
PYTHONDONTWRITEBYTECODE, under which that run would write none and every
timed run would compile src/ again. The perfbench runs keep the
environment they inherit, as the benchmark runs them; `bytecode` in the
output records which setting each stage ran with. Every fresh run has
OPENBLAS_NUM_THREADS=1, its tree's src/ on PYTHONPATH and a new
temporary directory as its working directory, where sweeps write their
CSVs. Wall time comes from time.perf_counter and CPU time from the
change in resource.getrusage(RUSAGE_CHILDREN). Under `fresh` the output
holds, per command, both sides' medians, interquartile ranges and runs
of wall_s and cpu_s, the pairs the change won, and each pair whose
stdout or output files differ byte for byte (listed under `differs`).

Each run starts in its own session. If the script stops, by an error, a
timeout, Ctrl-C or SIGTERM, it kills the current run's process group,
perfbench worker included, and removes the temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NOTES = [
    "sweep throughput_per_s counts the CSV's arrived column: 499,900 requests "
    "while the engine simulates 249,950",
    "traced runs only: desim.schedule_s reads 0, protocol.recv_wait_s times only the "
    "creation of a generator, protocol.compile_ms reads 0 on a warm cache",
    "traced sweeps only: desim.aggregate_s reads 0, since run_points hands a seed range's "
    "feasible points to one engine.run_group call and calls sweep_point, and so run_many, "
    "only for an infeasible point, of which fig4 has none",
]


# name: the interpreter's arguments
FRESH = {
    "floor": ["-c", "pass"],
    # the path of perfbench's set-up probe: start-up and the cost model's load
    "startup": ["-c", "import pisim.cli; pisim.cli.load_shipped_model()"],
    "cost": ["-m", "pisim", "cost"],
    # the serial config of output_digest.py's blocks group: five blocks of runs
    "simulate": ["-m", "pisim", "simulate", "--rates", "0.5", "--horizon", "86400",
                 "--runs", "100", "--concurrency", "serial"],
    "sweep_fig4": ["-m", "pisim", "sweep", "@fig4_c100", "--jobs", "1"],
    "sweep_fig5": ["-m", "pisim", "sweep", "@fig5_tiny", "--jobs", "1"],
    "verify": ["-m", "pisim", "verify", "--trials", "100"],
}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def communicate(argv: list[str], cwd: Path, env: dict | None = None) -> tuple:
    """Run argv in its own session; returns (exit code, stdout, stderr) as
    bytes. Kills the session's process group if the wait is cut short."""
    with subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=600)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            raise
    return proc.returncode, stdout, stderr


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its result line plus its env line, or an error."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    code, stdout, stderr = communicate(argv, tree)
    stdout, stderr = stdout.decode(), stderr.decode(errors="replace")
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        return {"error": f"exit {code}: {stderr[-500:]}"}
    result = json.loads(lines[-1])
    result["env"] = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
    return result


def summary(base: list[dict], change: list[dict], metric: dict) -> dict:
    """One end-to-end metric over the pairs in which both runs succeeded."""
    name = metric["name"]
    pairs = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
             for b, c in zip(base, change) if "error" not in b and "error" not in c]
    out = {"unit": metric["unit"], "better": metric["better"], "pairs": len(pairs)}
    return out | compare(pairs, metric["better"])


def compare(pairs: list[tuple[float, float]], better: str) -> dict:
    """Both sides' median, interquartile range and values over (base,
    change) pairs, and the pairs the change won; empty below two pairs."""
    if len(pairs) < 2:
        return {}
    out = {}
    for label, values in (("base", [b for b, _ in pairs]), ("change", [c for _, c in pairs])):
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[label] = {"median": statistics.median(values), "iqr": q3 - q1, "runs": values}
    sign = -1 if better == "lower" else 1
    out["change_wins"] = sum(1 for b, c in pairs if sign * (c - b) > 0)
    return out


def fresh_run(tree: Path, args: list[str]) -> dict:
    """One fresh interpreter in a new working directory: wall and CPU
    seconds, and its stdout and output files (by relative path), or an
    error."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env |= {"OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(tree / "src")}
    with tempfile.TemporaryDirectory() as cwd:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        code, stdout, stderr = communicate([sys.executable, *args], Path(cwd), env)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if code != 0:
            return {"error": f"exit {code}: {stderr.decode(errors='replace')[-500:]}"}
        files = {str(f.relative_to(cwd)): f.read_bytes()
                 for f in sorted(Path(cwd).rglob("*")) if f.is_file()}
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {"wall_s": wall, "cpu_s": cpu, "stdout": stdout, "files": files}


def fresh(base_tree: Path, change_tree: Path, pairs: int) -> dict:
    """The fresh-process stage (see the module docstring)."""
    trees = [("base", base_tree), ("change", change_tree)]
    for (_, tree), args in itertools.product(trees, FRESH.values()):
        fresh_run(tree, args)  # untimed: writes each tree's bytecode
    runs = {name: [] for name in FRESH}
    for i in range(pairs):
        for name, args in FRESH.items():
            pair = {}
            for side, tree in trees if i % 2 == 0 else trees[::-1]:
                pair[side] = fresh_run(tree, args)
            runs[name].append(pair)
        print("fresh", i + 1, flush=True)
    out = {}
    for name, pair_runs in runs.items():
        ok = [(i, p) for i, p in enumerate(pair_runs, 1)
              if "error" not in p["base"] and "error" not in p["change"]]
        out[name] = {
            "argv": ["python", *FRESH[name]],
            "errors": [r["error"] for p in pair_runs for r in p.values() if "error" in r],
            "differs": [i for i, p in ok if (p["base"]["stdout"], p["base"]["files"])
                        != (p["change"]["stdout"], p["change"]["files"])],
            **{metric: compare([(p["base"][metric], p["change"][metric]) for _, p in ok],
                               "lower")
               for metric in ("wall_s", "cpu_s")},
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    # SystemExit unwinds through run() and the TemporaryDirectory below
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {"base": {"rev": args.base, "commit": git("rev-parse", args.base)},
           "change": {"head": git("rev-parse", "HEAD"),
                      "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))},
           "pairs": args.pairs, "seconds": args.seconds, "notes": NOTES,
           # PYTHONDONTWRITEBYTECODE as each stage's runs saw it
           "bytecode": {"perfbench": os.environ.get("PYTHONDONTWRITEBYTECODE"), "fresh": None},
           "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        base_tree, change_tree = Path(tmp, "base"), Path(tmp, "change")
        shutil.copytree(ROOT, change_tree, ignore=shutil.ignore_patterns(".git", "__pycache__"))
        archive = subprocess.run(["git", "archive", out["base"]["commit"]], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(base_tree, filter="data")
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {"base": [], "change": []}
            for i in range(args.pairs):
                order = [("base", base_tree), ("change", change_tree)]
                for side, tree in order if i % 2 == 0 else order[::-1]:
                    runs[side].append(run(tree, workload, i + 1, args.seconds))
                    print(workload, i + 1, side, runs[side][-1].get("error", "ok"), flush=True)
            ok = {s: [r for r in rs if "error" not in r] for s, rs in runs.items()}
            out["workloads"][workload] = {
                "failed": {s: sum(r["failed"] for r in ok[s]) for s in runs},
                "attempted": {s: sum(r["attempted"] for r in ok[s]) for s in runs},
                "errors": {s: [r["error"] for r in rs if "error" in r] for s, rs in runs.items()},
                "env": {s: ok[s][0]["env"] if ok[s] else None for s in runs},
                "metrics": {m["name"]: summary(runs["base"], runs["change"], m)
                            for m in spec["end_to_end"]},
            }
        out["fresh"] = fresh(base_tree, change_tree, args.pairs)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
