"""Benchmark a base commit against the working tree in alternating pairs.

    python3 scripts/bench_pair.py --base REV --pairs 10 --seconds 45 --out BENCH_<slug>.json

Exports REV with `git archive` into a temporary directory (removed at the
end) and copies the working tree beside it without `.git` and `__pycache__`,
so neither side starts from bytecode the other lacks. Then for each workload of BENCHMARK.json runs --pairs pairs of
`perfbench/run.py --trace 0`, one run in each tree at the pair's seed,
alternating which side runs first. Each run uses its own tree's perfbench.
For every end-to-end metric the output holds both sides' medians and
interquartile ranges, each run's value, and the pairs the change won
(ties count for neither side); it also holds failed counts, the base
commit, the working tree's HEAD and whether it has uncommitted changes,
and each side's first environment line (whose src_sha256 names the
sources that ran).

Each run starts in its own session. If the script stops, by an error, a
timeout, Ctrl-C or SIGTERM, it kills the current run's process group,
perfbench worker included, and removes the temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NOTES = [
    "sweep throughput_per_s counts the CSV's arrived column: 499,900 requests "
    "while the engine simulates 249,950",
    "traced runs only: desim.schedule_s reads 0, protocol.recv_wait_s times only the "
    "creation of a generator, protocol.compile_ms reads 0 on a warm cache",
    "traced sweeps only: desim.aggregate_s reads 0, since run_points hands its groups to "
    "engine.run_group and calls neither sweep_point nor run_many",
]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its result line plus its env line, or an error."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    with subprocess.Popen(argv, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=600)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {stderr[-500:]}"}
    result = json.loads(lines[-1])
    result["env"] = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
    return result


def summary(base: list[dict], change: list[dict], metric: dict) -> dict:
    """One end-to-end metric over the pairs in which both runs succeeded."""
    name = metric["name"]
    pairs = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
             for b, c in zip(base, change) if "error" not in b and "error" not in c]
    out = {"unit": metric["unit"], "better": metric["better"], "pairs": len(pairs)}
    if len(pairs) < 2:
        return out
    for label, values in (("base", [b for b, _ in pairs]), ("change", [c for _, c in pairs])):
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[label] = {"median": statistics.median(values), "iqr": q3 - q1, "runs": values}
    sign = -1 if metric["better"] == "lower" else 1
    out["change_wins"] = sum(1 for b, c in pairs if sign * (c - b) > 0)
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
           "pairs": args.pairs, "seconds": args.seconds, "notes": NOTES, "workloads": {}}
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
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
