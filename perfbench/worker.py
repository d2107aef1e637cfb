"""One workload process: call pisim.cli.main with a user's argv, pass after
pass, time each pass in wall and in process CPU seconds, check its outputs,
and print one JSON result line.

Usage: worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR

With --trace 1 the first pass runs untraced and the rest run with layer
spans installed (see tracing.py); per-layer metrics are medians over the
traced passes, and the last traced pass's spans are written to
DIR/spans.jsonl at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import asdict
from pathlib import Path

import checks
import speed
import tracing

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
PROTOCOLS = ("sg", "cg")

WORKLOADS = {
    "sweep_serial": {"spec": "fig4_c100"},
    "verify_toy": {"model": "toy_cnn", "dataset": "cifar100", "trials": 100},
}


def workload_argv(name: str, seed: int, out_dir: Path) -> list[str]:
    w = WORKLOADS[name]
    if "spec" in w:
        return ["sweep", "@" + w["spec"], "--jobs", "1", "--seed", str(seed), "--out", str(out_dir)]
    return ["verify", "--model", w["model"], "--dataset", w["dataset"],
            "--trials", str(w["trials"]), "--seed", str(seed)]


def run_pass(cli, argv: list[str]) -> tuple[int, float, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start, cpu_start = time.perf_counter(), time.process_time()
        rc = cli.main(argv)
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    return rc, wall, cpu, buf.getvalue()


def check_pass(name: str, seed: int, out_dir: Path, rc: int, stdout: str) -> dict:
    """Checked-operation counts plus the pass's work, in simulated requests
    (sweeps) or verified masked inferences (verify)."""
    w = WORKLOADS[name]
    if "spec" in w:
        rows = checks.read_rows(out_dir / f"{w['spec']}.csv")
        reference = checks.read_rows(checks.REFERENCE_DIR / f"{w['spec']}.csv")
        attempted, failed, messages = checks.check_sweep(rows, reference, seed)
        work = sum(int(r["arrived"]) for r in rows)
        completed = sum(int(r["completed"]) for r in rows)
    else:
        attempted, failed, messages = checks.check_verify_output(stdout, PROTOCOLS, w["trials"])
        work = completed = w["trials"] * len(PROTOCOLS)
    if rc != 0:
        messages.append(f"exit code {rc}")
        failed = max(failed, 1)
    return {"attempted": attempted, "failed": failed, "messages": messages,
            "work": work, "completed": completed}


def transcript_bytes(seed: int) -> dict:
    """Per-label byte table of one sg and one cg inference on the verify
    network, reconciled with costmodel.offline_comm / online_comm."""
    from pisim.costmodel import CommInputs, Protocol, offline_comm, online_comm
    from pisim.netarch import build_preset
    from pisim.protocol import run_offline, run_online, sample_input

    w = WORKLOADS["verify_toy"]
    arch = build_preset(w["model"], w["dataset"])
    inputs = CommInputs.from_arch(arch)
    out = {"attempted": 0, "failed": 0, "messages": [], "tables": {}, "totals": defaultdict(int),
           "abs_delta": 0}
    for short in PROTOCOLS:
        protocol = Protocol.parse(short)
        bundle = run_offline(arch, protocol, seed)
        run_online(bundle, sample_input(arch, seed))
        table = checks.label_byte_table(bundle.transcript.events)
        model = {}
        for phase, totals in (("offline", offline_comm(protocol, inputs)),
                              ("online", online_comm(protocol, inputs))):
            model[(phase, "c2s")] = totals.c2s_bytes
            model[(phase, "s2c")] = totals.s2c_bytes
        attempted, failed, messages, deltas = checks.reconcile_table(table, model)
        out["attempted"] += attempted
        out["failed"] += failed
        out["messages"] += [f"{short} label table: {m}" for m in messages]
        out["abs_delta"] += sum(abs(d) for d in deltas.values())
        for (phase, direction, _), nbytes in table.items():
            out["totals"][f"{phase}.{direction}"] += nbytes
        out["tables"][short] = [[p, d, label, n] for (p, d, label), n in sorted(table.items())]
    return out


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer: tracing.Tracer, wall: float, requests: int) -> dict[str, float]:
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    nbytes: dict[str, int] = defaultdict(int)
    durations: dict[str, list[float]] = defaultdict(list)
    self_times = tracer.self_times()
    root_s = 0.0
    for s in tracer.spans:
        total[s.name] += s.duration
        own[s.name] += self_times[s.id]
        calls[s.name] += 1
        nbytes[s.name] += s.nbytes
        durations[s.name].append(s.duration)
        if s.parent is None:
            root_s += s.duration
    kernels = [n for n in total if n.startswith("kernels.")]
    schedule_s = own["desim.simulate"]
    return {
        "desim.arrivals_s": total["desim.poisson_arrival_times"],
        "desim.schedule_s": schedule_s,
        "desim.schedule_us_per_req": schedule_s / requests * 1e6 if requests else 0.0,
        "desim.summarize_s": total["desim.summarize_run"],
        "desim.aggregate_s": own["desim.run_many"] + own["desim.sweep_point"],
        "desim.output_s": total["desim.write_sweep_csv"],
        "protocol.offline_ms.p50": _pct(durations["protocol.run_offline"], 0.50) * 1e3,
        "protocol.offline_ms.p95": _pct(durations["protocol.run_offline"], 0.95) * 1e3,
        "protocol.online_ms.p50": _pct(durations["protocol.run_online"], 0.50) * 1e3,
        "protocol.online_ms.p95": _pct(durations["protocol.run_online"], 0.95) * 1e3,
        "protocol.oracle_ms": total["protocol.plaintext_forward"] * 1e3,
        "protocol.weights_ms": total["protocol.gen_weights"] * 1e3,
        "protocol.compile_ms": total["protocol.compile_network"] * 1e3,
        "protocol.recv_wait_s": total["protocol.receive"],
        "protocol.messages": calls["protocol.receive"],
        "protocol.kernel_s": sum(total[n] for n in kernels),
        "protocol.kernel_calls": sum(calls[n] for n in kernels),
        "protocol.kernel_bytes": sum(nbytes[n] for n in kernels),
        "cli.self_s": wall - root_s,
        "cli.traced_wall_s": wall,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    import pisim._backend
    import pisim.cli as cli

    argv = workload_argv(args.workload, args.seed, args.out)
    start = time.perf_counter()
    walls, cpus, traced, counts = [], [], [], []
    references = [speed.reference_loop()]
    attempted = failed = 0
    messages: list[str] = []
    spans: list[tracing.Span] = []
    while True:
        tracer = None
        if args.trace and walls:
            tracer = tracing.Tracer()
            restore = tracing.install_layer_spans(tracer)
        try:
            rc, wall, cpu, stdout = run_pass(cli, argv)
        finally:
            if tracer is not None:
                restore()
        result = check_pass(args.workload, args.seed, args.out, rc, stdout)
        attempted += result["attempted"]
        failed += result["failed"]
        messages += result["messages"]
        counts.append((result["work"], result["completed"]))
        if tracer is None:
            walls.append(wall)
            cpus.append(cpu)
            references.append(speed.reference_loop())
        else:
            traced.append(layer_metrics(tracer, wall, result["work"]))
            spans = tracer.spans
        elapsed = time.perf_counter() - start
        last = traced[-1]["cli.traced_wall_s"] if traced else walls[-1]
        enough = len(traced) >= MIN_TRACED_PASSES if args.trace else len(walls) >= MIN_PASSES
        if enough and elapsed + last > args.seconds:
            break
    if len(set(counts)) != 1:
        failed += 1
        messages.append(f"work counts differ between passes: {sorted(set(counts))}")

    out = {
        "walls": walls,
        "cpus": cpus,
        "references": references,
        "ref_cpus": [speed.at_reference_speed(cpu, before, after)
                     for cpu, before, after in zip(cpus, references, references[1:])],
        "work": counts[-1][0],
        "completed": counts[-1][1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "backend": pisim._backend.BACKEND,
        "pisim_file": cli.__file__,
    }
    if args.workload == "verify_toy":
        table = transcript_bytes(args.seed)
        attempted += table["attempted"]
        failed += table["failed"]
        messages += table["messages"]
        out["label_bytes"] = table["tables"]
        out["transcript_totals"] = dict(table["totals"])
        out["model_delta_bytes"] = table["abs_delta"]
    if traced:
        out["layers"] = {k: statistics.median(p[k] for p in traced) for k in traced[0]}
        with open(args.out / "spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(asdict(s)) + "\n")
    out.update(attempted=attempted, failed=failed, messages=messages[:20])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
