"""Output checks for the benchmark workloads.

A checked operation is one sweep row, one verify trial or one
transcript-vs-model byte comparison. Each check returns
(attempted, failed, messages) so the caller can sum them into fail_frac.
"""

from __future__ import annotations

import csv
import math
import re
from collections import defaultdict
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# The seed written in the shipped experiment specs; the committed
# reference rows were produced at it.
REFERENCE_SEED = 0

INT_COLUMNS = {"n_runs", "arrived", "completed", "peak_client_storage_bytes",
               "peak_server_storage_bytes"}
TEXT_COLUMNS = {"protocol", "model", "dataset", "concurrency", "feasible", "saturated",
                "failure"}
# Columns fixed by the spec and the cost model alone; they match the
# reference whatever the seed.
SEED_FREE_COLUMNS = ["protocol", "model", "dataset", "concurrency", "arrival_rate", "n_runs",
                     "horizon_s", "client_capacity_bytes", "server_capacity_bytes",
                     "offline_latency_s", "online_latency_s", "stability_limit", "feasible",
                     "saturated", "failure"]


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def same_6g(got: str, want: str) -> bool:
    """Equal up to one unit in the sixth significant digit of `want`."""
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    if b == 0.0:
        return a == 0.0
    unit = 10.0 ** (math.floor(math.log10(abs(b))) - 5)
    return abs(a - b) <= unit * (1 + 1e-9)


def _cell_ok(column: str, got: str, want: str) -> bool:
    if column in INT_COLUMNS or column in TEXT_COLUMNS:
        return got == want
    return same_6g(got, want)


def _row_invariants(row: dict[str, str], arrived_by_rate: dict[str, set[str]]) -> list[str]:
    problems = []
    if len(arrived_by_rate[row["arrival_rate"]]) != 1:
        problems.append(f"rate {row['arrival_rate']}: protocols disagree on arrived")
    if int(row["completed"]) > int(row["arrived"]):
        problems.append("completed > arrived")
    if row["feasible"] == "true":
        mean, online = float(row["mean_latency_s"]), float(row["online_latency_s"])
        if not mean >= online:
            problems.append(f"mean_latency_s {mean} < online_latency_s {online}")
    return problems


def check_sweep(rows: list[dict[str, str]], reference: list[dict[str, str]], seed: int):
    """Every row against the reference (all columns at the reference seed,
    seed-free columns otherwise) and against invariants that need none."""
    messages = []
    if len(rows) != len(reference):
        messages.append(f"expected {len(reference)} rows, got {len(rows)}")
    columns = list(reference[0]) if seed == REFERENCE_SEED else SEED_FREE_COLUMNS
    arrived_by_rate: dict[str, set[str]] = defaultdict(set)
    for row in rows:
        arrived_by_rate[row["arrival_rate"]].add(row["arrived"])
    failed = max(0, len(rows) - len(reference))
    for i, want in enumerate(reference):
        if i >= len(rows):
            failed += 1
            continue
        got = rows[i]
        problems = [f"{c}: {got.get(c)!r} != reference {want[c]!r}"
                    for c in columns if not _cell_ok(c, got.get(c, ""), want[c])]
        problems += _row_invariants(got, arrived_by_rate)
        if problems:
            failed += 1
            messages.append(f"row {i}: " + "; ".join(problems))
    return max(len(rows), len(reference)), failed, messages


_TRIALS = re.compile(r"^(\w+): (?:pass|FAIL) \((\d+)/(\d+) trials exact\)$")
_DELTAS = re.compile(
    r"^(\w+) transcript vs cost model \(bytes\): offline c2s ([+-]\d+), s2c ([+-]\d+); "
    r"online c2s ([+-]\d+), s2c ([+-]\d+)$"
)


def check_verify_output(text: str, protocols: tuple[str, ...], trials: int):
    """Parse `pisim verify` stdout: every trial exact, every byte delta +0."""
    exact: dict[str, int] = {}
    deltas: dict[str, list[int]] = {}
    for line in text.splitlines():
        if m := _TRIALS.match(line):
            exact[m[1]] = int(m[2]) if int(m[3]) == trials else 0
        elif m := _DELTAS.match(line):
            deltas[m[1]] = [int(v) for v in m.groups()[1:]]
    attempted = failed = 0
    messages = []
    for proto in protocols:
        attempted += trials + 4
        ok_trials = exact.get(proto, 0)
        # A missing report line fails all four of its byte comparisons.
        bad_deltas = [d for d in deltas.get(proto, [1, 1, 1, 1]) if d != 0]
        failed += (trials - ok_trials) + len(bad_deltas)
        if ok_trials != trials:
            messages.append(f"{proto}: {ok_trials}/{trials} trials exact")
        if bad_deltas:
            messages.append(f"{proto}: transcript deltas {deltas.get(proto)}")
    return attempted, failed, messages


def label_byte_table(events) -> dict[tuple[str, str, str], int]:
    """(phase, direction, label) -> bytes, from Transcript.events."""
    table: dict[tuple[str, str, str], int] = defaultdict(int)
    for e in events:
        table[(e.phase, e.direction, e.label)] += e.nbytes
    return dict(table)


def reconcile_table(table: dict[tuple[str, str, str], int], model: dict[tuple[str, str], int]):
    """Each (phase, direction) sum of the label table against the cost model."""
    sums: dict[tuple[str, str], int] = defaultdict(int)
    for (phase, direction, _), nbytes in table.items():
        sums[(phase, direction)] += nbytes
    deltas = {key: sums.get(key, 0) - want for key, want in model.items()}
    failed = sum(1 for d in deltas.values() if d != 0)
    messages = [f"{p} {d}: transcript - model = {v:+d}" for (p, d), v in deltas.items() if v]
    return len(model), failed, messages, deltas
