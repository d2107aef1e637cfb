"""Self-test of the benchmark's output checks: fail_frac is 0 on correct
outputs and rises above 0 when a reference row or a transcript delta is
corrupted.

    python3 -m pytest perfbench/test_perfbench.py
"""

import copy
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402

SWEEP = checks.REFERENCE_DIR / "fig4_c100.csv"
GOOD_VERIFY = """\
sg: pass (100/100 trials exact)
cg: pass (100/100 trials exact)
sg transcript vs cost model (bytes): offline c2s +0, s2c +0; online c2s +0, s2c +0
cg transcript vs cost model (bytes): offline c2s +0, s2c +0; online c2s +0, s2c +0
"""


def _rows():
    return checks.read_rows(SWEEP)


def test_reference_matches_itself():
    rows = _rows()
    assert checks.check_sweep(rows, rows, checks.REFERENCE_SEED)[:2] == (len(rows), 0)


def test_last_digit_of_6g_is_tolerated_and_two_units_are_not():
    assert checks.same_6g("125.613", "125.612")
    assert checks.same_6g("0.621154", "0.621155")
    assert not checks.same_6g("125.614", "125.612")
    assert not checks.same_6g("nan", "125.612")
    assert checks.same_6g("inf", "inf")


def test_corrupted_reference_row_fails():
    rows = _rows()
    bad = copy.deepcopy(rows)
    bad[3]["completed"] = str(int(bad[3]["completed"]) - 1)
    attempted, failed, messages = checks.check_sweep(rows, bad, checks.REFERENCE_SEED)
    assert failed == 1 and attempted == len(rows)
    assert "completed" in messages[0]


def test_missing_and_extra_rows_fail():
    rows = _rows()
    assert checks.check_sweep(rows[:-2], rows, checks.REFERENCE_SEED)[:2] == (len(rows), 2)
    assert checks.check_sweep(rows + rows[:1], rows, seed=7)[:2] == (len(rows) + 1, 1)


def test_float_column_off_by_two_units_fails():
    rows = _rows()
    bad = copy.deepcopy(rows)
    bad[0]["mean_latency_s"] = format(float(bad[0]["mean_latency_s"]) + 0.002, ".6g")
    assert checks.check_sweep(rows, bad, checks.REFERENCE_SEED)[1] == 1


def test_other_seeds_compare_only_seed_free_columns():
    rows = _rows()
    other = copy.deepcopy(rows)
    for row in other:
        row["mean_latency_s"] = format(float(row["mean_latency_s"]) * 1.01, ".6g")
    assert checks.check_sweep(other, rows, seed=7)[1] == 0
    other[0]["offline_latency_s"] = "999"
    assert checks.check_sweep(other, rows, seed=7)[1] == 1


def test_invariants_catch_protocols_disagreeing_on_arrivals():
    rows = _rows()
    broken = copy.deepcopy(rows)
    broken[0]["arrived"] = str(int(broken[0]["arrived"]) + 1)
    # Row 0 shares its rate with every other row at that rate, so each of
    # them now sees two arrival counts.
    rate = rows[0]["arrival_rate"]
    same_rate = sum(1 for r in rows if r["arrival_rate"] == rate)
    assert checks.check_sweep(broken, rows, seed=7)[1] == same_rate


def test_invariants_catch_completed_above_arrived():
    rows = _rows()
    broken = copy.deepcopy(rows)
    broken[5]["completed"] = str(int(broken[5]["arrived"]) + 1)
    assert checks.check_sweep(broken, rows, seed=7)[1] == 1


def test_verify_output_all_exact():
    assert checks.check_verify_output(GOOD_VERIFY, ("sg", "cg"), 100) == (208, 0, [])


def test_corrupted_transcript_delta_fails():
    bad = GOOD_VERIFY.replace("online c2s +0, s2c +0\ncg", "online c2s +8, s2c +0\ncg")
    attempted, failed, messages = checks.check_verify_output(bad, ("sg", "cg"), 100)
    assert (attempted, failed) == (208, 1)
    assert "sg" in messages[0]


def test_inexact_trials_and_missing_lines_fail():
    bad = GOOD_VERIFY.replace("cg: pass (100/100", "cg: FAIL (97/100")
    assert checks.check_verify_output(bad, ("sg", "cg"), 100)[1] == 3
    assert checks.check_verify_output("", ("sg", "cg"), 100)[1] == 208


def test_label_table_reconciles_with_model():
    class Event:
        def __init__(self, phase, direction, label, nbytes):
            self.phase, self.direction, self.label, self.nbytes = phase, direction, label, nbytes

    events = [Event("offline", "c2s", "setup", 10), Event("offline", "c2s", "point0", 5),
              Event("offline", "c2s", "point0", 5), Event("online", "s2c", "input", 7)]
    table = checks.label_byte_table(events)
    assert table[("offline", "c2s", "point0")] == 10
    model = {("offline", "c2s"): 20, ("online", "s2c"): 7}
    assert checks.reconcile_table(table, model)[:2] == (2, 0)
    model[("online", "s2c")] = 8
    attempted, failed, _, deltas = checks.reconcile_table(table, model)
    assert (attempted, failed, deltas[("online", "s2c")]) == (2, 1, -1)


def test_benchmark_json_lists_the_metrics_run_py_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
