"""Command-line interface: exit codes, spec handling, output files."""

import csv
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pisim.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_UNKNOWN,
    ExperimentSpec,
    SpecError,
    apply_spec_pairs,
    build_parser,
    main,
    parse_experiment,
    shipped_experiments,
)
from pisim.desim import SWEEP_COLUMNS

REPO = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    return main(list(argv))


# --- cost -------------------------------------------------------------------


def test_cost_table_output(capsys):
    assert run_cli("cost", "--model", "resnet32", "--dataset", "cifar100",
                   "--protocol", "sg") == EXIT_OK
    out = capsys.readouterr().out
    assert "offline latency       115.200 s" in out
    assert "online latency        9.400 s" in out
    assert "held by client" in out


def test_cost_cg_holds_gc_on_server(capsys):
    assert run_cli("cost", "--model", "resnet18", "--dataset", "tiny",
                   "--protocol", "cg") == EXIT_OK
    out = capsys.readouterr().out
    assert "offline latency       1549.100 s" in out
    assert "held by server" in out


def test_cost_knobs_need_component_mode(capsys):
    rc = run_cli("cost", "--model", "resnet18", "--dataset", "tiny",
                 "--protocol", "sg", "--knobs", "relu=0.2", "--mode", "component")
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "gc storage            7.796 GB" in out


def test_cost_unknown_model(capsys):
    assert run_cli("cost", "--model", "alexnet") == EXIT_UNKNOWN
    err = capsys.readouterr().err
    assert "alexnet" in err and "resnet32" in err


def test_cost_unknown_knobs(capsys):
    rc = run_cli("cost", "--model", "resnet32", "--knobs", "wishful",
                 "--mode", "component")
    assert rc == EXIT_UNKNOWN
    assert "wishful" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--bandwidth", "0"],
        ["--bandwidth", "-5"],
        ["--bandwidth", "nan"],
        ["--knobs", "relu=0"],
        ["--knobs", "relu=nan"],
        ["--knobs", "relu=abc"],
        ["--mode", "table", "--knobs", "relu=0.5"],
        ["--protocol", "xx"],
    ],
    ids=" ".join,
)
def test_cost_bad_input_exits_2(argv, capsys):
    assert run_cli("cost", *argv) == EXIT_UNKNOWN
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_cli_imports_no_scipy_or_numba():
    code = (
        "import sys, pisim.cli; pisim.cli.load_shipped_model(); "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'numba'}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# --- experiment specs -------------------------------------------------------


def test_parse_experiment_roundtrip(tmp_path):
    text = """
    # demo spec
    name = demo
    model = resnet18
    dataset = tiny
    protocols = cg
    rates = 1e-3, 2e-3
    client_capacity_gb = none
    concurrency = pipelined
    horizon_s = 3600
    n_runs = 2
    """
    spec = parse_experiment(text)
    assert spec.model == "resnet18"
    assert spec.dataset == "tinyimagenet"
    assert spec.rates == (1e-3, 2e-3)
    assert spec.client_capacity_gb == (float("inf"),)
    assert spec.n_runs == 2


def test_unknown_spec_key_lists_known():
    with pytest.raises(SpecError) as exc:
        parse_experiment("frobnicate = 3\n")
    assert "frobnicate" in str(exc.value)
    assert "horizon_s" in str(exc.value)


def test_apply_spec_pairs_overrides():
    base = ExperimentSpec()
    spec = apply_spec_pairs(base, [("rates", "5e-3"), ("n_runs", "7")])
    assert spec.rates == (5e-3,)
    assert spec.n_runs == 7


def test_shipped_experiments_present():
    names = shipped_experiments()
    assert "fig4_c100" in names
    assert "fig5_tiny" in names


def test_bad_spec_file_is_unknown(tmp_path, capsys):
    p = tmp_path / "x.exp"
    p.write_text("model resnet32\n")
    assert run_cli("simulate", str(p)) == EXIT_UNKNOWN


def test_missing_spec_name(capsys):
    assert run_cli("simulate", "@nope") == EXIT_UNKNOWN


# --- simulate ---------------------------------------------------------------


def test_simulate_summary_and_csv(tmp_path, capsys):
    rc = run_cli(
        "simulate", "--model", "resnet32", "--dataset", "cifar100",
        "--protocols", "cg", "--rates", "0.001", "--capacities", "8",
        "--concurrency", "pipelined", "--runs", "2", "--horizon", "30000",
        "--out", str(tmp_path), "--name", "demo",
    )
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "mean latency" in out and "saturated=false" in out
    rows = list(csv.DictReader((tmp_path / "demo.csv").open()))
    assert len(rows) == 1
    assert rows[0]["protocol"] == "cg"
    assert rows[0]["feasible"] == "true"


def test_simulate_infeasible_exit(tmp_path, capsys):
    args = [
        "simulate", "--model", "resnet18", "--dataset", "cifar100",
        "--protocols", "sg", "--rates", "0.001", "--capacities", "8",
        "--concurrency", "serial", "--runs", "1", "--horizon", "10000",
        "--out", str(tmp_path),
    ]
    assert run_cli(*args) == EXIT_INFEASIBLE
    assert "bundle" in capsys.readouterr().err
    assert run_cli(*args, "--allow-infeasible") == EXIT_OK


def test_simulate_json_output(tmp_path, capsys):
    rc = run_cli(
        "simulate", "--model", "resnet32", "--dataset", "cifar100",
        "--protocols", "sg", "--rates", "0.0001", "--runs", "1",
        "--horizon", "30000", "--formats", "json", "--out", str(tmp_path),
        "--name", "j",
    )
    assert rc == EXIT_OK
    data = json.loads((tmp_path / "j.json").read_text())
    assert isinstance(data, list) and data[0]["protocol"] == "sg"
    assert set(data[0]) == set(SWEEP_COLUMNS)


def test_simulate_deterministic(tmp_path):
    outs = []
    for d in ("a", "b"):
        sub = tmp_path / d
        sub.mkdir()
        rc = run_cli(
            "simulate", "--model", "resnet32", "--dataset", "cifar100",
            "--protocols", "cg", "--rates", "0.002", "--runs", "2",
            "--horizon", "30000", "--concurrency", "pipelined",
            "--out", str(sub), "--name", "same",
        )
        assert rc == EXIT_OK
        outs.append((sub / "same.csv").read_bytes())
    assert outs[0] == outs[1]


# --- sweep ------------------------------------------------------------------


def test_sweep_shipped_spec_reduced(tmp_path):
    rc = run_cli(
        "sweep", "@fig4_c100", "--profile", "ci",
        "--set", "rates=1e-4,1e-2", "--set", "n_runs=2",
        "--set", "horizon_s=20000", "--out", str(tmp_path),
    )
    assert rc == EXIT_OK
    rows = list(csv.DictReader((tmp_path / "fig4_c100.csv").open()))
    # 2 protocols x 2 capacities x 2 rates
    assert len(rows) == 8
    header = (tmp_path / "fig4_c100.csv").read_text().splitlines()[0]
    assert header == ",".join(SWEEP_COLUMNS)
    sg8_fast = [
        r for r in rows
        if r["protocol"] == "sg" and r["client_capacity_bytes"] == "8e+09"
        and r["arrival_rate"] == "0.01"
    ]
    assert sg8_fast and sg8_fast[0]["saturated"] == "true"


def test_sweep_all_infeasible_exit(tmp_path, capsys):
    rc = run_cli(
        "sweep", "--model", "resnet18", "--dataset", "tiny",
        "--protocols", "sg", "--rates", "1e-3", "--capacities", "1",
        "--runs", "1", "--horizon", "5000", "--out", str(tmp_path),
    )
    assert rc == EXIT_INFEASIBLE


# --- verify -----------------------------------------------------------------


def test_verify_pass(capsys):
    rc = run_cli("verify", "--model", "toy_cnn", "--dataset", "cifar100",
                 "--trials", "2")
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "sg: pass (2/2 trials exact)" in out
    assert "cg: pass (2/2 trials exact)" in out
    assert "offline c2s +0, s2c +0" in out


def test_verify_guard_blocks_large(capsys):
    rc = run_cli("verify", "--model", "resnet32", "--dataset", "cifar100",
                 "--trials", "1")
    assert rc == EXIT_UNKNOWN
    assert "--force" in capsys.readouterr().err


def test_verify_field_overflow_is_infeasible(capsys):
    rc = run_cli("verify", "--model", "resnet32", "--dataset", "toy8",
                 "--force", "--trials", "1")
    assert rc == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("error: layer 12 (conv)")
    assert "Traceback" not in err


def test_verify_zero_trials(capsys):
    rc = run_cli("verify", "--model", "toy_cnn", "--trials", "0")
    assert rc == EXIT_OK
    assert "nothing verified" in capsys.readouterr().out


# --- arch check -------------------------------------------------------------


def test_arch_check_shipped(capsys):
    path = REPO / "src" / "pisim" / "configs" / "archs" / "resnet32.arch"
    assert run_cli("arch", "check", str(path)) == EXIT_OK
    out = capsys.readouterr().out
    assert "relus" in out and "303,104" in out and out.strip().endswith("ok")


def test_arch_check_bad_file(tmp_path, capsys):
    p = tmp_path / "bad.arch"
    p.write_text("name x\nconv in=3 out=4 kernel=3\n")
    assert run_cli("arch", "check", str(p)) == EXIT_UNKNOWN


# --- console entry point ----------------------------------------------------


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "pisim", "cost", "--model", "vgg16",
         "--dataset", "cifar100", "--protocol", "cg"],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_OK
    assert "289.900 s" in proc.stdout


def test_exit_code_on_unknown_subapproach():
    proc = subprocess.run(
        [sys.executable, "-m", "pisim", "dance"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


# --- documentation sync -----------------------------------------------------


def _parser_option_strings():
    opts = set()

    def walk(parser):
        for action in parser._actions:
            opts.update(action.option_strings)
            if hasattr(action, "choices") and isinstance(action.choices, dict):
                for sub in action.choices.values():
                    walk(sub)

    walk(build_parser())
    return opts


def test_readme_flags_exist():
    known = _parser_option_strings()
    text = (REPO / "README.md").read_text()
    documented = set(re.findall(r"`(--[a-z][a-z-]*)", text))
    unknown = documented - known
    assert not unknown, f"README documents flags the parser lacks: {sorted(unknown)}"


def test_readme_commands_run():
    known = {"cost", "simulate", "sweep", "verify", "arch"}
    text = (REPO / "README.md").read_text()
    for cmd in re.findall(r"pisim (\w+)", text):
        assert cmd in known or cmd == "cli", cmd
