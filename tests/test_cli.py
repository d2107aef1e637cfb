"""Command-line interface: exit codes, spec handling, output files."""

import csv
import dataclasses
import gc
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pisim.cli
from pisim.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_UNKNOWN,
    EXIT_VERIFY_FAILED,
    ExperimentSpec,
    SpecError,
    apply_spec_pairs,
    build_parser,
    main,
    parse_experiment,
    parse_knobs,
    shipped_experiments,
)
from pisim.desim import SWEEP_COLUMNS
from pisim.netarch import build_preset
from pisim.protocol import sample_input, verify

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
    assert '"' not in err


# Named and labelled like a measured row, but another network.
FAKE_RESNET32_ARCH = """name resnet32
input channels=3 height=32 width=32 classes=100 dataset=cifar100
conv in=3 out=2 kernel=3 pad=1
relu
flatten
fc in=2048 out=100
"""


def test_table_mode_replays_only_the_measured_network(tmp_path, capsys):
    path = tmp_path / "fake.arch"
    path.write_text(FAKE_RESNET32_ARCH)
    assert run_cli("cost", "--model", str(path)) == EXIT_UNKNOWN
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--mode component" in err
    assert run_cli("cost", "--model", str(path), "--mode", "component") == EXIT_OK


@pytest.mark.parametrize("model", ["resnet18", "resnet32", "vgg16"])
def test_a_shipped_arch_file_costs_as_its_preset(model, capsys):
    path = REPO / "src" / "pisim" / "configs" / "archs" / f"{model}.arch"
    for protocol in ("sg", "cg"):
        assert run_cli("cost", "--model", str(path), "--protocol", protocol) == EXIT_OK
        from_file = capsys.readouterr().out
        assert run_cli("cost", "--model", model, "--protocol", protocol) == EXIT_OK
        assert from_file == capsys.readouterr().out


@pytest.mark.parametrize("text", [None, "", "none", "None", "identity", " baseline "])
def test_identity_knob_spellings(text, tmp_path, monkeypatch):
    # naming no optimization reads no optimizations table, not even a bad one
    (tmp_path / "optimizations.tsv").write_text("name\tmodel\nx\ty\n")
    monkeypatch.setenv("PISIM_CONFIG_DIR", str(tmp_path))
    assert parse_knobs(text).is_identity


@pytest.mark.parametrize(
    "spelling, field",
    [
        ("relu", "relu_factor"),
        ("relu_factor", "relu_factor"),
        ("flop", "flop_factor"),
        ("flop_factor", "flop_factor"),
        ("gc", "gc_per_relu_factor"),
        ("gc_per_relu", "gc_per_relu_factor"),
        ("gc_per_relu_factor", "gc_per_relu_factor"),
        ("he", "he_per_flop_factor"),
        ("he_per_flop", "he_per_flop_factor"),
        ("he_per_flop_factor", "he_per_flop_factor"),
    ],
)
def test_knob_spelling_sets_its_field(spelling, field):
    knobs = parse_knobs(f"{spelling}=0.5")
    factors = {"relu_factor", "flop_factor", "gc_per_relu_factor", "he_per_flop_factor"}
    assert knobs.name == "custom"
    assert getattr(knobs, field) == 0.5
    assert all(getattr(knobs, other) == 1.0 for other in factors - {field})


def test_unknown_knob_lists_the_known_ones():
    with pytest.raises(SpecError, match=r"unknown knob 'gpu'; known: relu, flop, gc_per_relu, "
                                        r"he_per_flop$"):
        parse_knobs("relu=0.5,gpu=2")


def test_cost_prints_every_knob_factor(capsys):
    assert run_cli("cost", "--knobs", "relu=0.2", "--mode", "component") == EXIT_OK
    out = capsys.readouterr().out
    assert "knobs                 custom (relu=0.2 flop=1 gc_per_relu=1 he_per_flop=1)\n" in out


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
        ["--knobs", "relu=0.2,gc"],
        ["--mode", "table", "--knobs", "relu=0.5"],
        ["--protocol", "xx"],
        ["--knobs", "relu=1e300"],
        ["--knobs", "gc=1e300"],
        ["--knobs", "flop=1e308"],
        ["--knobs", "he=1e308"],
    ],
    ids=" ".join,
)
def test_cost_bad_input_exits_2(argv, capsys):
    assert run_cli("cost", *argv) == EXIT_UNKNOWN
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    if argv == ["--knobs", "relu=0.2,gc"]:
        assert "knob 'gc' is not name=value" in err


@pytest.mark.parametrize(
    "command, knob, field",
    [
        ("cost", "relu=1e300", "relu_factor=1e+300"),
        ("cost", "gc=1e300", "gc_per_relu_factor=1e+300"),
        ("cost", "flop=1e308", "flop_factor=1e+308"),
        ("cost", "he=1e308", "he_per_flop_factor=1e+308"),
        ("simulate", "relu=1e300", "relu_factor=1e+300"),
    ],
)
def test_an_overflowing_knob_is_named(command, knob, field, tmp_path, capsys):
    assert run_cli(*_priced_argv(command, tmp_path, "--knobs", knob)) == EXIT_UNKNOWN
    err = capsys.readouterr().err
    assert err == f"error: the costs of resnet32/cifar100 overflow under knobs {field}\n"


def test_tiny_positive_values_are_valid(tmp_path, capsys):
    # finite positive knob factors and horizons run; a ReLU count that
    # rounds to zero prints its bytes below 1 KB
    assert run_cli("cost", "--knobs", "relu=1e-300") == EXIT_OK
    assert "gc storage            0 B (held by client)\n" in capsys.readouterr().out
    assert run_cli("simulate", "--horizon", "1e-300", "--out", str(tmp_path)) == EXIT_OK
    assert "completed 0/0" in capsys.readouterr().out


def _priced_argv(command, out_dir, *argv):
    if command == "cost":
        return ["cost", *argv]
    return [command, "--runs", "1", "--horizon", "10", "--out", str(out_dir), *argv]


PRICED_COMMANDS = ["cost", "simulate", "sweep"]


@pytest.mark.parametrize("command", PRICED_COMMANDS)
def test_table_mode_with_knobs_exits_2_on_every_command(command, tmp_path, capsys):
    argv = _priced_argv(command, tmp_path, "--mode", "table", "--knobs", "relu=0.5")
    assert run_cli(*argv) == EXIT_UNKNOWN
    assert capsys.readouterr().err == (
        "error: table mode replays measured rows and cannot apply "
        "optimization knobs; use component mode\n"
    )


@pytest.mark.parametrize("command", PRICED_COMMANDS)
def test_bad_mode_is_a_bad_key_value_on_every_command(command, tmp_path, capsys):
    assert run_cli(*_priced_argv(command, tmp_path, "--mode", "bogus")) == EXIT_UNKNOWN
    assert capsys.readouterr().err.startswith("error: bad value for 'mode': ")


@pytest.mark.parametrize(
    "knobs, mode",
    [([], "table"), (["--knobs", "baseline"], "table"), (["--knobs", "relu=0.5"], "component")],
)
@pytest.mark.parametrize("command", PRICED_COMMANDS)
def test_knobs_pick_the_mode_when_none_is_given(command, knobs, mode, tmp_path, monkeypatch):
    modes = []
    query = pisim.cli.phase_costs

    def recorded_query(*args, **kwargs):
        modes.append(kwargs["mode"])
        return query(*args, **kwargs)

    monkeypatch.setattr(pisim.cli, "phase_costs", recorded_query)
    assert run_cli(*_priced_argv(command, tmp_path, *knobs)) == EXIT_OK
    assert modes and set(modes) == {mode}


def test_cli_imports_no_scipy_or_numba():
    # nor a process pool, which only sweep --jobs N > 1 needs, nor
    # numpy.random and the OpenSSL modules it brings, which only a draw
    # needs: neither at start-up nor in a cost run
    code = (
        "import contextlib, io, sys, pisim.cli\n"
        "unwanted = ('scipy', 'numba', 'multiprocessing', 'concurrent', 'numpy.random',\n"
        "            'secrets', 'hmac', '_hashlib')\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if any(m == u or m.startswith(u + '.') for u in unwanted))\n"
        "pisim.cli.load_shipped_model()\n"
        "print(loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert pisim.cli.main(['cost']) == 0\n"
        "print(loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


def test_cost_model_imports_no_protocol():
    # the cost model reads the lowering from netarch, not from the
    # protocol, and the shipped fit as data, without the fitter or numpy
    code = (
        "import sys, pisim.costmodel; pisim.costmodel.load_shipped_model(); "
        "print(sorted(m for m in sys.modules if m.startswith("
        "('pisim.protocol', 'pisim.costmodel.calibrate', 'numpy'))))"
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


@pytest.mark.parametrize(
    "argv",
    [
        ["--rates", "inf"],
        ["--rates", "nan"],
        ["--horizon", "nan"],
        ["--horizon", "inf"],
        ["--set", "server_capacity_gb=nan"],
        ["--set", "client_capacity_gb=nan"],
    ],
    ids=" ".join,
)
def test_simulate_non_finite_input_exits_3(argv, tmp_path, capsys):
    assert run_cli("simulate", "--runs", "1", "--out", str(tmp_path), *argv) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("infeasible: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--rates", "1e308"],
        ["sweep", "@fig4_c100", "--set", "horizon_s=1e308"],
    ],
    ids=" ".join,
)
def test_huge_expected_arrival_count_exits_3(argv, tmp_path, capsys):
    assert run_cli(*argv, "--out", str(tmp_path)) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("infeasible: ")
    assert "Traceback" not in err


def test_simulate_pipelined_unbounded_server(tmp_path):
    rc = run_cli("simulate", "--concurrency", "pipelined", "--set", "server_capacity_gb=inf",
                 "--runs", "1", "--horizon", "10000", "--out", str(tmp_path))
    assert rc == EXIT_OK


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


def test_sweep_loads_the_cost_model_once(tmp_path, monkeypatch):
    loads, modes = [], []
    load, query = pisim.cli.load_shipped_model, pisim.cli.phase_costs

    def counted_load(*args, **kwargs):
        loads.append((args, kwargs))
        return load(*args, **kwargs)

    def recorded_query(*args, **kwargs):
        modes.append(kwargs["mode"])
        return query(*args, **kwargs)

    monkeypatch.setattr(pisim.cli, "load_shipped_model", counted_load)
    monkeypatch.setattr(pisim.cli, "phase_costs", recorded_query)
    rc = run_cli("sweep", "@fig4_c100", "--runs", "1", "--horizon", "1000",
                 "--out", str(tmp_path))
    assert rc == EXIT_OK
    assert loads == [((), {})]
    assert modes == ["table", "table"]


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


def test_verify_mismatch_exits_1(capsys, monkeypatch):
    # one cg trial off by one: trial 4, found by its input wherever its
    # block puts it
    trial_4 = sample_input(build_preset("toy_cnn", "cifar100"), 0, 4)
    run_online = verify.run_online

    def off_by_one(bundle, xs):
        logits = run_online(bundle, xs)
        if bundle.client_state.protocol.short == "cg":
            logits[(xs == trial_4).all(axis=(1, 2, 3))] += 1
        return logits

    monkeypatch.setattr(verify, "run_online", off_by_one)
    rc = run_cli("verify", "--trials", "5")
    assert rc == EXIT_VERIFY_FAILED
    out = capsys.readouterr().out
    assert "sg: pass (5/5 trials exact)" in out
    assert "cg: FAIL (4/5 trials exact)" in out
    for short in ("sg", "cg"):
        assert f"{short} transcript vs cost model (bytes): offline c2s +0, s2c +0" in out


def test_verify_unknown_protocol_exits_2(capsys):
    assert run_cli("verify", "--protocol", "bogus") == EXIT_UNKNOWN
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sg, cg or both" in err


def test_verify_guard_blocks_large(capsys):
    rc = run_cli("verify", "--model", "resnet32", "--dataset", "cifar100",
                 "--trials", "1")
    assert rc == EXIT_UNKNOWN
    assert "--force" in capsys.readouterr().err


def test_verify_field_overflow_is_infeasible(capsys):
    # 3 trials run as one block of the plaintext pass: it stops at the
    # same layer, reporting the largest value of the three
    for trials in ("1", "3"):
        rc = run_cli("verify", "--model", "resnet32", "--dataset", "toy8",
                     "--force", "--trials", trials)
        assert rc == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith("error: layer 12 (conv)")
        assert "Traceback" not in err


def test_verify_inexact_oracle_product_is_infeasible(capsys, monkeypatch):
    # FC weights scaled by 2**45: max|w| * max|x| * 128 inputs passes 2**53
    gen_weights = verify.gen_weights

    def huge_fc(arch, seed):
        weights = gen_weights(arch, seed)
        w, b = weights[3]
        weights[3] = (w * 2**45, b)
        return weights

    monkeypatch.setattr(verify, "gen_weights", huge_fc)
    rc = run_cli("verify", "--model", "toy_cnn", "--dataset", "toy8", "--trials", "2")
    assert rc == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("error: layer 3 (fc): max|w| ")
    assert "2**53" in err
    assert "Traceback" not in err


def test_verify_past_the_kernel_bound_is_infeasible(capsys, tmp_path):
    # 3 * (p - 1) * 1,398,102 reaches 2**53: the masked kernels refuse a
    # fan-in whose plaintext pass is still exact
    arch = tmp_path / "wide.arch"
    arch.write_text("name wide_fc\ninput channels=1 height=1 width=1398102 classes=2\n"
                    "flatten\nfc in=1398102 out=2\n")
    rc = run_cli("verify", "--force", "--trials", "1", "--arch", str(arch))
    assert rc == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "fan-in 1398102" in err
    assert "Traceback" not in err


def test_verify_zero_trials(capsys):
    rc = run_cli("verify", "--model", "toy_cnn", "--trials", "0")
    assert rc == EXIT_OK
    assert "nothing verified" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv", [["verify", "--arch"], ["cost", "--model"]], ids=["verify", "cost"]
)
def test_a_missing_path_is_named(argv, tmp_path, monkeypatch, capsys):
    # a name with a path separator is a path even without the .arch suffix
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv, "results/net.txt") == EXIT_UNKNOWN
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "results/net.txt" in err
    assert "unknown model" not in err


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


NO_FLATTEN_ARCH = """name noflat
input channels=1 height=8 width=8 classes=4 dataset=toy8
conv in=1 out=2 kernel=3 pad=1
relu
fc in=128 out=4
"""

# Two skips the masked protocol cannot evaluate: one taps a conv output,
# which carries no mask, and one merges into a value that feeds an
# avgpool rather than a relu.
SKIP_FROM_CONV_ARCH = """name skip_from_conv
input channels=1 height=8 width=8 classes=4 dataset=toy8
conv in=1 out=2 kernel=3 pad=1
relu
conv in=2 out=2 kernel=3 pad=1
relu
conv in=2 out=2 kernel=3 pad=1
skip from=2 to=4
relu
avgpool global
flatten
fc in=2 out=4
"""

SKIP_INTO_POOL_ARCH = """name skip_into_pool
input channels=1 height=8 width=8 classes=4 dataset=toy8
conv in=1 out=2 kernel=3 pad=1
relu
conv in=2 out=2 kernel=3 pad=1
skip from=1 to=2
avgpool global
flatten
fc in=2 out=4
"""

BAD_PROJECTION_ARCH = """name bad_projection
input channels=1 height=8 width=8 classes=4 dataset=toy8
conv in=1 out=2 kernel=3 pad=1
relu
conv in=2 out=2 kernel=3 pad=1
skip from=1 to=2 conv in=2 out=2 kernel=1 stride=0
relu
avgpool global
flatten
fc in=2 out=4
"""

# Valid, but its counts are past a float's range.
HUGE_ARCH = f"""name huge
input channels=1 height=8 width=8 classes=4 dataset=toy8
conv in=1 out={10**320} kernel=3 pad=1
relu
flatten
fc in={64 * 10**320} out=4
"""

# Degenerate fields that validate() refuses; otherwise well-formed, so
# each reaches shape inference.
DEGENERATE_ARCHS = {
    "stride_0": "conv in=1 out=2 kernel=3 stride=0 pad=1\nrelu\nflatten\nfc in=128 out=4\n",
    "kernel_0": "conv in=1 out=2 kernel=0\nrelu\nflatten\nfc in=162 out=4\n",
    "channels_0": "conv in=0 out=2 kernel=3 pad=1\nrelu\nflatten\nfc in=128 out=4\n",
    "pool_stride_0": "conv in=1 out=2 kernel=3 pad=1\nrelu\navgpool window=2 stride=0\n"
                     "flatten\nfc in=32 out=4\n",
}


def _degenerate_arch(key):
    channels = 0 if key == "channels_0" else 1
    return (f"name {key}\ninput channels={channels} height=8 width=8 classes=4 "
            f"dataset=toy8\n" + DEGENERATE_ARCHS[key])


@pytest.mark.parametrize(
    "argv",
    [
        ["arch", "check", "{dir}"],
        ["arch", "check", "{arch}"],
        ["cost", "--model", "{arch}"],
        ["verify", "--arch", "{arch}"],
        ["cost", "--model", "vgg16", "--dataset", "toy8", "--mode", "component"],
        ["verify", "--trials", "-1"],
        ["verify", "--seed", "-1"],
        ["simulate", "--seed", "-5", "--out", "{dir}"],
        ["sweep", "--set", "seed=-1", "--out", "{dir}"],
        ["simulate", "--capacities", "-5"],
        ["simulate", "--set", "client_capacity_gb=-1"],
        ["simulate", "--set", "server_capacity_gb=-1"],
        ["simulate", "--runs", "0", "--out", "{dir}"],
        ["sweep", "--runs", "0", "--out", "{dir}"],
        ["sweep", "--runs", "-3", "--out", "{dir}"],
        ["sweep", "--set", "n_runs=0", "--out", "{dir}"],
        ["sweep", "--jobs", "0", "--out", "{dir}"],
        ["sweep", "--jobs", "-2", "--out", "{dir}"],
        ["simulate", "--rates", "-1", "--out", "{dir}"],
        ["simulate", "--set", "rates=0.001 -inf", "--out", "{dir}"],
        ["simulate", "--horizon", "-5", "--out", "{dir}"],
        ["simulate", "--horizon", "0", "--out", "{dir}"],
        ["sweep", "@fig4_c100", "--set", "horizon_s=-5", "--out", "{dir}"],
        # a path under a regular file raises NotADirectoryError
        ["sweep", "@fig4_c100", "--runs", "1", "--out", "{arch}/out"],
        ["verify", "--arch", "{arch}/x.arch"],
        # component mode, since table mode has no measured row for them
        ["arch", "check", "{skip_from_conv}"],
        ["cost", "--model", "{skip_from_conv}", "--mode", "component"],
        ["simulate", "--model", "{skip_from_conv}", "--mode", "component", "--out", "{dir}"],
        ["arch", "check", "{skip_into_pool}"],
        ["arch", "check", "{bad_projection}"],
        ["cost", "--model", "{skip_into_pool}", "--mode", "component"],
        ["sweep", "--model", "{skip_into_pool}", "--mode", "component", "--runs", "1",
         "--out", "{dir}"],
        ["simulate", "--knobs", "relu=1e300", "--out", "{dir}"],
        ["cost", "--model", "{huge}", "--mode", "component"],
        *([*cmd, "{%s}" % key, *rest] for key in DEGENERATE_ARCHS for cmd, rest in (
            (["arch", "check"], []),
            (["cost", "--model"], ["--mode", "component"]),
            (["verify", "--arch"], []),
        )),
    ],
    ids=" ".join,
)
def test_bad_input_exits_2(argv, tmp_path, capsys):
    paths = {"dir": tmp_path}
    for key, text in [
        ("arch", NO_FLATTEN_ARCH),
        ("skip_from_conv", SKIP_FROM_CONV_ARCH),
        ("skip_into_pool", SKIP_INTO_POOL_ARCH),
        ("bad_projection", BAD_PROJECTION_ARCH),
        ("huge", HUGE_ARCH),
        *((key, _degenerate_arch(key)) for key in DEGENERATE_ARCHS),
    ]:
        paths[key] = tmp_path / f"{key}.arch"
        paths[key].write_text(text)
    argv = [a.format(**paths) for a in argv]
    assert run_cli(*argv) == EXIT_UNKNOWN
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "filename, table, argv",
    [
        ("measured_costs.tsv", "measured-costs", ["cost"]),
        ("optimizations.tsv", "optimizations", ["cost", "--knobs", "delphi"]),
    ],
    ids=["measured_costs", "optimizations"],
)
def test_malformed_config_table_exits_2(filename, table, argv, tmp_path, monkeypatch, capsys):
    pisim.cli.load_shipped_model()  # a kept fit of the shipped table must not hide a bad one
    (tmp_path / filename).write_text("name\tmodel\nx\ty\n")
    monkeypatch.setenv("PISIM_CONFIG_DIR", str(tmp_path))
    assert run_cli(*argv) == EXIT_UNKNOWN
    err = capsys.readouterr().err
    assert err.startswith(f"error: {table} table")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "filename, table, argv, header",
    [
        ("measured_costs.tsv", "measured-costs", ["cost"],
         "protocol\tmodel\tdataset\toffline_latency_s\tonline_latency_s\t"
         "client_storage_bytes\tserver_storage_bytes\tbandwidth_bytes_per_s\n"),
        ("optimizations.tsv", "optimizations", ["cost", "--knobs", "delphi"],
         "name\trelu_factor\tflop_factor\tgc_per_relu_factor\the_per_flop_factor\tnotes\n"),
    ],
    ids=["measured_costs", "optimizations"],
)
def test_short_config_row_exits_2(filename, table, argv, header, tmp_path, monkeypatch, capsys):
    # a row with fewer cells than the header names the line, not a TypeError
    pisim.cli.load_shipped_model()  # a kept fit of the shipped table must not hide a bad one
    (tmp_path / filename).write_text(header + "sg\t0.5\t1\n")
    monkeypatch.setenv("PISIM_CONFIG_DIR", str(tmp_path))
    assert run_cli(*argv) == EXIT_UNKNOWN
    err = capsys.readouterr().err
    assert err.startswith(f"error: {table} line 2: ")
    assert "Traceback" not in err


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


def test_an_in_process_call_leaves_no_parser_garbage(capsys):
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run_cli("verify", "--trials", "2") == EXIT_OK
        gc.collect()
        leftovers = [o for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not leftovers


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


# --- spec flags -------------------------------------------------------------


SPEC_FLAG_CASES = [
    ("--name", "demo", "name", "demo"),
    ("--model", "vgg16", "model", "vgg16"),
    ("--dataset", "tiny", "dataset", "tinyimagenet"),
    ("--protocols", "cg", "protocols", ("cg",)),
    ("--rates", "0.5,2", "rates", (0.5, 2.0)),
    ("--capacities", "8,none", "client_capacity_gb", (8.0, float("inf"))),
    ("--concurrency", "pipelined", "concurrency", "pipelined"),
    ("--horizon", "60", "horizon_s", 60.0),
    ("--runs", "7", "n_runs", 7),
    ("--seed", "3", "seed", 3),
    ("--mode", "component", "mode", "component"),
    ("--knobs", "delphi", "knobs", "delphi"),
    ("--out", "results", "output_dir", "results"),
    ("--formats", "csv,json", "formats", ("csv", "json")),
]


@pytest.mark.parametrize("flag, raw, key, value", SPEC_FLAG_CASES, ids=[c[0] for c in SPEC_FLAG_CASES])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_spec_flag_sets_its_key(command, flag, raw, key, value):
    args = build_parser().parse_args([command, flag, raw])
    want = dataclasses.replace(ExperimentSpec(), **{key: value})
    assert pisim.cli._spec_from_args(args) == want
