"""The benchmark's tracer wraps module attributes of pisim by name
(`perfbench/tracing.py` LAYER_BINDINGS). A refactor that renames one, or
stops calling it through its module, silently breaks `perfbench/run.py
--trace 1`; these tests catch that in the unit suite.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import LAYER_BINDINGS, Tracer, install_layer_spans  # noqa: E402

from pisim.cli import main  # noqa: E402
from pisim.costmodel import load_shipped_model, phase_costs  # noqa: E402
from pisim.desim import SERIAL, SimConfig, run_points  # noqa: E402
from pisim.netarch import build_preset  # noqa: E402


def _binding(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def test_every_binding_resolves_is_wrapped_and_restored():
    originals = []
    for module_name, path, _, _ in LAYER_BINDINGS:
        owner, attr = _binding(module_name, path)
        assert attr in owner.__dict__, f"{module_name}.{path} does not exist"
        assert callable(owner.__dict__[attr]), f"{module_name}.{path}"
        originals.append((owner, attr, owner.__dict__[attr]))

    restore = install_layer_spans(Tracer())
    try:
        for owner, attr, original in originals:
            wrapped = owner.__dict__[attr]
            assert wrapped is not original, attr
            assert wrapped.__wrapped__ is original, attr
    finally:
        restore()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, attr


def test_a_sweep_point_records_every_desim_span():
    costs = phase_costs(load_shipped_model(), "sg", build_preset("resnet32", "cifar100"))
    config = SimConfig(arrival_rate=1e-3, horizon_s=10_000.0, n_runs=2, concurrency=SERIAL)
    tracer = Tracer()
    restore = install_layer_spans(tracer)
    try:
        run_points([(costs, config, 0)])
    finally:
        restore()
    names = [s.name for s in tracer.spans]
    # run_points hands its one task to engine.run_group, which draws,
    # schedules and summarizes the runs as blocks, and both runs fit one:
    # one arrival draw and one summary, and no call to sweep_point,
    # run_many or the one-run simulate.
    for name in ("desim.poisson_arrival_times", "desim.summarize_run"):
        assert names.count(name) == 1, name
    for name in ("desim.sweep_point", "desim.run_many", "desim.simulate"):
        assert names.count(name) == 0, name


def test_a_traced_simulate_records_its_sweep_point(tmp_path, capsys):
    tracer = Tracer()
    restore = install_layer_spans(tracer)
    try:
        argv = ["simulate", "--runs", "2", "--horizon", "10000", "--out", str(tmp_path)]
        assert main(argv) == 0
    finally:
        restore()
    capsys.readouterr()
    names = [s.name for s in tracer.spans]
    for name in ("desim.sweep_point", "desim.run_many", "desim.poisson_arrival_times",
                 "desim.summarize_run"):
        assert names.count(name) == 1, name
    assert names.count("desim.simulate") == 0


def test_a_traced_verify_records_the_oracle_and_every_online_run(capsys):
    tracer = Tracer()
    restore = install_layer_spans(tracer)
    try:
        assert main(["verify", "--model", "toy_cnn", "--trials", "3"]) == 0
    finally:
        restore()
    capsys.readouterr()
    oracle = [s for s in tracer.spans if s.name == "protocol.plaintext_forward"]
    assert oracle and sum(s.duration for s in oracle) > 0
    # 3 trials make one block, run once per protocol; the byte check reads
    # trial 0's transcripts
    assert [s.name for s in tracer.spans].count("protocol.run_online") == 2
