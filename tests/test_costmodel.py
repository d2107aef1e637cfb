"""Cost model: byte accounting, calibration queries, knobs, regimes."""

import dataclasses
import io
import math

import pytest

from pisim.costmodel import (
    BASE_OT_BYTES_PER_DIRECTION,
    CG_EVALUATOR_STATE_BYTES_PER_RELU,
    GC_TRANSFER_BYTES_PER_RELU,
    HE_CT_BYTES_PER_ELEM,
    InsufficientRows,
    InvalidCostInput,
    CommInputs,
    OptimizationKnobs,
    Protocol,
    Regime,
    SHARE_BYTES_PER_ELEM,
    UncalibratedTriple,
    UnknownOptimization,
    classify_regime,
    get_optimization,
    load_optimizations,
    load_shipped_costs,
    load_shipped_model,
    offline_comm,
    online_comm,
    phase_costs,
    read_measured_costs,
    storage_deltas,
    write_measured_costs,
)
from pisim.costmodel.calibrate import calibrate
from pisim.desim import SERIAL, SimConfig, stability_limit
from pisim.netarch import build_preset, count

SG = Protocol.SERVER_GARBLER
CG = Protocol.CLIENT_GARBLER

# (protocol, model, dataset) -> (offline_latency_s, online_latency_s)
TABLE = {
    ("sg", "resnet32", "cifar100"): (115.2, 9.4),
    ("sg", "vgg16", "cifar100"): (295.6, 9.4),
    ("sg", "resnet18", "cifar100"): (420.8, 17.2),
    ("sg", "resnet32", "tinyimagenet"): (401.9, 39.6),
    ("sg", "vgg16", "tinyimagenet"): (814.7, 34.2),
    ("sg", "resnet18", "tinyimagenet"): (1594.0, 68.5),
    ("cg", "resnet32", "cifar100"): (109.1, 11.9),
    ("cg", "vgg16", "cifar100"): (289.9, 11.6),
    ("cg", "resnet18", "cifar100"): (409.6, 21.8),
    ("cg", "resnet32", "tinyimagenet"): (377.4, 49.6),
    ("cg", "vgg16", "tinyimagenet"): (792.2, 43.4),
    ("cg", "resnet18", "tinyimagenet"): (1549.1, 86.9),
}


@pytest.fixture(scope="module")
def cm():
    return load_shipped_model()


@pytest.mark.parametrize("key", sorted(TABLE))
def test_table_mode_reproduces_measurements(cm, key):
    proto, model, dataset = key
    costs = phase_costs(cm, proto, build_preset(model, dataset), mode="table")
    off, on = TABLE[key]
    assert costs.offline_latency_s == pytest.approx(off, abs=1e-9)
    assert costs.online_latency_s == pytest.approx(on, abs=1e-9)


@pytest.mark.parametrize("key", sorted(TABLE))
def test_component_mode_within_ten_percent(cm, key):
    proto, model, dataset = key
    costs = phase_costs(cm, proto, build_preset(model, dataset))
    off, on = TABLE[key]
    assert abs(costs.offline_latency_s - off) / off <= 0.10
    assert abs(costs.online_latency_s - on) / on <= 0.10


def test_table_mode_rejects_uncalibrated_triple(cm):
    with pytest.raises(UncalibratedTriple):
        phase_costs(cm, SG, build_preset("toy_cnn", "cifar100"), mode="table")


def test_table_mode_rejects_knobs(cm):
    with pytest.raises(ValueError):
        phase_costs(
            cm, SG, build_preset("resnet32", "cifar100"), knobs=get_optimization("delphi"),
            mode="table",
        )


def test_bandwidth_repricing(cm):
    arch = build_preset("resnet32", "cifar100")
    base = phase_costs(cm, SG, arch, mode="table")
    slow = phase_costs(cm, SG, arch, bandwidth=base.bandwidth_bytes_per_s / 2, mode="table")
    # halving bandwidth adds exactly the extra wire time for each phase
    extra_off = base.offline_comm_c2s_bytes + base.offline_comm_s2c_bytes
    assert slow.offline_latency_s == pytest.approx(
        base.offline_latency_s + extra_off / base.bandwidth_bytes_per_s
    )
    assert slow.online_latency_s > base.online_latency_s


def test_gc_storage_values(cm):
    r32 = phase_costs(cm, "sg", build_preset("resnet32", "cifar100")).gc_storage_bytes
    r18c = phase_costs(cm, "sg", build_preset("resnet18", "cifar100")).gc_storage_bytes
    r18t = phase_costs(cm, "sg", build_preset("resnet18", "tinyimagenet")).gc_storage_bytes
    assert abs(r32 - 5.3e9) / 5.3e9 <= 0.05
    assert r18c > 9e9
    assert abs(r18t - 38.9e9) / 38.9e9 <= 0.10
    per_relu = cm.gc_bytes_per_relu
    assert 17_000 <= per_relu <= 20_000
    assert r18t == count(build_preset("resnet18", "tinyimagenet")).relus * per_relu


def test_gc_storage_scales_with_relu_knob(cm):
    arch = build_preset("resnet18", "tinyimagenet")
    base = phase_costs(cm, SG, arch).gc_storage_bytes
    knobs = OptimizationKnobs(relu_factor=0.2, name="x")
    pruned = phase_costs(cm, SG, arch, knobs=knobs).gc_storage_bytes
    # priced on the ReLU count rounded to a whole ReLU, as the byte model counts it
    relus = round(count(arch).relus * 0.2)
    assert pruned == int(round(cm.gc_bytes_per_relu * relus))
    assert pruned == pytest.approx(base * 0.2, abs=cm.gc_bytes_per_relu / 2)


@pytest.mark.parametrize("relu", [0.2, 0.37, 0.5])
@pytest.mark.parametrize("model, dataset", [("resnet18", "tinyimagenet"), ("resnet32", "cifar100")])
@pytest.mark.parametrize("proto", [SG, Protocol.CLIENT_GARBLER])
def test_gc_storage_is_what_phase_costs_uses(cm, relu, model, dataset, proto):
    arch = build_preset(model, dataset)
    knobs = OptimizationKnobs(relu_factor=relu, gc_per_relu_factor=0.6, name="x")
    costs = phase_costs(cm, proto, arch, knobs=knobs)
    relus = round(count(arch).relus * relu)
    assert costs.gc_storage_bytes == int(round(cm.gc_bytes_per_relu * 0.6 * relus))


def test_offline_comm_direction_of_gc_transfer():
    s = CommInputs.from_arch(build_preset("resnet32", "cifar100"))
    sg = offline_comm(SG, s)
    cg = offline_comm(CG, s)
    # the garbler ships circuits to the evaluator
    assert sg.s2c_bytes - cg.s2c_bytes >= GC_TRANSFER_BYTES_PER_RELU * s.relus * 0.9
    assert cg.c2s_bytes - BASE_OT_BYTES_PER_DIRECTION >= GC_TRANSFER_BYTES_PER_RELU * s.relus * 0.9


def test_online_comm_symmetric_between_protocols():
    s = CommInputs.from_arch(build_preset("resnet32", "cifar100"))
    a = online_comm(SG, s)
    b = online_comm(CG, s)
    assert a.c2s_bytes + a.s2c_bytes == b.c2s_bytes + b.s2c_bytes


def test_storage_deltas_match_table():
    for key, row in _rows_by_key().items():
        proto, model, dataset = key
        sizes = CommInputs.from_arch(build_preset(model, dataset))
        d = storage_deltas(Protocol.parse(proto), sizes)
        client = d.client_received_bytes + d.client_self_bytes
        server = d.server_received_bytes + d.server_self_bytes
        assert client == row.client_storage_bytes, key
        assert server == row.server_storage_bytes, key


def _rows_by_key():
    ds = {"c100": "cifar100", "tiny": "tinyimagenet"}
    return {
        (r.protocol.short, r.model, ds[r.dataset]): r for r in load_shipped_costs()
    }


def test_offline_comm_matches_table():
    for key, row in _rows_by_key().items():
        proto, model, dataset = key
        sizes = CommInputs.from_arch(build_preset(model, dataset))
        t = offline_comm(Protocol.parse(proto), sizes)
        assert t.c2s_bytes + t.s2c_bytes == row.offline_comm_bytes, key


def test_online_comm_matches_table():
    for key, row in _rows_by_key().items():
        proto, model, dataset = key
        sizes = CommInputs.from_arch(build_preset(model, dataset))
        t = online_comm(Protocol.parse(proto), sizes)
        assert t.c2s_bytes + t.s2c_bytes == row.online_comm_bytes, key


def test_client_storage_flip():
    s = CommInputs.from_arch(build_preset("resnet18", "tinyimagenet"))
    sg = storage_deltas(SG, s)
    cg = storage_deltas(CG, s)
    sg_client = sg.client_received_bytes + sg.client_self_bytes
    cg_client = cg.client_received_bytes + cg.client_self_bytes
    # moving the garbler to the client shrinks client precompute state
    # by more than two orders of magnitude
    assert cg_client <= 0.01 * sg_client


def test_knob_composition(cm):
    arch = build_preset("resnet18", "cifar100")
    base = phase_costs(cm, SG, arch)
    k = get_optimization("deepreduce_circa")
    opt = phase_costs(cm, SG, arch, knobs=k)
    # relu counts are rounded to whole gates before pricing
    assert opt.gc_storage_bytes == pytest.approx(
        base.gc_storage_bytes * k.relu_factor * k.gc_per_relu_factor, rel=1e-5
    )
    assert opt.offline_latency_s < base.offline_latency_s
    assert opt.online_latency_s < base.online_latency_s


def test_knob_validation():
    with pytest.raises(ValueError):
        OptimizationKnobs(relu_factor=0.0, name="bad")
    with pytest.raises(ValueError):
        OptimizationKnobs(gc_per_relu_factor=-0.5, name="bad")
    # factors above one are legal: some searches trade extra linear
    # work for fewer relus
    OptimizationKnobs(flop_factor=2.0, name="ok")


@pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf, 0.0])
def test_knobs_reject_non_finite_factors(factor):
    with pytest.raises(InvalidCostInput):
        OptimizationKnobs(he_per_flop_factor=factor, name="bad")


def test_bad_costs_and_models_raise_typed_errors(cm):
    arch = build_preset("resnet32", "cifar100")
    costs = phase_costs(cm, SG, arch)
    with pytest.raises(InvalidCostInput):
        dataclasses.replace(costs, online_latency_s=-1.0)
    with pytest.raises(InvalidCostInput):
        phase_costs(cm, SG, arch, mode="replay")
    with pytest.raises(InvalidCostInput):
        dataclasses.replace(cm, online_rates=(-1.0,) + cm.online_rates[1:])
    for bandwidth in (0.0, -5.0, math.nan, math.inf):
        with pytest.raises(InvalidCostInput):
            phase_costs(cm, SG, arch, bandwidth=bandwidth)


def test_get_optimization_aliases_and_unknown():
    assert get_optimization("none").relu_factor == 1.0
    assert get_optimization("identity") == get_optimization("baseline")
    assert get_optimization("delphi").relu_factor == 0.5
    with pytest.raises(UnknownOptimization):
        get_optimization("wishful")
    assert "deepreduce_circa" in load_optimizations()


def test_regime_classification():
    assert classify_regime(get_optimization("delphi")) is Regime.LOW
    assert classify_regime(get_optimization("deepreduce")) is Regime.MODERATE
    assert classify_regime(get_optimization("deepreduce_circa")) is Regime.HIGH


def test_max_sustainable_rate(cm):
    costs = phase_costs(cm, SG, build_preset("resnet32", "cifar100"), mode="table")
    rate = stability_limit(costs, SimConfig(arrival_rate=1.0, concurrency=SERIAL))
    assert rate == pytest.approx(1.0 / (115.2 + 9.4))


def test_protocol_parse_aliases():
    for alias in ("sg", "server_garbler", "server-garbler", "SG"):
        assert Protocol.parse(alias) is SG
    for alias in ("cg", "client_garbler", "client-garbler"):
        assert Protocol.parse(alias) is CG
    with pytest.raises(ValueError):
        Protocol.parse("mg")


def test_measured_costs_roundtrip():
    rows = load_shipped_costs()
    buf = io.StringIO()
    write_measured_costs(buf, rows)
    buf.seek(0)
    again = read_measured_costs(buf)
    assert again == rows


def test_sg_only_calibration_rejects_cg_query():
    rows = [r for r in load_shipped_costs() if r.protocol is SG]
    cm = calibrate(rows)
    assert cm.calibrated_protocols == frozenset({SG})
    with pytest.raises(InsufficientRows):
        phase_costs(cm, CG, build_preset("resnet32", "cifar100"))


def test_calibration_report_bounds(cm):
    rep = cm.report
    assert rep is not None
    assert rep.max_latency_residual <= 0.10
    assert rep.max_storage_residual <= 0.05


def test_he_dominates_offline_compute(cm):
    costs = phase_costs(cm, CG, build_preset("resnet18", "cifar100"))
    assert costs.offline_he_s >= 0.90 * costs.offline_compute_s


def test_byte_constants():
    assert SHARE_BYTES_PER_ELEM == 8
    assert HE_CT_BYTES_PER_ELEM > SHARE_BYTES_PER_ELEM
    assert CG_EVALUATOR_STATE_BYTES_PER_RELU < GC_TRANSFER_BYTES_PER_RELU
