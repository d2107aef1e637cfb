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
    calibrate,
    classify_regime,
    gc_storage,
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
from pisim.desim import SERIAL, SimConfig, stability_limit
from pisim.netarch import build_preset, count, linear_profile

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
def table_cm():
    return load_shipped_model(mode="table")


@pytest.fixture(scope="module")
def comp_cm():
    return load_shipped_model(mode="component")


@pytest.mark.parametrize("key", sorted(TABLE))
def test_table_mode_reproduces_measurements(table_cm, key):
    proto, model, dataset = key
    costs = phase_costs(table_cm, proto, build_preset(model, dataset))
    off, on = TABLE[key]
    assert costs.offline_latency_s == pytest.approx(off, abs=1e-9)
    assert costs.online_latency_s == pytest.approx(on, abs=1e-9)


@pytest.mark.parametrize("key", sorted(TABLE))
def test_component_mode_within_ten_percent(comp_cm, key):
    proto, model, dataset = key
    costs = phase_costs(comp_cm, proto, build_preset(model, dataset))
    off, on = TABLE[key]
    assert abs(costs.offline_latency_s - off) / off <= 0.10
    assert abs(costs.online_latency_s - on) / on <= 0.10


def test_table_mode_rejects_uncalibrated_triple(table_cm):
    with pytest.raises(UncalibratedTriple):
        phase_costs(table_cm, SG, build_preset("toy_cnn", "cifar100"))


def test_table_mode_rejects_knobs(table_cm):
    with pytest.raises(ValueError):
        phase_costs(
            table_cm, SG, build_preset("resnet32", "cifar100"), knobs=get_optimization("delphi")
        )


def test_bandwidth_repricing(table_cm):
    arch = build_preset("resnet32", "cifar100")
    base = phase_costs(table_cm, SG, arch)
    slow = phase_costs(table_cm, SG, arch, bandwidth=base.bandwidth_bytes_per_s / 2)
    # halving bandwidth adds exactly the extra wire time for each phase
    extra_off = base.offline_comm_c2s_bytes + base.offline_comm_s2c_bytes
    assert slow.offline_latency_s == pytest.approx(
        base.offline_latency_s + extra_off / base.bandwidth_bytes_per_s
    )
    assert slow.online_latency_s > base.online_latency_s


def test_gc_storage_values(comp_cm):
    r32 = gc_storage(build_preset("resnet32", "cifar100"), comp_cm)
    r18c = gc_storage(build_preset("resnet18", "cifar100"), comp_cm)
    r18t = gc_storage(build_preset("resnet18", "tinyimagenet"), comp_cm)
    assert abs(r32 - 5.3e9) / 5.3e9 <= 0.05
    assert r18c > 9e9
    assert abs(r18t - 38.9e9) / 38.9e9 <= 0.10
    per_relu = comp_cm.gc_bytes_per_relu
    assert 17_000 <= per_relu <= 20_000
    assert r18t == count(build_preset("resnet18", "tinyimagenet")).relus * per_relu


def test_gc_storage_scales_with_relu_knob(comp_cm):
    arch = build_preset("resnet18", "tinyimagenet")
    base = gc_storage(arch, comp_cm)
    pruned = gc_storage(arch, comp_cm, knobs=OptimizationKnobs(relu_factor=0.2, name="x"))
    assert pruned == pytest.approx(base * 0.2, abs=1.0)


def _sizes(model="resnet32", dataset="cifar100"):
    arch = build_preset(model, dataset)
    prof = linear_profile(arch)
    c = count(arch)
    return CommInputs(
        relus=c.relus,
        mask_in_elems=prof.mask_in_elems,
        mask_out_elems=prof.mask_out_elems,
        image_elems=arch.dataset.channels * arch.dataset.height * arch.dataset.width,
        class_count=arch.dataset.classes,
    )


def test_offline_comm_direction_of_gc_transfer():
    s = _sizes()
    sg = offline_comm(SG, s)
    cg = offline_comm(CG, s)
    # the garbler ships circuits to the evaluator
    assert sg.s2c_bytes - cg.s2c_bytes >= GC_TRANSFER_BYTES_PER_RELU * s.relus * 0.9
    assert cg.c2s_bytes - BASE_OT_BYTES_PER_DIRECTION >= GC_TRANSFER_BYTES_PER_RELU * s.relus * 0.9


def test_online_comm_symmetric_between_protocols():
    s = _sizes()
    a = online_comm(SG, s)
    b = online_comm(CG, s)
    assert a.c2s_bytes + a.s2c_bytes == b.c2s_bytes + b.s2c_bytes


def test_storage_deltas_match_table():
    for key, row in _rows_by_key().items():
        proto, model, dataset = key
        d = storage_deltas(Protocol.parse(proto), _sizes(model, dataset))
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
        t = offline_comm(Protocol.parse(proto), _sizes(model, dataset))
        assert t.c2s_bytes + t.s2c_bytes == row.offline_comm_bytes, key


def test_online_comm_matches_table():
    for key, row in _rows_by_key().items():
        proto, model, dataset = key
        t = online_comm(Protocol.parse(proto), _sizes(model, dataset))
        assert t.c2s_bytes + t.s2c_bytes == row.online_comm_bytes, key


def test_client_storage_flip():
    s = _sizes("resnet18", "tinyimagenet")
    sg = storage_deltas(SG, s)
    cg = storage_deltas(CG, s)
    sg_client = sg.client_received_bytes + sg.client_self_bytes
    cg_client = cg.client_received_bytes + cg.client_self_bytes
    # moving the garbler to the client shrinks client precompute state
    # by more than two orders of magnitude
    assert cg_client <= 0.01 * sg_client


def test_knob_composition(comp_cm):
    arch = build_preset("resnet18", "cifar100")
    base = phase_costs(comp_cm, SG, arch)
    k = get_optimization("deepreduce_circa")
    opt = phase_costs(comp_cm, SG, arch, knobs=k)
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


def test_bad_costs_and_models_raise_typed_errors(comp_cm):
    arch = build_preset("resnet32", "cifar100")
    costs = phase_costs(comp_cm, SG, arch)
    with pytest.raises(InvalidCostInput):
        dataclasses.replace(costs, online_latency_s=-1.0)
    with pytest.raises(InvalidCostInput):
        dataclasses.replace(comp_cm, mode="replay")
    with pytest.raises(InvalidCostInput):
        dataclasses.replace(comp_cm, online_rates=(-1.0,) + comp_cm.online_rates[1:])
    for bandwidth in (0.0, -5.0, math.nan, math.inf):
        with pytest.raises(InvalidCostInput):
            phase_costs(comp_cm, SG, arch, bandwidth=bandwidth)


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
    # storage pressure demotes an otherwise high regime
    assert classify_regime(get_optimization("deepreduce_circa"), storage_ok=False) is Regime.LOW


def test_max_sustainable_rate(table_cm):
    costs = phase_costs(table_cm, SG, build_preset("resnet32", "cifar100"))
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


def test_calibration_report_bounds(comp_cm):
    rep = comp_cm.report
    assert rep is not None
    assert rep.max_latency_residual <= 0.10
    assert rep.max_storage_residual <= 0.05


def test_he_dominates_offline_compute(comp_cm):
    costs = phase_costs(comp_cm, CG, build_preset("resnet18", "cifar100"))
    assert costs.offline_he_s >= 0.90 * costs.offline_compute_s


def test_byte_constants():
    assert SHARE_BYTES_PER_ELEM == 8
    assert HE_CT_BYTES_PER_ELEM > SHARE_BYTES_PER_ELEM
    assert CG_EVALUATOR_STATE_BYTES_PER_RELU < GC_TRANSFER_BYTES_PER_RELU
