"""The feature-vector cost model against the named-rate formulas in costmodel_oracle.

Every PhaseCosts field of `phase_costs` must equal the oracle's: integer
fields exactly, float fields within 1e-12 relative, for every preset,
protocol, knob setting and bandwidth. The calibration report must price
its rows as the oracle does.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import costmodel_oracle as oracle
from pisim.costmodel import (
    OptimizationKnobs,
    Protocol,
    load_shipped_costs,
    load_shipped_model,
    phase_costs,
)
from pisim.costmodel.formula import Workload, compute_seconds
from pisim.netarch import MODELS, build_preset

COMPONENT = load_shipped_model(mode="component")
TABLE = load_shipped_model(mode="table")
NAMED = oracle.named_rates(COMPONENT)

# vgg16 cannot pool down to 8x8 inputs
ARCHS = [
    build_preset(m, d)
    for m in MODELS
    for d in ("cifar100", "tinyimagenet", "imagenet", "toy8")
    if (m, d) != ("vgg16", "toy8")
]
CALIBRATED = [a for a in ARCHS if (a.name, a.dataset.name) in {k[1:] for k in TABLE.table}]
FACTORS = st.one_of(st.just(1.0), st.floats(0.05, 2.0, exclude_min=True))
BANDWIDTHS = st.one_of(st.none(), st.floats(1e5, 1e11))


def assert_same_costs(got, want):
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, float):
            assert a == pytest.approx(b, rel=1e-12, abs=0.0), f.name
        else:
            assert a == b, f.name
            assert type(a) is type(b), f.name


@given(
    arch=st.sampled_from(ARCHS),
    protocol=st.sampled_from(list(Protocol)),
    relu=FACTORS,
    flop=FACTORS,
    gc=FACTORS,
    he=FACTORS,
    bandwidth=BANDWIDTHS,
)
@settings(max_examples=300, deadline=None)
def test_component_costs_match_oracle(arch, protocol, relu, flop, gc, he, bandwidth):
    knobs = OptimizationKnobs(
        relu_factor=relu, flop_factor=flop, gc_per_relu_factor=gc, he_per_flop_factor=he
    )
    got = phase_costs(COMPONENT, protocol, arch, bandwidth=bandwidth, knobs=knobs)
    bw = COMPONENT.calibrated_bandwidth if bandwidth is None else bandwidth
    assert_same_costs(got, oracle.component_costs(NAMED, protocol, arch, bw, knobs))


@given(
    arch=st.sampled_from(CALIBRATED),
    protocol=st.sampled_from(list(Protocol)),
    bandwidth=BANDWIDTHS,
)
@settings(max_examples=100, deadline=None)
def test_table_costs_match_oracle(arch, protocol, bandwidth):
    got = phase_costs(TABLE, protocol, arch, bandwidth=bandwidth)
    bw = TABLE.calibrated_bandwidth if bandwidth is None else bandwidth
    assert_same_costs(got, oracle.table_costs(NAMED, protocol, arch, bw))


@pytest.mark.parametrize("row", load_shipped_costs(), ids=lambda r: f"{r.protocol.short}/{r.model}/{r.dataset}")
def test_report_prices_rows_like_oracle(row):
    arch = build_preset(row.model, row.dataset)
    off, on, _ = compute_seconds(COMPONENT, row.protocol, Workload.of(arch))
    want_off, want_on = oracle.predict_compute(NAMED, row.protocol, arch)
    assert off == pytest.approx(want_off, rel=1e-12, abs=0.0)
    assert on == pytest.approx(want_on, rel=1e-12, abs=0.0)
