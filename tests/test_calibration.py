"""Fitting component rates from the measured-cost table."""

import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pisim.costmodel import (
    CalibrationOptions,
    InconsistentRows,
    Protocol,
    TableFormatError,
    calibrate,
    load_shipped_costs,
    read_measured_costs,
    write_measured_costs,
)
from pisim.costmodel.calibrate import nnls


@pytest.fixture(scope="module")
def rows():
    return load_shipped_costs()


@pytest.fixture(scope="module")
def cm(rows):
    return calibrate(rows)


def test_residuals_within_published_tolerances(cm):
    rep = cm.report
    assert rep.max_latency_residual <= 0.10
    assert rep.max_storage_residual <= 0.05
    assert len(rep.row_residuals) == 12
    for key, lat, sto in rep.row_residuals:
        assert lat <= 0.10, key
        assert sto <= 0.05, key


def test_gc_rate_in_physical_band(cm):
    # one garbled relu costs a few label-sets plus transfer framing
    assert 17_000 <= cm.gc_bytes_per_relu <= 20_000


def test_he_share_anchors(cm):
    anchors = cm.report.he_share_anchors
    assert anchors
    for key, share in anchors.items():
        assert 0.90 <= share <= 1.0, key


def test_calibrated_protocols_cover_both(cm):
    assert cm.calibrated_protocols == frozenset(Protocol)


def test_tight_tolerance_rejected(rows):
    opts = CalibrationOptions(latency_tolerance=1e-4, validate=True)
    with pytest.raises(InconsistentRows):
        calibrate(rows, options=opts)


def test_wire_time_exceeding_latency_rejected(rows):
    bloated = dataclasses.replace(
        rows[0],
        offline_comm_bytes=int(
            2 * rows[0].offline_latency_s * rows[0].bandwidth_bytes_per_s
        ),
    )
    with pytest.raises(InconsistentRows):
        calibrate(rows[1:] + [bloated])


def test_tsv_roundtrip_preserves_rows(rows):
    buf = io.StringIO()
    write_measured_costs(buf, rows)
    buf.seek(0)
    assert read_measured_costs(buf) == rows


def test_tsv_missing_columns():
    with pytest.raises(TableFormatError):
        read_measured_costs(io.StringIO("protocol\tmodel\nsg\tresnet32\n"))


def test_tsv_bad_number():
    header = (
        "protocol\tmodel\tdataset\toffline_latency_s\tonline_latency_s\t"
        "client_storage_bytes\tserver_storage_bytes\tbandwidth_bytes_per_s\t"
        "offline_comm_bytes\tonline_comm_bytes\n"
    )
    line = "sg\tresnet32\tc100\tnope\t9.4\t1\t1\t1e8\t1\t1\n"
    with pytest.raises(TableFormatError):
        read_measured_costs(io.StringIO(header + line))


def test_calibration_is_deterministic(rows):
    a = calibrate(rows)
    b = calibrate(list(reversed(rows)))
    assert a.gc_bytes_per_relu == b.gc_bytes_per_relu
    assert a.offline_rates == b.offline_rates
    assert a.online_rates == b.online_rates


# The 13 rates the two solves returned before NNLS replaced a bounded
# least-squares solver. Three of them were left at 1e-25 to 1e-17 and
# must now be (nearly) zero.
GOLDEN_OFFLINE = (
    5.272025013383356e-07,  # HE conv, 32x32 inputs
    4.770000502258914e-07,  # HE conv, 64x64 inputs
    3.3742854208984844e-06,  # HE FC, 32x32 inputs
    2.865267053355287e-25,  # HE FC, 64x64 inputs
    0.32682147331313827,  # per linear unit
    1.610897613246555e-05,  # garbling, client-garbler
    3.377248357860331e-05,  # garbling, server-garbler
    2.7356910956325307e-17,  # fixed
)
GOLDEN_ONLINE = (
    2.080904107956079e-05,  # GC evaluation
    1.3446084579166537e-23,  # conv
    1.830719150018075e-08,  # FC
    0.06469371484152127,  # fixed
    8.19090410618518e-06,  # OT, client-garbler
)


def test_golden_rates(cm):
    assert cm.columns.conv_areas == (1024, 4096)
    assert cm.columns.fc_areas == (1024, 4096)
    assert cm.columns.protocols == (Protocol.CLIENT_GARBLER, Protocol.SERVER_GARBLER)
    got = cm.offline_rates + cm.online_rates
    for i, (rate, golden) in enumerate(zip(got, GOLDEN_OFFLINE + GOLDEN_ONLINE, strict=True)):
        if golden < 1e-15:
            assert 0.0 <= rate <= 1e-15, i
        else:
            assert rate == pytest.approx(golden, rel=1e-12, abs=0.0), i


@st.composite
def systems(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    m = draw(st.integers(n, 16))
    # columns a few orders of magnitude apart, as in the calibration design
    scale = 10.0 ** rng.uniform(-3, 3, size=n)
    return rng.standard_normal((m, n)) * scale, rng.standard_normal(m)


@given(systems())
@settings(max_examples=200, deadline=None)
def test_nnls_meets_kkt_and_matches_scipy(system):
    a, b = system
    x = nnls(a, b)
    grad = a.T @ (b - a @ x)  # minus the gradient of ||ax - b||^2 / 2
    tol = 1e-9 * np.linalg.norm(a, axis=0) * np.linalg.norm(b)
    assert (x >= 0).all()
    assert (grad[x == 0] <= tol[x == 0]).all()
    assert (np.abs(grad[x > 0]) <= tol[x > 0]).all()
    scipy_optimize = pytest.importorskip("scipy.optimize")
    want = scipy_optimize.nnls(a, b)[0]
    assert np.allclose(x, want, rtol=1e-7, atol=1e-9 * np.abs(want).max(initial=1.0))


def test_nnls_iteration_cap_raises():
    a = np.eye(3)
    b = np.ones(3)
    # each of the three columns takes one step to free
    assert np.allclose(nnls(a, b, max_iter=3), 1.0)
    with pytest.raises(InconsistentRows):
        nnls(a, b, max_iter=2)
