"""Fitting component rates from the measured-cost table."""

import dataclasses
import io
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pisim.cli
import pisim.costmodel
from pisim.costmodel import (
    CommInputs,
    InconsistentRows,
    InsufficientRows,
    MeasuredCosts,
    Protocol,
    TableFormatError,
    load_shipped_costs,
    read_measured_costs,
    write_measured_costs,
)
from pisim.costmodel.calibrate import calibrate, nnls
from pisim.costmodel.shipped import FIT_FILENAME, write_fit
from pisim.costmodel.tables import MEASURED_COSTS_FILENAME, open_shipped, read_optimizations
from pisim.netarch import build_preset


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


def test_he_share_anchors_are_the_prior_rows(rows, cm):
    # the prior pins, per input area, the cg row with the most conv FLOPs
    best = {}
    for row in rows:
        if row.protocol is Protocol.CLIENT_GARBLER:
            s = CommInputs.from_arch(build_preset(row.model, row.dataset))
            if s.area not in best or s.conv_flops > best[s.area][0]:
                best[s.area] = (s.conv_flops, f"cg/{row.model}/{row.dataset}")
    anchors = set(cm.report.he_share_anchors)
    assert anchors == {label for _, label in best.values()}
    assert anchors == {"cg/resnet18/c100", "cg/resnet18/tiny"}


def test_calibrated_protocols_cover_both(cm):
    assert cm.calibrated_protocols == frozenset(Protocol)


def test_package_attribute_calibrate_is_the_submodule(monkeypatch):
    calibrate_module = sys.modules["pisim.costmodel.calibrate"]
    assert pisim.costmodel.calibrate is calibrate_module
    assert pisim.costmodel.calibrate.calibrate is calibrate
    assert "calibrate" not in pisim.costmodel.__all__
    # until the submodule's import binds it, the package imports it on first use
    monkeypatch.delattr(pisim.costmodel, "calibrate")
    assert pisim.costmodel.calibrate is calibrate_module
    with pytest.raises(AttributeError, match="^module 'pisim.costmodel' has no attribute 'fit'$"):
        pisim.costmodel.fit


def test_tight_tolerance_rejected(rows, monkeypatch):
    monkeypatch.setattr("pisim.costmodel.calibrate.LATENCY_TOLERANCE", 1e-4)
    with pytest.raises(InconsistentRows):
        calibrate(rows)


def test_wire_time_exceeding_latency_rejected(rows):
    bloated = dataclasses.replace(
        rows[0],
        offline_comm_bytes=int(
            2 * rows[0].offline_latency_s * rows[0].bandwidth_bytes_per_s
        ),
    )
    with pytest.raises(InconsistentRows):
        calibrate(rows[1:] + [bloated])


def _scaled(row, field, factor):
    return dataclasses.replace(row, **{field: int(getattr(row, field) * factor)})


def _gc_field(row):
    """The storage column of the party that holds the garbled circuits."""
    if row.protocol is Protocol.SERVER_GARBLER:
        return "client_storage_bytes"
    return "server_storage_bytes"


@pytest.mark.parametrize(
    "edit, error, message",
    [
        (lambda rows: [], InsufficientRows, "^no measured rows to calibrate from$"),
        (lambda rows: [_scaled(rows[0], _gc_field(rows[0]), 1.5)] + rows[1:], InconsistentRows,
         r"^per-row GC storage rates disagree by \d+\.\d% \(tolerance 5%\)$"),
        (lambda rows: [_scaled(r, _gc_field(r), 0) for r in rows], InconsistentRows,
         "^fitted GC storage rate is not positive$"),
        (lambda rows: [_scaled(rows[0], "server_storage_bytes", 2)] + rows[1:], InconsistentRows,
         r"^storage residuals exceed 5% \(worst \d+\.\d%\)$"),
    ],
    ids=["no-rows", "gc-rates-disagree", "gc-rate-not-positive", "storage-residual"],
)
def test_bad_rows_rejected(rows, edit, error, message):
    with pytest.raises(error, match=message):
        calibrate(edit(list(rows)))


def test_tsv_roundtrip_preserves_rows(rows):
    buf = io.StringIO()
    write_measured_costs(buf, rows)
    buf.seek(0)
    assert read_measured_costs(buf) == rows


def test_tsv_missing_columns():
    missing = ("['dataset', 'offline_latency_s', 'online_latency_s', 'client_storage_bytes', "
               "'server_storage_bytes', 'bandwidth_bytes_per_s']")
    with pytest.raises(TableFormatError, match=re.escape(
            f"measured-costs table missing columns: {missing}")):
        read_measured_costs(io.StringIO("protocol\tmodel\nsg\tresnet32\n"))


COSTS_HEADER = (
    "protocol\tmodel\tdataset\toffline_latency_s\tonline_latency_s\t"
    "client_storage_bytes\tserver_storage_bytes\tbandwidth_bytes_per_s\t"
    "offline_comm_bytes\tonline_comm_bytes\n"
)
KNOBS_HEADER = "name\trelu_factor\tflop_factor\tgc_per_relu_factor\the_per_flop_factor\tnotes\n"


def test_tsv_bad_number():
    line = "sg\tresnet32\tc100\tnope\t9.4\t1\t1\t1e8\t1\t1\n"
    with pytest.raises(TableFormatError,
                       match="^measured-costs line 2: could not convert string to float: 'nope'$"):
        read_measured_costs(io.StringIO(COSTS_HEADER + line))


@pytest.mark.parametrize(
    "read, text, message",
    [
        (read_measured_costs, "", "^empty measured-costs table$"),
        (read_optimizations, "", "^empty optimizations table$"),
        (read_measured_costs, COSTS_HEADER + "sg\tresnet32\tc100\t115\n",
         "^measured-costs line 2: could not convert string to float: ''$"),
        (read_optimizations, KNOBS_HEADER + "x\t0.5\n",
         "^optimizations line 2: could not convert string to float: ''$"),
        (read_measured_costs, COSTS_HEADER + "sg\tresnet32\tc100\t1\t1\t1\t1\t1\t1\t1\n"
         "mg\tresnet32\tc100\t1\t1\t1\t1\t1\t1\t1\n",
         "^measured-costs line 3: unknown protocol 'mg'; use sg or cg$"),
        (read_optimizations, KNOBS_HEADER + "x\t0\t1\t1\t1\t\n",
         "^optimizations line 2: knob factors must be finite and positive, got 0.0$"),
        (read_measured_costs, COSTS_HEADER + "\n\nmg\tresnet32\tc100\t1\t1\t1\t1\t1\t1\t1\n",
         "^measured-costs line 4: unknown protocol 'mg'; use sg or cg$"),
        (read_optimizations, KNOBS_HEADER + "y\t1\t1\t1\t1\t\n\n\nx\t0\t1\t1\t1\t\n",
         "^optimizations line 5: knob factors must be finite and positive, got 0.0$"),
        (read_optimizations, "name\trelu_factor\tnotes\nx\t1\t\n",
         r"^optimizations table missing columns: "
         r"\['flop_factor', 'gc_per_relu_factor', 'he_per_flop_factor'\]$"),
    ],
    ids=["costs-empty", "knobs-empty", "costs-short-row", "knobs-short-row",
         "costs-bad-protocol", "knobs-bad-factor", "costs-after-blank-lines",
         "knobs-after-blank-lines", "knobs-missing-columns"],
)
def test_malformed_table_message(read, text, message):
    with pytest.raises(TableFormatError, match=message):
        read(io.StringIO(text))


@pytest.mark.parametrize(
    "header, cells",
    [
        (COSTS_HEADER, "\t-\t-"),
        (COSTS_HEADER, "\t\t"),
        (COSTS_HEADER, ""),
        (COSTS_HEADER.replace("\toffline_comm_bytes\tonline_comm_bytes", ""), ""),
    ],
    ids=["dash", "empty", "short-row", "absent"],
)
def test_unmeasured_comm_cells_read_as_none(header, cells):
    (row,) = read_measured_costs(
        io.StringIO(header + "cg\tresnet32\tc100\t1.5\t2\t3\t4\t1e8" + cells + "\n"))
    assert row.offline_comm_bytes is None and row.online_comm_bytes is None
    assert row == MeasuredCosts(Protocol.CLIENT_GARBLER, "resnet32", "c100", 1.5, 2.0, 3, 4, 1e8)


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


def test_nnls_steps_back_from_a_non_positive_solution(monkeypatch):
    """A system whose unconstrained solution on the passive columns has an
    entry <= 0, so nnls takes the step toward it that stops at the first
    blocking entry; the result still matches scipy."""
    rng = np.random.default_rng(33)
    n = rng.integers(1, 8)
    m = rng.integers(n, 16)
    scale = 10.0 ** rng.uniform(-3, 3, size=n)
    a = rng.standard_normal((m, n)) * scale
    b = rng.standard_normal(m)
    assert a.shape == (10, 7)
    solutions = []
    lstsq = np.linalg.lstsq

    def recorded(*args, **kwargs):
        result = lstsq(*args, **kwargs)
        solutions.append(result[0])
        return result

    monkeypatch.setattr(np.linalg, "lstsq", recorded)
    x = nnls(a, b)
    monkeypatch.undo()
    assert any((z <= 0).any() for z in solutions)
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


def test_the_shipped_fit_is_kept_per_table_text(rows, tmp_path, monkeypatch):
    """Loads of one table share one fit; a shadow table with other text is
    fitted afresh, and the shipped table again after it."""
    shipped = pisim.costmodel.load_shipped_model()
    assert pisim.costmodel.load_shipped_model() is shipped
    with open(tmp_path / "measured_costs.tsv", "w") as fh:
        write_measured_costs(fh, rows[::-1])
    monkeypatch.setenv("PISIM_CONFIG_DIR", str(tmp_path))
    shadow = pisim.costmodel.load_shipped_model()
    assert shadow is not shipped
    assert shadow.offline_rates == shipped.offline_rates
    assert shadow.online_rates == shipped.online_rates
    monkeypatch.delenv("PISIM_CONFIG_DIR")
    again = pisim.costmodel.load_shipped_model()
    assert again is not shadow and again.report == shipped.report


def _floats(model):
    """Every float of a model's fit and report, as float.hex."""
    report = model.report
    values = (model.gc_bytes_per_relu, *model.offline_rates, *model.online_rates,
              model.calibrated_bandwidth, report.max_latency_residual,
              report.max_storage_residual,
              *(x for _, off, on in report.row_residuals for x in (off, on)),
              *report.he_share_anchors.values())
    return [v.hex() for v in values]


def test_the_shipped_fit_is_the_fit_of_the_shipped_table(monkeypatch):
    """The fit file is derived data, like a lockfile: refitting the packaged
    table gives the loaded model to the last bit, and the file is what
    write_fit writes for that refit. After editing measured_costs.tsv,
    rerun scripts/generate_configs.py."""
    monkeypatch.delenv("PISIM_CONFIG_DIR", raising=False)
    with open_shipped(MEASURED_COSTS_FILENAME) as stream:
        table_text = stream.read()
    with open_shipped(FIT_FILENAME) as stream:
        fit_text = stream.read()
    refit = calibrate(read_measured_costs(io.StringIO(table_text)))
    loaded = pisim.costmodel.load_shipped_model()
    assert loaded == refit
    assert _floats(loaded) == _floats(refit)
    written = io.StringIO()
    write_fit(written, refit, table_text)
    assert written.getvalue() == fit_text


def _shadow(tmp_path, monkeypatch, rows):
    with open(tmp_path / MEASURED_COSTS_FILENAME, "w") as fh:
        write_measured_costs(fh, rows)
    monkeypatch.setenv("PISIM_CONFIG_DIR", str(tmp_path))


def test_a_shadow_with_one_latency_edited_is_refit(rows, tmp_path, monkeypatch):
    shipped = pisim.costmodel.load_shipped_model()
    edited = [dataclasses.replace(rows[0], online_latency_s=rows[0].online_latency_s * 1.02),
              *rows[1:]]
    _shadow(tmp_path, monkeypatch, edited)
    shadow = pisim.costmodel.load_shipped_model()
    refit = calibrate(load_shipped_costs())  # the shadow's rows, as written
    assert refit.table != shipped.table
    assert shadow == refit
    assert _floats(shadow) == _floats(refit)
    assert shadow.online_rates != shipped.online_rates
    assert pisim.costmodel.load_shipped_model() is shadow


def test_a_shadow_that_fails_validation_raises_as_its_fit_does(rows, tmp_path, monkeypatch,
                                                                capsys):
    edited = [dataclasses.replace(rows[0], online_latency_s=rows[0].online_latency_s * 3),
              *rows[1:]]
    with pytest.raises(InconsistentRows) as fitted:
        calibrate(edited)
    pisim.costmodel.load_shipped_model()  # the shipped fit must not hide a bad table
    _shadow(tmp_path, monkeypatch, edited)
    with pytest.raises(InconsistentRows) as loaded:
        pisim.costmodel.load_shipped_model()
    assert str(loaded.value) == str(fitted.value)
    assert str(fitted.value).startswith("latency residuals exceed 10%: sg/resnet32/c100")
    capsys.readouterr()
    assert pisim.cli.main(["cost"]) == InconsistentRows.exit_code == 2
    assert capsys.readouterr().err == f"error: {fitted.value}\n"
