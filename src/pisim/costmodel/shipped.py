"""The shipped cost model: the fit of the packaged measured-costs table,
kept as data.

`calibrate()` fits the packaged table once, when
scripts/generate_configs.py writes it, and `write_fit` stores the result
beside it in FIT_FILENAME: the columns, the GC rate, both rate vectors,
the bandwidth and the CalibrationReport, every float as float.hex, then
the table text they were fitted from. `load_shipped_model` rebuilds the
model from that file without the fitter or numpy, and fits only a table
whose text differs from the one the file holds, such as a shadow under
PISIM_CONFIG_DIR. A Tier-1 test refits the packaged table and requires
the file to be exactly what `write_fit` writes for that fit, so the file
is derived data, like a lockfile.
"""

from __future__ import annotations

import functools
import io
from typing import TextIO

from .formula import Columns
from .tables import (
    MEASURED_COSTS_FILENAME,
    measured_table,
    open_config,
    open_shipped,
    read_measured_costs,
)
from .types import CalibrationReport, CostModel, Protocol

FIT_FILENAME = "measured_costs.fit"
# The line after which the fit file holds its table text, to the end.
_TABLE_LINE = "table\n"


def write_fit(stream: TextIO, model: CostModel, table_text: str) -> None:
    """Write model's fit of table_text in the fit file's format."""
    columns, report = model.columns, model.report
    lines = [
        ["conv_areas", *columns.conv_areas],
        ["fc_areas", *columns.fc_areas],
        ["protocols", *(p.short for p in columns.protocols)],
        ["gc_bytes_per_relu", model.gc_bytes_per_relu.hex()],
        ["offline_rates", *(r.hex() for r in model.offline_rates)],
        ["online_rates", *(r.hex() for r in model.online_rates)],
        ["calibrated_bandwidth", model.calibrated_bandwidth.hex()],
        ["max_latency_residual", report.max_latency_residual.hex()],
        ["max_storage_residual", report.max_storage_residual.hex()],
        *(["row_residual", label, off.hex(), on.hex()]
          for label, off, on in report.row_residuals),
        *(["he_share_anchor", label, share.hex()]
          for label, share in report.he_share_anchors.items()),
    ]
    stream.write("".join("\t".join(map(str, line)) + "\n" for line in lines))
    stream.write(_TABLE_LINE + table_text)


def read_fit(stream: TextIO) -> tuple[str, CostModel]:
    """The table text of a fit file, and the model it holds for that table."""
    head, _, table_text = stream.read().partition("\n" + _TABLE_LINE)
    lines: dict[str, list[list[str]]] = {}
    for line in head.splitlines():
        key, *values = line.split("\t")
        lines.setdefault(key, []).append(values)

    def one(key: str, parse=float.fromhex) -> tuple:
        """The values of key's one line, parsed."""
        (values,) = lines[key]
        return tuple(parse(v) for v in values)

    model = CostModel(
        gc_bytes_per_relu=one("gc_bytes_per_relu")[0],
        columns=Columns(
            conv_areas=one("conv_areas", int),
            fc_areas=one("fc_areas", int),
            protocols=one("protocols", Protocol.parse),
        ),
        offline_rates=one("offline_rates"),
        online_rates=one("online_rates"),
        calibrated_bandwidth=one("calibrated_bandwidth")[0],
        table=measured_table(read_measured_costs(io.StringIO(table_text))),
        report=CalibrationReport(
            max_latency_residual=one("max_latency_residual")[0],
            max_storage_residual=one("max_storage_residual")[0],
            row_residuals=tuple((label, float.fromhex(off), float.fromhex(on))
                                for label, off, on in lines["row_residual"]),
            he_share_anchors={label: float.fromhex(share)
                              for label, share in lines["he_share_anchor"]},
        ),
    )
    return table_text, model


def load_shipped_model() -> CostModel:
    """The cost model of the packaged measured-costs table, or of its
    shadow under PISIM_CONFIG_DIR.

    The table is read on every call. Text equal to the fit file's table
    reads the shipped fit; other text is fitted by `calibrate()` and
    validated. A table whose text equals the last one loaded is not read
    into a model again: such calls share one model, which must not be
    mutated. A table that fails to parse or calibrate is not kept.
    """
    with open_config(MEASURED_COSTS_FILENAME) as stream:
        return _model_of(stream.read())


@functools.lru_cache(maxsize=1)
def _model_of(text: str) -> CostModel:
    with open_shipped(FIT_FILENAME) as stream:
        table_text, model = read_fit(stream)
    if text == table_text:
        return model
    from .calibrate import calibrate

    return calibrate(read_measured_costs(io.StringIO(text)))
