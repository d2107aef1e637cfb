"""Reference text-input code for the equivalence tests.

These are the original measured-costs and optimizations table readers and
writer, with the measured-costs schema spelled out column by column, and
the original experiment-spec value parsers, each with its own list split,
choice check and integer bound. `pisim.costmodel.tables` and `pisim.cli`
must agree with them: the same bytes written, and on any text the same
rows or value, or the same exception type and message. The table readers
name a bad row by its physical line (csv's line_num), blank lines
counted, as pisim's readers do.
"""

from __future__ import annotations

import csv
import math
from typing import Iterable, TextIO

from pisim.cli import SpecError
from pisim.costmodel import MeasuredCosts, OptimizationKnobs, Protocol, TableFormatError
from pisim.costmodel.query import COST_MODES
from pisim.costmodel.types import KNOB_FACTORS
from pisim.desim import PIPELINED, SERIAL

COST_COLUMNS = [
    "protocol",
    "model",
    "dataset",
    "offline_latency_s",
    "online_latency_s",
    "client_storage_bytes",
    "server_storage_bytes",
    "bandwidth_bytes_per_s",
    "offline_comm_bytes",
    "online_comm_bytes",
]

KNOB_COLUMNS = ["name", *KNOB_FACTORS, "notes"]


# --- tables -------------------------------------------------------------------


def _opt_int(text: str) -> int | None:
    return None if text == "-" else int(text)


def read_measured_costs(stream: TextIO) -> list[MeasuredCosts]:
    reader = csv.DictReader(stream, delimiter="\t", restval="")
    if reader.fieldnames is None:
        raise TableFormatError("empty measured-costs table")
    missing = [c for c in COST_COLUMNS[:8] if c not in reader.fieldnames]
    if missing:
        raise TableFormatError(f"measured-costs table missing columns: {missing}")
    rows = []
    for raw in reader:
        try:
            rows.append(
                MeasuredCosts(
                    protocol=Protocol.parse(raw["protocol"]),
                    model=raw["model"].strip(),
                    dataset=raw["dataset"].strip(),
                    offline_latency_s=float(raw["offline_latency_s"]),
                    online_latency_s=float(raw["online_latency_s"]),
                    client_storage_bytes=int(raw["client_storage_bytes"]),
                    server_storage_bytes=int(raw["server_storage_bytes"]),
                    bandwidth_bytes_per_s=float(raw["bandwidth_bytes_per_s"]),
                    offline_comm_bytes=_opt_int(raw.get("offline_comm_bytes", "-") or "-"),
                    online_comm_bytes=_opt_int(raw.get("online_comm_bytes", "-") or "-"),
                )
            )
        except (KeyError, ValueError) as exc:
            raise TableFormatError(f"measured-costs line {reader.line_num}: {exc}") from exc
    return rows


def write_measured_costs(stream: TextIO, rows: Iterable[MeasuredCosts]) -> None:
    writer = csv.writer(stream, delimiter="\t", lineterminator="\n")
    writer.writerow(COST_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                row.protocol.short,
                row.model,
                row.dataset,
                f"{row.offline_latency_s:g}",
                f"{row.online_latency_s:g}",
                row.client_storage_bytes,
                row.server_storage_bytes,
                f"{row.bandwidth_bytes_per_s:g}",
                "-" if row.offline_comm_bytes is None else row.offline_comm_bytes,
                "-" if row.online_comm_bytes is None else row.online_comm_bytes,
            ]
        )


def read_optimizations(stream: TextIO) -> dict[str, OptimizationKnobs]:
    reader = csv.DictReader(stream, delimiter="\t", restval="")
    if reader.fieldnames is None:
        raise TableFormatError("empty optimizations table")
    missing = [c for c in KNOB_COLUMNS[:-1] if c not in reader.fieldnames]
    if missing:
        raise TableFormatError(f"optimizations table missing columns: {missing}")
    knobs = {}
    for raw in reader:
        try:
            name = raw["name"].strip()
            factors = {f: float(raw[f]) for f in KNOB_FACTORS}
            knobs[name] = OptimizationKnobs(name=name, **factors)
        except (KeyError, ValueError) as exc:
            raise TableFormatError(f"optimizations line {reader.line_num}: {exc}") from exc
    return knobs


# --- spec values ----------------------------------------------------------------


def parse_rates(text: str) -> tuple[float, ...]:
    rates = tuple(float(t) for t in text.replace(",", " ").split())
    if not rates:
        raise SpecError("empty number list")
    if any(r < 0 for r in rates):
        raise SpecError(f"rates must be non-negative, got {text}")
    return rates


def parse_capacity(text: str) -> float:
    if text.lower() in ("none", "inf", "unbounded"):
        return math.inf
    value = float(text)
    if value < 0:
        raise SpecError(f"capacity must be non-negative, got {text}")
    return value


def parse_caps(text: str) -> tuple[float, ...]:
    out = tuple(parse_capacity(tok) for tok in text.replace(",", " ").split())
    if not out:
        raise SpecError("empty capacity list")
    return out


def parse_names(text: str) -> tuple[str, ...]:
    names = tuple(t for t in text.replace(",", " ").split())
    if not names:
        raise SpecError("empty name list")
    return names


def parse_runs(text: str) -> int:
    runs = int(text)
    if runs < 1:
        raise ValueError(f"need at least 1 run, got {runs}")
    return runs


def parse_seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def parse_formats(text: str) -> tuple[str, ...]:
    fmts = parse_names(text)
    bad = [f for f in fmts if f not in ("csv", "json")]
    if bad:
        raise SpecError(f"unsupported output formats {bad}; choose from csv, json")
    return fmts


def parse_concurrency(text: str) -> str:
    if text not in (SERIAL, PIPELINED):
        raise SpecError(f"concurrency must be {SERIAL!r} or {PIPELINED!r}, got {text!r}")
    return text


def parse_mode(text: str) -> str:
    if text not in COST_MODES:
        names = " or ".join(repr(mode) for mode in COST_MODES)
        raise SpecError(f"mode must be {names}, got {text!r}")
    return text


# Each reference parser by the experiment key whose field declares it.
SPEC_PARSERS = {
    "protocols": parse_names,
    "rates": parse_rates,
    "client_capacity_gb": parse_caps,
    "server_capacity_gb": parse_capacity,
    "concurrency": parse_concurrency,
    "n_runs": parse_runs,
    "seed": parse_seed,
    "mode": parse_mode,
    "formats": parse_formats,
}
