"""Reading and writing measured-cost and optimization tables.

Both tables are tab-separated with a header row. Missing optional
values are written as "-"; a row shorter than the header reads its
missing cells as empty, which the value parsers reject. The copies
shipped under pisim/configs/ can be overridden by pointing
PISIM_CONFIG_DIR at a directory with the same file names.
"""

from __future__ import annotations

import csv
import os
from importlib import resources
from pathlib import Path
from typing import Iterable, TextIO

from .types import (
    KNOB_FACTORS,
    CostModelError,
    MeasuredCosts,
    OptimizationKnobs,
    Protocol,
    UnknownOptimization,
)

MEASURED_COSTS_FILENAME = "measured_costs.tsv"
OPTIMIZATIONS_FILENAME = "optimizations.tsv"

_COST_COLUMNS = [
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


class TableFormatError(CostModelError, ValueError):
    """A measured-costs or optimizations table that does not parse."""


def _opt_int(text: str) -> int | None:
    return None if text == "-" else int(text)


def read_measured_costs(stream: TextIO) -> list[MeasuredCosts]:
    reader = csv.DictReader(stream, delimiter="\t", restval="")
    if reader.fieldnames is None:
        raise TableFormatError("empty measured-costs table")
    missing = [c for c in _COST_COLUMNS[:8] if c not in reader.fieldnames]
    if missing:
        raise TableFormatError(f"measured-costs table missing columns: {missing}")
    rows = []
    for lineno, raw in enumerate(reader, start=2):
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
            raise TableFormatError(f"measured-costs line {lineno}: {exc}") from exc
    return rows


def write_measured_costs(stream: TextIO, rows: Iterable[MeasuredCosts]) -> None:
    writer = csv.writer(stream, delimiter="\t", lineterminator="\n")
    writer.writerow(_COST_COLUMNS)
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
    for lineno, raw in enumerate(reader, start=2):
        try:
            name = raw["name"].strip()
            factors = {f: float(raw[f]) for f in KNOB_FACTORS}
            knobs[name] = OptimizationKnobs(name=name, **factors)
        except (KeyError, ValueError) as exc:
            raise TableFormatError(f"optimizations line {lineno}: {exc}") from exc
    return knobs


def config_dir() -> Path | None:
    """Directory overriding the shipped configs, if the user set one."""
    override = os.environ.get("PISIM_CONFIG_DIR", "").strip()
    return Path(override) if override else None


def open_config(filename: str):
    """Open a shipped config file, or its shadow under PISIM_CONFIG_DIR."""
    override = config_dir()
    if override is not None:
        path = override / filename
        if path.exists():
            return path.open("r", encoding="utf-8")
    ref = resources.files("pisim").joinpath("configs").joinpath(filename)
    return ref.open("r", encoding="utf-8")


def load_shipped_costs() -> list[MeasuredCosts]:
    with open_config(MEASURED_COSTS_FILENAME) as stream:
        return read_measured_costs(stream)


def load_optimizations() -> dict[str, OptimizationKnobs]:
    with open_config(OPTIMIZATIONS_FILENAME) as stream:
        return read_optimizations(stream)


def get_optimization(name: str) -> OptimizationKnobs:
    """A shipped optimization by name; none, identity and baseline name no
    optimization at all."""
    key = name.strip().lower()
    if key in ("none", "identity", "baseline"):
        return OptimizationKnobs()
    knobs = load_optimizations()
    if key not in knobs:
        known = ", ".join(sorted(knobs))
        raise UnknownOptimization(f"unknown optimization {name!r}; known: {known}")
    return knobs[key]
