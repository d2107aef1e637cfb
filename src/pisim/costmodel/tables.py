"""Reading and writing measured-cost and optimization tables.

Both tables are tab-separated with a header row. Missing optional
values are written as "-"; a row shorter than the header reads its
missing cells as empty, which only optional columns accept. The copies
shipped under pisim/configs/ can be overridden by pointing
PISIM_CONFIG_DIR at a directory with the same file names.
"""

from __future__ import annotations

import csv
import os
from dataclasses import MISSING, fields
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, TextIO

from ..netarch import canonical_dataset
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

# The measured-costs columns are MeasuredCosts' fields in order; a field
# with a default is an optional column. Each field type's cell reader
# and writer: an optional count reads "-", an empty cell or an absent
# column as None and writes None as "-".
_COST_FIELDS = fields(MeasuredCosts)
_CELLS = {
    "Protocol": (Protocol.parse, lambda p: p.short),
    "str": (str.strip, lambda s: s),
    "float": (float, lambda x: f"{x:g}"),
    "int": (int, lambda n: n),
    "int | None": (lambda t: int(t) if t not in ("", "-") else None,
                   lambda n: "-" if n is None else n),
}

KNOB_COLUMNS = ["name", *KNOB_FACTORS, "notes"]


class TableFormatError(CostModelError, ValueError):
    """A measured-costs or optimizations table that does not parse."""


def _read_rows(stream: TextIO, table: str, required: list[str], parse: Callable) -> list:
    """Each row's cells, by column name, through parse."""
    reader = csv.DictReader(stream, delimiter="\t", restval="")
    if reader.fieldnames is None:
        raise TableFormatError(f"empty {table} table")
    missing = [c for c in required if c not in reader.fieldnames]
    if missing:
        raise TableFormatError(f"{table} table missing columns: {missing}")
    rows = []
    for raw in reader:
        try:
            rows.append(parse(raw))
        except ValueError as exc:
            # line_num counts physical lines, blank ones too
            raise TableFormatError(f"{table} line {reader.line_num}: {exc}") from exc
    return rows


def read_measured_costs(stream: TextIO) -> list[MeasuredCosts]:
    required = [f.name for f in _COST_FIELDS if f.default is MISSING]
    return _read_rows(stream, "measured-costs", required, lambda raw: MeasuredCosts(
        **{f.name: _CELLS[f.type][0](raw.get(f.name, "")) for f in _COST_FIELDS}))


def write_measured_costs(stream: TextIO, rows: Iterable[MeasuredCosts]) -> None:
    writer = csv.writer(stream, delimiter="\t", lineterminator="\n")
    writer.writerow(f.name for f in _COST_FIELDS)
    for row in rows:
        writer.writerow(_CELLS[f.type][1](getattr(row, f.name)) for f in _COST_FIELDS)


def measured_table(rows: Iterable[MeasuredCosts]) -> dict[tuple, MeasuredCosts]:
    """The rows by (protocol, model, canonical dataset), as table-mode
    queries look them up."""
    return {(r.protocol, r.model, canonical_dataset(r.dataset)): r for r in rows}


def read_optimizations(stream: TextIO) -> dict[str, OptimizationKnobs]:
    rows = _read_rows(stream, "optimizations", KNOB_COLUMNS[:-1], lambda raw: OptimizationKnobs(
        name=raw["name"].strip(), **{f: float(raw[f]) for f in KNOB_FACTORS}))
    return {knobs.name: knobs for knobs in rows}


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
    return open_shipped(filename)


def open_shipped(filename: str):
    """Open a config file shipped in the package, whatever PISIM_CONFIG_DIR holds."""
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
