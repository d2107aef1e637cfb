"""Regenerate the packaged config files under src/pisim/configs/.

    PYTHONPATH=src python3 scripts/generate_configs.py

Latency numbers are the measured testbed values; comm and storage
columns are filled in from the structural byte model so the shipped
table is self-consistent with the calibration code. The shipped fit,
measured_costs.fit, is the cost model `calibrate()` fits from that
table, written by `write_fit`.
"""

from __future__ import annotations

import io
from pathlib import Path

from pisim.costmodel import (
    CommInputs,
    MeasuredCosts,
    Protocol,
    offline_comm,
    online_comm,
    storage_deltas,
    read_measured_costs,
    write_measured_costs,
)
from pisim.costmodel.calibrate import calibrate
from pisim.costmodel.shipped import FIT_FILENAME, write_fit
from pisim.costmodel.tables import KNOB_COLUMNS
from pisim.netarch import build_preset, serialize

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "pisim" / "configs"

BANDWIDTH = 1e8

# (protocol, model, dataset) -> (offline s, online s), measured on the
# reference testbed at 100 MB/s.
LATENCIES = {
    ("sg", "resnet32", "c100"): (115.2, 9.4),
    ("sg", "vgg16", "c100"): (295.6, 9.4),
    ("sg", "resnet18", "c100"): (420.8, 17.2),
    ("sg", "resnet32", "tiny"): (401.9, 39.6),
    ("sg", "vgg16", "tiny"): (814.7, 34.2),
    ("sg", "resnet18", "tiny"): (1594.0, 68.5),
    ("cg", "resnet32", "c100"): (109.1, 11.9),
    ("cg", "vgg16", "c100"): (289.9, 11.6),
    ("cg", "resnet18", "c100"): (409.6, 21.8),
    ("cg", "resnet32", "tiny"): (377.4, 49.6),
    ("cg", "vgg16", "tiny"): (792.2, 43.4),
    ("cg", "resnet18", "tiny"): (1549.1, 86.9),
}

# name -> (one factor per knob, in KNOB_COLUMNS order, then notes)
OPTIMIZATIONS = {
    "delphi": (0.5, 1.0, 1.0, 1.0, "relu pruning via nas"),
    "cryptonas": (0.25, 2.0, 1.0, 1.0, "relu budget search, heavier linear layers"),
    "safenet": (0.25, 1.0, 1.0, 1.0, "channelwise relu pruning"),
    "circa": (1.0, 1.0, 0.5, 1.0, "cheaper stochastic relu gadget"),
    "deepreduce": (0.2, 0.5, 1.0, 1.0, "relu and flop co-pruning"),
    "deepreduce_circa": (0.2, 0.5, 0.5, 1.0, "pruning stacked on cheaper gadget"),
    "falcon": (0.05, 0.5, 1.0, 0.5, "aggressive pruning, packed he"),
}

# (model, dataset) of each shipped archs/<model>.arch file
ARCHS = [("resnet32", "c100"), ("vgg16", "c100"), ("resnet18", "c100"), ("toy_cnn", "toy8")]


def make_costs() -> str:
    rows = []
    for (prot, model, dataset), (off, on) in LATENCIES.items():
        protocol = Protocol.parse(prot)
        sizes = CommInputs.from_arch(build_preset(model, dataset))
        deltas = storage_deltas(protocol, sizes)
        rows.append(
            MeasuredCosts(
                protocol=protocol,
                model=model,
                dataset=dataset,
                offline_latency_s=off,
                online_latency_s=on,
                client_storage_bytes=deltas.client_bytes,
                server_storage_bytes=deltas.server_bytes,
                bandwidth_bytes_per_s=BANDWIDTH,
                offline_comm_bytes=offline_comm(protocol, sizes).total_bytes,
                online_comm_bytes=online_comm(protocol, sizes).total_bytes,
            )
        )
    buf = io.StringIO()
    write_measured_costs(buf, rows)
    return buf.getvalue()


def make_fit(costs: str) -> str:
    """The fit file of the measured-costs table text costs."""
    buf = io.StringIO()
    write_fit(buf, calibrate(read_measured_costs(io.StringIO(costs))), costs)
    return buf.getvalue()


def make_optimizations() -> str:
    lines = ["\t".join(KNOB_COLUMNS)]
    for name, (*factors, notes) in OPTIMIZATIONS.items():
        lines.append("\t".join([name, *(f"{f:g}" for f in factors), notes]))
    return "\n".join(lines) + "\n"


def main() -> None:
    CONFIG_DIR.mkdir(parents=True, exist_ok=True)
    costs = make_costs()
    (CONFIG_DIR / "measured_costs.tsv").write_text(costs)
    (CONFIG_DIR / FIT_FILENAME).write_text(make_fit(costs))
    (CONFIG_DIR / "optimizations.tsv").write_text(make_optimizations())
    arch_dir = CONFIG_DIR / "archs"
    arch_dir.mkdir(exist_ok=True)
    for model, dataset in ARCHS:
        (arch_dir / f"{model}.arch").write_text(serialize(build_preset(model, dataset)))
    print(f"wrote configs under {CONFIG_DIR}")


if __name__ == "__main__":
    main()
