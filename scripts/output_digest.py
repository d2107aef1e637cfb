"""Print one SHA-256 per group of pisim's refactor-invariant outputs.

    PYTHONPATH=src python3 scripts/output_digest.py

The groups are the outputs a refactor must leave byte-identical:

  cost      stdout (and exit code) of 168 `pisim cost` runs: every preset
            model x dataset x protocol under 14 mode, knob and bandwidth
            variants
  rates     the calibrated rates (as float.hex) and the repr of the
            CalibrationReport of the shipped model, as load_shipped_model
            reads them from the shipped fit file
  sweeps    the full-profile CSVs of `sweep @fig4_c100` and `@fig5_tiny`
  blocks    stdout and CSV of `simulate` at 0.5 req/s over 24 h with 100
            runs, serial and pipelined: each point spans five blocks of
            runs (engine.BLOCK_ELEMENTS), where every sweep point fits one
  verify    stdout of `verify --trials 100` at seeds 0 to 3 (five blocks
            of 18 trials, then a partial block of 10), of one protocol on
            one partial block (`--protocol cg --trials 5`), and of one
            trial on toy8 at seed 7
  transcripts
            the JSONL of the sg and cg transcripts that
            `verify_against_plaintext` keeps for toy_cnn on cifar100, one
            trial at seeds 0 to 3

It digests whichever pisim is first on the import path, so the same file
checks a `git archive` of another commit when PYTHONPATH points there. It
takes no options and runs in a few seconds. tests/output_digests.txt holds
the digests every group must keep, and tests/test_output_digests.py checks
them in process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pisim.cli
from pisim.cli import main
from pisim.costmodel import load_shipped_model
from pisim.netarch import build_preset
from pisim.protocol import verify_against_plaintext

MODELS = ("resnet32", "vgg16", "resnet18")
DATASETS = ("cifar100", "tinyimagenet")
PROTOCOLS = ("sg", "cg")
COST_VARIANTS = (
    (),
    ("--mode", "component"),
    ("--bandwidth", "1e7"),
    ("--mode", "component", "--bandwidth", "1e9"),
    *(("--knobs", name) for name in (
        "delphi", "cryptonas", "safenet", "circa", "deepreduce", "deepreduce_circa", "falcon",
    )),
    ("--knobs", "relu=0.2"),
    ("--knobs", "gc=0.5,he=0.5"),
    ("--knobs", "flop_factor=2,he_per_flop=0.7", "--bandwidth", "3e8"),
)


def run(argv: list[str]) -> str:
    """One CLI call's exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"$ {' '.join(argv)}\n[{code}]\n{out.getvalue()}"


def cost_text() -> str:
    return "".join(
        run(["cost", "--model", m, "--dataset", d, "--protocol", p, *variant])
        for m in MODELS for d in DATASETS for p in PROTOCOLS for variant in COST_VARIANTS
    )


def rates_text() -> str:
    cm = load_shipped_model()
    rates = (cm.gc_bytes_per_relu, *cm.offline_rates, *cm.online_rates, cm.calibrated_bandwidth)
    return f"{cm.columns!r} {' '.join(float(r).hex() for r in rates)}\n{cm.report!r}\n"


def sweeps_text() -> str:
    parts = []
    with tempfile.TemporaryDirectory() as tmp:
        for spec in ("fig4_c100", "fig5_tiny"):
            run(["sweep", "@" + spec, "--jobs", "1", "--out", tmp])
            parts.append(spec + "\n" + (Path(tmp) / f"{spec}.csv").read_text())
    return "".join(parts)


def blocks_text() -> str:
    parts = []
    with tempfile.TemporaryDirectory() as tmp:
        for concurrency in ("serial", "pipelined"):
            argv = ["simulate", "--rates", "0.5", "--horizon", "86400", "--runs", "100",
                    "--concurrency", concurrency, "--out", tmp]
            parts.append(run(argv).replace(tmp, "OUT") + (Path(tmp) / "adhoc.csv").read_text())
    return "".join(parts)


def verify_text() -> str:
    return "".join(
        run(argv) for argv in (
            *(["verify", "--trials", "100", "--seed", str(s)] for s in range(4)),
            ["verify", "--protocol", "cg", "--trials", "5"],
            ["verify", "--dataset", "toy8", "--trials", "1", "--seed", "7"],
        )
    )


def transcripts_text() -> str:
    arch = build_preset("toy_cnn", "cifar100")
    parts = []
    for s in range(4):
        result = verify_against_plaintext(arch, seed=s, trials=1)
        for protocol, transcript in result.transcripts.items():
            parts.append(f"seed {s} {protocol.value}\n{transcript.to_jsonl()}")
    return "".join(parts)


GROUPS = {
    "cost": cost_text,
    "rates": rates_text,
    "sweeps": sweeps_text,
    "blocks": blocks_text,
    "verify": verify_text,
    "transcripts": transcripts_text,
}


def digest(group: str) -> str:
    """The SHA-256 of one group's text."""
    return hashlib.sha256(GROUPS[group]().encode()).hexdigest()


def main_digest() -> None:
    print(f"pisim from {Path(pisim.cli.__file__).parent}")
    for name in GROUPS:
        print(f"{name:<12}{digest(name)}")


if __name__ == "__main__":
    main_digest()
