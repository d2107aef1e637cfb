"""End-to-end correctness checks against the plaintext reference."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..costmodel.types import Protocol
from ..errors import PisimError
from ..netarch import NetworkArch, count
from .channel import Transcript
from .compile import gen_weights
from .executor import run_offline, run_online, sample_input
from .oracle import plaintext_forward

# Real-size networks take minutes per masked inference; refuse by
# default so a typo'd model name cannot wedge a terminal.
GUARD_MAX_RELUS = 10_000

# Trials per block: one plaintext pass, and per protocol one offline and
# one online two-party run, over the block's inputs. A block's bundles and
# transients add to peak memory: on `verify --trials 100` (toy_cnn,
# cifar100) blocks of 4, 5 and 6 gave a peak RSS of 46.2, 46.5 and 46.8 MB
# (medians of 3 to 6 runs, against 46.1 MB with one bundle per run and
# plaintext blocks of 6) for 0.19, 0.21 and 0.19 s of CPU a pass at
# reference speed, within run-to-run noise of each other.
TRIAL_BLOCK = 4


class VerifyGuard(PisimError, RuntimeError):
    """A network too large to verify without force."""


@dataclass(frozen=True)
class VerifyResult:
    """Row t of `expected` is trial t's plaintext logits, and row t of
    `logits[protocol]` is the protocol's masked logits for the same
    input; every array is (trials, classes). `transcripts` holds each
    protocol's trial-0 transcript, offline and online phases."""

    expected: np.ndarray
    logits: dict[Protocol, np.ndarray]
    transcripts: dict[Protocol, Transcript]

    def exact(self, protocol: Protocol) -> np.ndarray:
        """One bool per trial: the protocol's logits equal the plaintext's."""
        return (self.logits[protocol] == self.expected).all(axis=1)

    @property
    def ok(self) -> bool:
        return all(self.exact(protocol).all() for protocol in self.logits)


def verify_against_plaintext(
    arch: NetworkArch,
    seed: int = 0,
    trials: int = 1,
    protocols=(Protocol.SERVER_GARBLER, Protocol.CLIENT_GARBLER),
    force: bool = False,
) -> VerifyResult:
    """Run masked inference and compare logits with the plaintext pass.

    Trial t runs on bundle nonce t, so every trial has its own masks and
    shares. Trials run in blocks of up to TRIAL_BLOCK: the block's inputs
    are drawn once, the plaintext pass runs once over them, and each
    protocol builds and consumes the block's bundles in one offline and
    one online run. Matching is exact integer equality. Overflow in the
    reference pass propagates as FieldOverflowRisk before any of its
    block's masked runs. Only trial 0's transcripts are kept, one per
    protocol; a block's transcript is each of its bundles'. Zero or
    negative trials run nothing and give empty (0, classes) arrays.
    """
    relus = count(arch).relus
    if relus > GUARD_MAX_RELUS and not force:
        raise VerifyGuard(
            f"{arch.name} has {relus} relus (> {GUARD_MAX_RELUS}); "
            "pass --force to run anyway"
        )
    protocols = [Protocol.parse(protocol) for protocol in protocols]
    weights = gen_weights(arch, seed)
    trials = max(trials, 0)
    expected = np.empty((trials, arch.dataset.classes), dtype=np.int64)
    logits = {protocol: np.empty_like(expected) for protocol in protocols}
    transcripts = {}
    for start in range(0, trials, TRIAL_BLOCK):
        block = range(start, min(start + TRIAL_BLOCK, trials))
        xs = np.stack([sample_input(arch, seed, trial) for trial in block])
        expected[start:block.stop] = plaintext_forward(arch, weights, xs)
        for protocol in protocols:
            bundle = run_offline(arch, protocol, seed, nonce=block)
            logits[protocol][start:block.stop] = run_online(bundle, xs)
            if start == 0:
                transcripts[protocol] = bundle.transcript
            # free the spent block before the next offline run builds one
            del bundle
    return VerifyResult(expected, logits, transcripts)


def export_transcript(transcript: Transcript, path) -> None:
    Path(path).write_text(transcript.to_jsonl())
