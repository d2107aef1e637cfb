"""End-to-end correctness checks against the plaintext reference."""

from __future__ import annotations

from dataclasses import dataclass, field
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

# Trials per plaintext pass. A block shares each weight matrix's float64
# conversion among its inputs, but its transients add to peak memory: on
# `verify --trials 100` (toy_cnn, cifar100) blocks of 8 cost 0.3 MB more
# than blocks of 6 for 1.4 ms less CPU a pass, and one block of all 100
# trials raised the peak from 46 MB to 57 MB for no CPU saved.
TRIAL_BLOCK = 6


class VerifyGuard(PisimError, RuntimeError):
    """A network too large to verify without force."""


@dataclass(frozen=True)
class TrialOutcome:
    protocol: Protocol
    trial: int
    ok: bool
    logits: tuple[int, ...]
    expected: tuple[int, ...]


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    trials: tuple[TrialOutcome, ...] = field(default_factory=tuple)
    # each protocol's trial-0 transcript, offline and online phases
    transcripts: dict[Protocol, Transcript] = field(default_factory=dict)

    @property
    def failures(self) -> tuple[TrialOutcome, ...]:
        return tuple(t for t in self.trials if not t.ok)


def verify_against_plaintext(
    arch: NetworkArch,
    seed: int = 0,
    trials: int = 1,
    protocols=(Protocol.SERVER_GARBLER, Protocol.CLIENT_GARBLER),
    force: bool = False,
) -> VerifyResult:
    """Run masked inference and compare logits with the plaintext pass.

    Trials vary only the input: every bundle of one (arch, protocol,
    seed) draws the same masks and shares, so each protocol runs with
    one mask set.
    The plaintext pass runs once per block of up to TRIAL_BLOCK trials,
    on inputs drawn once for both. Matching is exact integer equality.
    Overflow in the reference pass propagates as FieldOverflowRisk
    before any of its block's masked runs. Only trial 0's transcripts
    are kept, one per protocol.
    """
    relus = count(arch).relus
    if relus > GUARD_MAX_RELUS and not force:
        raise VerifyGuard(
            f"{arch.name} has {relus} relus (> {GUARD_MAX_RELUS}); "
            "pass --force to run anyway"
        )
    protocols = [Protocol.parse(protocol) for protocol in protocols]
    weights = gen_weights(arch, seed)
    outcomes = []
    transcripts = {}
    for start in range(0, trials, TRIAL_BLOCK):
        block = range(start, min(start + TRIAL_BLOCK, trials))
        xs = np.stack([sample_input(arch, seed, trial) for trial in block])
        for trial, x, expected in zip(block, xs, plaintext_forward(arch, weights, xs)):
            for protocol in protocols:
                bundle = run_offline(arch, protocol, seed)
                online = run_online(bundle, x)
                got = online.logits
                if trial == 0:
                    transcripts[protocol] = online.transcript
                outcomes.append(
                    TrialOutcome(
                        protocol=protocol,
                        trial=trial,
                        ok=bool(np.array_equal(got, expected)),
                        logits=tuple(got.tolist()),
                        expected=tuple(expected.tolist()),
                    )
                )
    return VerifyResult(
        ok=all(t.ok for t in outcomes), trials=tuple(outcomes), transcripts=transcripts
    )


def export_transcript(transcript: Transcript, path) -> None:
    Path(path).write_text(transcript.to_jsonl())
