"""End-to-end correctness checks against the plaintext reference."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..costmodel.types import Protocol
from ..netarch import NetworkArch, count
from .channel import Transcript
from .compile import gen_weights
from .executor import run_offline, run_online, sample_input
from .oracle import plaintext_forward

# Real-size networks take minutes per masked inference; refuse by
# default so a typo'd model name cannot wedge a terminal.
GUARD_MAX_RELUS = 10_000


class VerifyGuard(RuntimeError):
    pass


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

    Matching is exact integer equality. Overflow in the reference pass
    propagates as FieldOverflowRisk before any comparison happens.
    """
    relus = count(arch).relus
    if relus > GUARD_MAX_RELUS and not force:
        raise VerifyGuard(
            f"{arch.name} has {relus} relus (> {GUARD_MAX_RELUS}); "
            "pass force=True to run anyway"
        )
    weights = gen_weights(arch, seed)
    outcomes = []
    all_ok = True
    for trial in range(trials):
        x = sample_input(arch, seed, trial)
        expected = plaintext_forward(arch, weights, x)
        for protocol in protocols:
            protocol = Protocol.parse(protocol)
            bundle = run_offline(arch, protocol, seed)
            got = run_online(bundle, x).logits
            ok = bool(np.array_equal(got, expected))
            all_ok = all_ok and ok
            outcomes.append(
                TrialOutcome(
                    protocol=protocol,
                    trial=trial,
                    ok=ok,
                    logits=tuple(got.tolist()),
                    expected=tuple(expected.tolist()),
                )
            )
    return VerifyResult(ok=all_ok, trials=tuple(outcomes))


def export_transcript(transcript: Transcript, path) -> None:
    Path(path).write_text(transcript.to_jsonl())
