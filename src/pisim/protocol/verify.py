"""End-to-end correctness checks against the plaintext reference.

Trials run in blocks sized by BLOCK_ELEMENTS, so toy networks batch many
trials per two-party run and paper-scale networks run one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .._numpy import np
from ..costmodel.types import Protocol
from ..errors import PisimError
from ..netarch import NetworkArch, count
from .channel import Transcript
from .executor import draw_tapes, gen_weights, run_offline, run_online, sample_input
from .oracle import plaintext_forward

# Real-size networks take minutes per masked inference; refuse by
# default so a typo'd model name cannot wedge a terminal.
GUARD_MAX_RELUS = 10_000

# Most mask and share elements of one block's bundles; a trial's are
# count(arch).mask_in_elems + mask_out_elems. A block is one plaintext
# pass, and per protocol one offline and one online two-party run, over
# its inputs, so larger blocks pay the per-run overhead (channel events,
# generator steps, small numpy calls, the oracle's FC weight pass) fewer
# times. The budget holds 18 toy_cnn trials on cifar100; larger blocks
# were measured to gain no more speed (CHANGES.md). One resnet32,
# resnet18 or vgg16 trial alone exceeds it, so those run one trial a block.
BLOCK_ELEMENTS = 1 << 17


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
    shares. Trials run in blocks of as many as keep the block's masks
    and shares within BLOCK_ELEMENTS elements, at least one: the block's
    inputs and its parties' tapes (masks and shares) are drawn once, the
    plaintext pass runs once over the inputs, and each protocol builds its
    bundles from the same tapes and consumes them in one offline and one
    online run. Matching is exact integer equality. Overflow in the
    reference pass propagates as FieldOverflowRisk before any of its
    block's masked runs. Only trial 0's transcripts are kept, one per
    protocol; a block's transcript is each of its bundles'. Zero or
    negative trials run nothing and give empty (0, classes) arrays.
    """
    c = count(arch)
    if c.relus > GUARD_MAX_RELUS and not force:
        raise VerifyGuard(
            f"{arch.name} has {c.relus} relus (> {GUARD_MAX_RELUS}); "
            "pass --force to run anyway"
        )
    protocols = [Protocol.parse(protocol) for protocol in protocols]
    weights = gen_weights(arch, seed)
    trials = max(trials, 0)
    expected = np.empty((trials, arch.dataset.classes), dtype=np.int64)
    logits = {protocol: np.empty_like(expected) for protocol in protocols}
    transcripts = {}
    per_block = max(1, BLOCK_ELEMENTS // (c.mask_in_elems + c.mask_out_elems))
    for start in range(0, trials, per_block):
        block = range(start, min(start + per_block, trials))
        xs = np.stack([sample_input(arch, seed, trial) for trial in block])
        expected[start:block.stop] = plaintext_forward(arch, weights, xs)
        tapes = draw_tapes(arch, seed, block)
        for protocol in protocols:
            bundle = run_offline(arch, protocol, seed, nonce=block, tapes=tapes)
            logits[protocol][start:block.stop] = run_online(bundle, xs)
            if start == 0:
                transcripts[protocol] = bundle.transcript
            # free the spent block before the next offline run builds one
            del bundle
        # and its tapes before the next block draws its own
        del tapes
    return VerifyResult(expected, logits, transcripts)


def export_transcript(transcript: Transcript, path) -> None:
    Path(path).write_text(transcript.to_jsonl())
