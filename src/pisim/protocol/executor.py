"""Orchestration: run both parties through a phase and manage bundles.

An offline run yields a PrecomputeBundle, the material exactly one
online inference consumes, or a block of n such bundles that one online
run of n inputs consumes together. A bundle is the two party states, the
channel whose transcript records both phases, and whether it is spent;
an online run returns only the decoded logits. Both parties are
generators stepped in turn on the caller's thread, with the channel as
their only shared state; strict message alternation keeps transcripts
deterministic for a given (arch, protocol, seed, nonce). A party's
exception propagates as is, and a run in which every unfinished party
waits on an empty mailbox raises ProtocolHang at once. The lowered network (per arch) and the
server's model (per arch and seed) are built once and shared read-only
by every bundle.

Every seeded stream of a run is declared here: the server's weights
come from SeedSequence([seed, 0]) and trial t's input from
[seed, 3, t]. Each bundle is fresh randomness for one inference: bundle
k of a seed draws its masks and shares from generators seeded with
SeedSequence([seed, party, k]), party 1 for the client and 2 for the
server, and bundle 0 from [seed, party]. A block of nonces holds, bundle
for bundle, what single runs at those nonces hold, and its transcript
is each one's transcript.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .._kernels import prepare_weights
from ..costmodel.types import Protocol
from ..field import decode_signed, encode
from ..netarch import CompiledNetwork, Conv, FC, NetworkArch, compile_network
from ..netarch.lowering import WeightKey
from .channel import CLIENT, SERVER, Channel, ProtocolHang, Transcript
from .parties import (
    ClientState,
    ServerState,
    client_offline,
    client_online,
    server_offline,
    server_online,
)


class BundleConsumed(RuntimeError):
    """An online run tried to reuse spent precompute material."""


class BundleMismatch(RuntimeError):
    """The online input's shape is not the one the bundle was built for."""


@dataclass
class PrecomputeBundle:
    """One bundle, or a block of bundles whose states hold every array
    with a leading axis of one entry per nonce. Stored byte counts are per
    inference."""

    client_state: ClientState
    server_state: ServerState
    channel: Channel
    consumed: bool = False

    @property
    def transcript(self) -> Transcript:
        return self.channel.transcript

    @property
    def client_stored_bytes(self) -> int:
        return (
            self.transcript.stored_bytes("client")
            + self.client_state.self_stored_bytes
        )

    @property
    def server_stored_bytes(self) -> int:
        return (
            self.transcript.stored_bytes("server")
            + self.server_state.self_stored_bytes
        )


def _run_pair(channel: Channel, client, server) -> dict[str, object]:
    """Step both party generators until they return; their return values."""
    parties = {CLIENT: client, SERVER: server}
    results: dict[str, object] = {}
    runnable = list(parties)
    while parties:
        if not runnable:
            raise ProtocolHang(f"{' and '.join(parties)} blocked on an empty mailbox")
        for name in runnable:
            try:
                next(parties[name])
            except StopIteration as stop:
                results[name] = stop.value
                del parties[name]
        runnable = [name for name in parties if channel.has_mail(name)]
    return results


def gen_weights(arch: NetworkArch, seed: int):
    """The server's model: small random integer weights in [-3, 3], keyed
    by layer index (skip projections by ("skip", i)), the keys
    `compile_network` puts on its ops, so the plaintext reference can
    regenerate them without going through the lowering.

    The range keeps exact activations comfortably inside the signed
    field window for shallow test networks.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    weights: dict[WeightKey, tuple[np.ndarray, np.ndarray]] = {}

    def draw(key: WeightKey, layer: Conv | FC) -> None:
        shape = layer.weight_shape
        w = rng.integers(-3, 4, size=shape, dtype=np.int64)
        if layer.bias:
            b = rng.integers(-3, 4, size=shape[:1], dtype=np.int64)
        else:
            b = np.zeros(shape[0], dtype=np.int64)
        weights[key] = (w, b)

    for idx, layer in enumerate(arch.layers):
        if isinstance(layer, (Conv, FC)):
            draw(idx, layer)
    for i, skip in enumerate(arch.skips):
        if skip.conv is not None:
            draw(("skip", i), skip.conv)
    return weights


# Bounded, so a process that verifies many networks or seeds keeps only
# recent ones.
@functools.lru_cache(maxsize=8)
def _compiled(arch: NetworkArch) -> CompiledNetwork:
    """The network lowered once per arch; frozen, so every bundle shares it."""
    return compile_network(arch)


@functools.lru_cache(maxsize=8)
def _field_weights(arch: NetworkArch, seed: int):
    """The server's model in Z_p, drawn and prepared for the kernels once
    per (arch, seed) and shared read-only by every bundle built from it."""
    weights = {}
    for key, (w, b) in gen_weights(arch, seed).items():
        b = encode(b)
        b.setflags(write=False)
        weights[key] = (prepare_weights(w), b)
    return MappingProxyType(weights)


def _generators(seed: int, party: int, nonces) -> tuple[np.random.Generator, ...]:
    """One party's generator for each bundle; nonce 0 keeps [seed, party]."""
    entropy = ([seed, party, k] if k else [seed, party] for k in nonces)
    return tuple(np.random.default_rng(np.random.SeedSequence(e)) for e in entropy)


def run_offline(
    arch: NetworkArch,
    protocol,
    seed: int,
    nonce: int | Sequence[int] = 0,
) -> PrecomputeBundle:
    """The bundle for `nonce`, or for a sequence of nonces one block of
    bundles built in a single two-party run."""
    protocol = Protocol.parse(protocol)
    compiled = _compiled(arch)
    if isinstance(nonce, Sequence):
        nonces = tuple(nonce)
        if not nonces:
            raise ValueError("a block needs at least one nonce")
        batch = (len(nonces),)
    else:
        nonces, batch = (nonce,), ()
    client = ClientState(
        protocol=protocol,
        compiled=compiled,
        rngs=_generators(seed, 1, nonces),
        batch=batch,
    )
    server = ServerState(
        protocol=protocol,
        compiled=compiled,
        rngs=_generators(seed, 2, nonces),
        batch=batch,
        weights=_field_weights(arch, seed),
    )
    channel = Channel()
    _run_pair(channel, client_offline(client, channel), server_offline(server, channel))
    return PrecomputeBundle(client, server, channel)


def run_online(bundle: PrecomputeBundle, x: np.ndarray) -> np.ndarray:
    """Consume the bundle on x and return the decoded logits: x is one
    (c, h, w) input for one bundle, or (n, c, h, w) for a block of n, and
    the logits carry the same leading axis. The online messages join the
    offline ones in `bundle.transcript`."""
    if bundle.consumed:
        raise BundleConsumed(
            "precompute bundle was already used; run the offline phase again"
        )
    # the client's input mask has the shape batch + (c, h, w)
    expected = bundle.client_state.masks[0].shape
    x = np.asarray(x, dtype=np.int64)
    if x.shape != expected:
        raise BundleMismatch(f"input shape {x.shape} does not match {expected}")

    bundle.consumed = True
    channel = bundle.channel
    channel.phase = "online"
    results = _run_pair(
        channel,
        client_online(bundle.client_state, channel, x),
        server_online(bundle.server_state, channel),
    )
    return decode_signed(results[CLIENT])


def sample_input(arch: NetworkArch, seed: int, trial: int = 0) -> np.ndarray:
    """Small non-negative test image, deterministic per (seed, trial)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3, trial]))
    ds = arch.dataset
    return rng.integers(0, 16, size=(ds.channels, ds.height, ds.width), dtype=np.int64)
