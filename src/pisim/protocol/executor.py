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
[seed, 3, t]. Each bundle is fresh randomness for one inference, its
parties' tapes (`draw_tapes`): bundle k of a seed holds the client's
masks, one per masked point in order, drawn in one call from the stream
of SeedSequence([seed, 1, k]), and the server's shares, one per linear
unit in order, from [seed, 2, k]; bundle 0 keeps [seed, party]. The
tapes are drawn before the offline run and are read-only, so one
block's tapes serve both protocols, and a run given no tapes draws its
own through the same function. A block of nonces holds, bundle for
bundle, what single runs at those nonces hold, and its transcript is
each one's transcript.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from types import MappingProxyType

from .._kernels import prepare_weights
from .._numpy import np
from ..costmodel.types import Protocol
from ..field import FIELD_MODULUS as P, decode_signed, encode, seeded_integers
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


def _nonces(nonce: int | Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The nonces of one bundle or a block, and its batch: () or (n,)."""
    if not isinstance(nonce, Sequence):
        return (nonce,), ()
    nonces = tuple(nonce)
    if not nonces:
        raise ValueError("a block needs at least one nonce")
    return nonces, (len(nonces),)


def _tape(seed: int, party: int, nonces, batch, shapes: dict) -> MappingProxyType:
    """One party's read-only arrays at batch + shape, one per key of
    `shapes` in order; each bundle's parts are one draw from its stream."""
    sizes = [math.prod(shape) for shape in shapes.values()]
    draws = np.empty((len(nonces), sum(sizes)), dtype=np.int64)
    for row, k in zip(draws, nonces):
        row[:] = seeded_integers([seed, party, k] if k else [seed, party], 0, P, len(row))
    draws.setflags(write=False)
    ends = np.cumsum(sizes)
    return MappingProxyType({key: draws[:, end - size : end].reshape(batch + shape)
                             for (key, shape), size, end in zip(shapes.items(), sizes, ends)})


@dataclass(frozen=True)
class Tapes:
    """The randomness of one bundle or block, for either protocol: the
    client's mask for each masked point and the server's share for each
    linear unit, read-only. `drawn_for` is the (arch, seed, nonces) they
    were drawn for."""

    drawn_for: tuple
    masks: MappingProxyType
    shares: MappingProxyType


def draw_tapes(arch: NetworkArch, seed: int, nonce: int | Sequence[int] = 0) -> Tapes:
    """Both parties' tapes for `nonce`, or for a sequence of nonces a
    block's, with a leading axis of one entry per nonce."""
    nonces, batch = _nonces(nonce)
    compiled = _compiled(arch)
    masks = {pt.index: pt.shape for pt in compiled.masked_points}
    shares = {unit.uid: unit.out_shape for unit in compiled.units}
    return Tapes(
        (arch, seed, nonces),
        _tape(seed, 1, nonces, batch, masks),
        _tape(seed, 2, nonces, batch, shares),
    )


def run_offline(
    arch: NetworkArch,
    protocol,
    seed: int,
    nonce: int | Sequence[int] = 0,
    tapes: Tapes | None = None,
) -> PrecomputeBundle:
    """The bundle for `nonce`, or for a sequence of nonces one block of
    bundles built in a single two-party run. The parties read `tapes`,
    which must be `draw_tapes(arch, seed, nonce)`; without them the run
    draws its own."""
    protocol = Protocol.parse(protocol)
    if tapes is None:
        tapes = draw_tapes(arch, seed, nonce)
    elif tapes.drawn_for != (arch, seed, _nonces(nonce)[0]):
        raise ValueError("tapes were drawn for another arch, seed or nonce")
    compiled = _compiled(arch)
    client = ClientState(protocol=protocol, compiled=compiled, masks=tapes.masks)
    server = ServerState(
        protocol=protocol,
        compiled=compiled,
        weights=_field_weights(arch, seed),
        s_shares=tapes.shares,
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
    ds = arch.dataset
    shape = (ds.channels, ds.height, ds.width)
    return seeded_integers([seed, 3, trial], 0, 16, math.prod(shape)).reshape(shape)
