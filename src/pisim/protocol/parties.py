"""Client and server programs for both phases.

Each function is a generator that drives one party over the channel and
touches only that party's state: the client never sees weights, the
server never sees masks or the sealing key. A party suspends only in
`yield from ch.receive(...)`; its result is the generator's return
value. Message order is strict request/reply, so a run's transcript is
deterministic.

One run drives one bundle or a block of them. Every array a party
reads, sends or keeps has the shape `batch + shape`, where `batch` is
() for one bundle and (n,) for a block of n. Neither party draws: each
reads its randomness from a read-only tape drawn before the run
(`pisim.protocol.executor.draw_tapes`), the client its mask for each
masked point (`masks`) and the server its share for each linear unit
(`s_shares`), so both protocols' runs over one block can read one tape.
Message byte counts are per inference, so a block's transcript is the
transcript of each bundle in it. The two states and the channel are all
a bundle holds: the shape of the client's input mask, `masks[0]`, is the
input shape its online run takes.

Share convention per linear unit U with input activation a and mask r:
the client ends the offline phase holding c_U = L_U(r) + s_U, the
server holds s_U, and online the server computes L_U(a - r) + b - s_U.
The two sides sum to L_U(a) + b. Sums over all units into a ReLU give
the gadget's two input shares.

Offline, the protocols differ in who garbles: each ReLU point's circuit
goes out through `ship_circuit`, from the server under server-garbler and
from the client under client-garbler, and `receive_circuit` takes it in.
"""

from __future__ import annotations

from collections.abc import Generator, Mapping
from dataclasses import dataclass, field as dc_field

import numpy as np

from .._kernels import conv2d_mod, matvec_mod, relu_remask_mod, sumpool_mod
from ..field import FIELD_MODULUS as P, encode, reduce_once
from ..costmodel.comm import (
    BASE_OT_BYTES_PER_DIRECTION,
    CG_EVALUATOR_STATE_BYTES_PER_RELU,
    CG_GARBLER_STATE_BYTES_PER_RELU,
    GC_BLOB_BYTES_PER_RELU,
    HE_CT_BYTES_PER_ELEM,
    INPUT_LABEL_BYTES_PER_RELU,
    KEY_BYTES,
    ONLINE_LABEL_BYTES_PER_RELU,
    OT_EXT_CHOICE_BYTES_PER_RELU,
    SG_GARBLER_STATE_BYTES_PER_RELU,
    SHARE_BYTES_PER_ELEM,
)
from ..costmodel.types import Protocol
from ..netarch import AvgPool, CompiledNetwork, Conv, FC
from .channel import CLIENT, SERVER, Channel, EventKind
from .sealed import SealKey, apply_linear, seal, unseal


class GarbledGadget:
    """Opaque garbled ReLU stand-in that the client garbles and the server
    evaluates (client-garbler).

    The client's share and next mask, at the point's batch + shape, are
    baked in at garble time; evaluate() is the only sanctioned access to
    them. They are the client's own arrays, not copies: nothing writes
    them after the offline phase. Server-garbler circuits carry no
    payload: the client computes the ReLU from its own share, and the
    transcript counts the circuits' bytes.
    """

    __slots__ = ("_client_share", "_next_mask")

    def __init__(self, client_share: np.ndarray, next_mask: np.ndarray):
        self._client_share = client_share
        self._next_mask = next_mask

    def evaluate(self, server_share: np.ndarray) -> np.ndarray:
        return relu_remask_mod(self._client_share, server_share, self._next_mask)


@dataclass
class ClientState:
    protocol: Protocol
    compiled: CompiledNetwork
    # the client's tape: its read-only mask for each masked point
    masks: Mapping[int, np.ndarray]
    key: SealKey = dc_field(default_factory=SealKey)
    shares: dict[int, np.ndarray] = dc_field(default_factory=dict)
    self_stored_bytes: int = 0


@dataclass
class ServerState:
    protocol: Protocol
    compiled: CompiledNetwork
    weights: Mapping
    # the server's tape: its read-only share for each linear unit
    s_shares: Mapping[str, np.ndarray]
    gadgets: dict[int, GarbledGadget] = dc_field(default_factory=dict)
    self_stored_bytes: int = 0
    # filled during the online phase; per-point server input shares,
    # kept so tests can audit share reconstruction against the oracle
    probe_shares: dict[int, np.ndarray] = dc_field(default_factory=dict)


def apply_ops(ops, x: np.ndarray, weights, with_bias: bool) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.int64)
    for op in ops:
        layer = op.layer
        if isinstance(layer, Conv):
            w, b = weights[op.weight_key]
            x = conv2d_mod(x, w, b if with_bias else None, layer.stride, layer.padding)
        elif isinstance(layer, FC):
            w, b = weights[op.weight_key]
            x = matvec_mod(w, x, b if with_bias else None)
        elif isinstance(layer, AvgPool):
            x = sumpool_mod(x, layer.window, layer.stride)
        else:  # Flatten
            x = np.ascontiguousarray(x.reshape(*x.shape[:-3], -1))
    return x


def ship_circuit(ch: Channel, garbler: str, pt, circuit) -> None:
    """The garbler's offline shipment of ReLU point pt: its garbled circuit,
    then its input labels, both kept by the evaluator for the online
    phase."""
    label = f"point{pt.index}"
    ch.send(garbler, EventKind.GARBLED_CIRCUIT, circuit, GC_BLOB_BYTES_PER_RELU * pt.elems,
            stored_by_receiver=True, label=label)
    ch.send(garbler, EventKind.LABELS, None, INPUT_LABEL_BYTES_PER_RELU * pt.elems,
            stored_by_receiver=True, label=label)


def receive_circuit(ch: Channel, evaluator: str) -> Generator:
    """The evaluator's side of ship_circuit; returns the circuit's payload."""
    _, circuit = yield from ch.receive(evaluator, expect=EventKind.GARBLED_CIRCUIT)
    yield from ch.receive(evaluator, expect=EventKind.LABELS)
    return circuit


def client_offline(state: ClientState, ch: Channel) -> Generator:
    comp = state.compiled
    cg = state.protocol is Protocol.CLIENT_GARBLER

    ch.send(CLIENT, EventKind.KEYS, state.key, KEY_BYTES, stored_by_receiver=True, label="setup")
    for pt in comp.masked_points:
        ch.send(
            CLIENT,
            EventKind.ENCRYPTED_MASKS,
            seal(state.key, state.masks[pt.index]),
            HE_CT_BYTES_PER_ELEM * pt.elems,
            label=f"point{pt.index}",
        )

    for unit in comp.units:
        _, sealed = yield from ch.receive(CLIENT, expect=EventKind.ENCRYPTED_LINEAR_SHARE)
        c = unseal(state.key, sealed)
        prev = state.shares.get(unit.dst_point)
        state.shares[unit.dst_point] = c if prev is None else reduce_once(prev + c)

    ch.send(
        CLIENT,
        EventKind.OT_MESSAGE,
        None,
        BASE_OT_BYTES_PER_DIRECTION,
        stored_by_receiver=cg,
        label="base-ot",
    )
    yield from ch.receive(CLIENT, expect=EventKind.OT_MESSAGE)

    for pt in comp.relu_points:
        if cg:
            gadget = GarbledGadget(state.shares[pt.index], state.masks[pt.index])
            ship_circuit(ch, CLIENT, pt, gadget)
        else:
            yield from receive_circuit(ch, CLIENT)
            ch.send(
                CLIENT,
                EventKind.OT_MESSAGE,
                None,
                OT_EXT_CHOICE_BYTES_PER_RELU * pt.elems,
                label=f"choice point{pt.index}",
            )

    mask_elems = sum(pt.elems for pt in comp.masked_points)
    state.self_stored_bytes = SHARE_BYTES_PER_ELEM * mask_elems
    if cg:
        state.self_stored_bytes += CG_GARBLER_STATE_BYTES_PER_RELU * comp.total_relus


def server_offline(state: ServerState, ch: Channel) -> Generator:
    comp = state.compiled
    cg = state.protocol is Protocol.CLIENT_GARBLER

    yield from ch.receive(SERVER, expect=EventKind.KEYS)
    sealed_masks = {}
    for pt in comp.masked_points:
        _, sealed = yield from ch.receive(SERVER, expect=EventKind.ENCRYPTED_MASKS)
        sealed_masks[pt.index] = sealed

    for unit in comp.units:
        def share_of(r, unit=unit):
            lin = apply_ops(unit.ops, r, state.weights, with_bias=False)
            return reduce_once(lin + state.s_shares[unit.uid])

        ch.send(
            SERVER,
            EventKind.ENCRYPTED_LINEAR_SHARE,
            apply_linear(sealed_masks[unit.src_point], share_of),
            HE_CT_BYTES_PER_ELEM * unit.out_elems,
            stored_by_receiver=True,
            label=unit.uid,
        )

    yield from ch.receive(SERVER, expect=EventKind.OT_MESSAGE)
    ch.send(
        SERVER,
        EventKind.OT_MESSAGE,
        None,
        BASE_OT_BYTES_PER_DIRECTION,
        stored_by_receiver=cg,
        label="base-ot",
    )

    for pt in comp.relu_points:
        if cg:
            state.gadgets[pt.index] = yield from receive_circuit(ch, SERVER)
        else:
            ship_circuit(ch, SERVER, pt, None)
            yield from ch.receive(SERVER, expect=EventKind.OT_MESSAGE)

    out_elems = sum(u.out_elems for u in comp.units)
    state.self_stored_bytes = SHARE_BYTES_PER_ELEM * out_elems
    per_relu = (
        CG_EVALUATOR_STATE_BYTES_PER_RELU if cg else SG_GARBLER_STATE_BYTES_PER_RELU
    )
    state.self_stored_bytes += per_relu * comp.total_relus


def client_online(state: ClientState, ch: Channel, x: np.ndarray) -> Generator:
    comp = state.compiled
    cg = state.protocol is Protocol.CLIENT_GARBLER

    y0 = encode(x)
    y0 -= state.masks[0]
    y0 += P
    reduce_once(y0)
    ch.send(
        CLIENT,
        EventKind.MASKED_TENSOR,
        y0,
        SHARE_BYTES_PER_ELEM * comp.points[0].elems,
        label="input",
    )

    for pt in comp.relu_points:
        if cg:
            yield from ch.receive(CLIENT, expect=EventKind.OT_MESSAGE)
            ch.send(
                CLIENT,
                EventKind.OT_MESSAGE,
                None,
                ONLINE_LABEL_BYTES_PER_RELU * pt.elems,
                label=f"point{pt.index}",
            )
        else:
            _, server_share = yield from ch.receive(CLIENT, expect=EventKind.LABELS)
            y = relu_remask_mod(state.shares[pt.index], server_share, state.masks[pt.index])
            ch.send(
                CLIENT,
                EventKind.OUTPUT_LABELS,
                y,
                ONLINE_LABEL_BYTES_PER_RELU * pt.elems,
                label=f"point{pt.index}",
            )

    _, server_out = yield from ch.receive(CLIENT, expect=EventKind.MASKED_TENSOR)
    out = comp.output_point
    return reduce_once(state.shares[out.index] + server_out)


def server_online(state: ServerState, ch: Channel) -> Generator:
    comp = state.compiled
    cg = state.protocol is Protocol.CLIENT_GARBLER

    _, y0 = yield from ch.receive(SERVER, expect=EventKind.MASKED_TENSOR)
    masked = {0: y0}

    def share_into(point_index: int) -> np.ndarray:
        total = None
        for unit in comp.units_into(point_index):
            lin = apply_ops(unit.ops, masked[unit.src_point], state.weights, True)
            # lin may be masked[src] itself (an identity skip), so subtract
            # into a new array
            contrib = lin - state.s_shares[unit.uid]
            contrib += P
            reduce_once(contrib)
            total = contrib if total is None else reduce_once(total + contrib)
        return total

    for pt in comp.relu_points:
        s_share = share_into(pt.index)
        state.probe_shares[pt.index] = s_share
        if cg:
            ch.send(
                SERVER,
                EventKind.OT_MESSAGE,
                None,
                ONLINE_LABEL_BYTES_PER_RELU * pt.elems,
                label=f"point{pt.index}",
            )
            yield from ch.receive(SERVER, expect=EventKind.OT_MESSAGE)
            masked[pt.index] = state.gadgets[pt.index].evaluate(s_share)
        else:
            ch.send(
                SERVER,
                EventKind.LABELS,
                s_share,
                ONLINE_LABEL_BYTES_PER_RELU * pt.elems,
                label=f"point{pt.index}",
            )
            _, y = yield from ch.receive(SERVER, expect=EventKind.OUTPUT_LABELS)
            masked[pt.index] = np.asarray(y, dtype=np.int64)

    out = comp.output_point
    ch.send(
        SERVER,
        EventKind.MASKED_TENSOR,
        share_into(out.index),
        SHARE_BYTES_PER_ELEM * out.elems,
        label="logits-share",
    )
