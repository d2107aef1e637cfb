"""Structural communication and storage byte model.

Every transferred or stored byte in a run is one of a small set of
message kinds, each with a fixed per-element or per-ReLU size. The
protocol executor and the cost model both price transcripts with these
constants, so simulated byte totals and predicted byte totals agree
exactly.

Directions are named from the client's point of view: c2s is
client-to-server.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..netarch import NetworkArch, count
from .types import Protocol

# Key material the client publishes once per setup.
KEY_BYTES = 1024

# One encrypted field element; ciphertext expansion over the 8-byte share.
HE_CT_BYTES_PER_ELEM = 16
SHARE_BYTES_PER_ELEM = 8

# Garbled ReLU gadget: truth-table blob plus input-wire labels. The
# gadget has two 32-bit share inputs, one label per input bit.
GC_BLOB_BYTES_PER_RELU = 16462
LABEL_BYTES_PER_INPUT_BIT = 16
GC_INPUT_BITS_PER_RELU = 64
INPUT_LABEL_BYTES_PER_RELU = LABEL_BYTES_PER_INPUT_BIT * GC_INPUT_BITS_PER_RELU

# Per-direction online label traffic: the evaluator fetches the other
# party's active input labels, then returns the encoded outcome.
ONLINE_LABEL_BYTES_PER_RELU = 512

# Oblivious-transfer costs. Server-garbler runs its label OT during the
# offline phase (choice-bit extension); client-garbler defers the
# extension to the online phase and only does base setup offline.
OT_EXT_CHOICE_BYTES_PER_RELU = 256
BASE_OT_BYTES_PER_DIRECTION = 8192

# Residual per-ReLU state the garbler keeps for online decoding, and
# the evaluator's OT-receiver state when the extension is online.
SG_GARBLER_STATE_BYTES_PER_RELU = 32
CG_GARBLER_STATE_BYTES_PER_RELU = 47
CG_EVALUATOR_STATE_BYTES_PER_RELU = 16

GC_TRANSFER_BYTES_PER_RELU = GC_BLOB_BYTES_PER_RELU + INPUT_LABEL_BYTES_PER_RELU


@dataclass(frozen=True)
class CommInputs:
    """The counts of one network that the byte model and the cost formula read.

    area is the input's height * width, which picks the HE rate column.
    """

    relus: int
    mask_in_elems: int
    mask_out_elems: int
    image_elems: int
    class_count: int
    area: int
    conv_flops: int
    fc_flops: int
    n_units: int

    @classmethod
    def from_arch(cls, arch: NetworkArch) -> "CommInputs":
        c = count(arch)
        ds = arch.dataset
        return cls(
            relus=c.relus,
            mask_in_elems=c.mask_in_elems,
            mask_out_elems=c.mask_out_elems,
            image_elems=ds.image_elems,
            class_count=ds.classes,
            area=ds.height * ds.width,
            conv_flops=c.conv_flops,
            fc_flops=c.fc_flops,
            n_units=c.n_units,
        )

    def scaled(self, relu_factor: float) -> "CommInputs":
        """Shrink the nonlinear footprint; image, logits and linear counts stay fixed."""
        if relu_factor == 1.0:
            return self
        relu_in = self.mask_in_elems - self.image_elems
        relu_side = self.mask_out_elems - self.class_count
        return replace(
            self,
            relus=int(round(self.relus * relu_factor)),
            mask_in_elems=self.image_elems + int(round(relu_in * relu_factor)),
            mask_out_elems=self.class_count + int(round(relu_side * relu_factor)),
        )


@dataclass(frozen=True)
class CommTotals:
    c2s_bytes: int
    s2c_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.c2s_bytes + self.s2c_bytes


@dataclass(frozen=True)
class StorageDeltas:
    """Bytes each party must hold between offline and online phases.

    received covers material stored straight off the wire (garbled
    circuits, labels, decrypted shares); self covers locally generated
    state (masks, garbler decode state).
    """

    client_received_bytes: int
    client_self_bytes: int
    server_received_bytes: int
    server_self_bytes: int

    @property
    def client_bytes(self) -> int:
        return self.client_received_bytes + self.client_self_bytes

    @property
    def server_bytes(self) -> int:
        return self.server_received_bytes + self.server_self_bytes


def offline_comm(protocol: Protocol, sizes: CommInputs) -> CommTotals:
    enc_masks = HE_CT_BYTES_PER_ELEM * sizes.mask_in_elems
    enc_shares = HE_CT_BYTES_PER_ELEM * sizes.mask_out_elems
    gc = GC_TRANSFER_BYTES_PER_RELU * sizes.relus
    c2s = KEY_BYTES + enc_masks + BASE_OT_BYTES_PER_DIRECTION
    s2c = enc_shares + BASE_OT_BYTES_PER_DIRECTION
    if protocol is Protocol.SERVER_GARBLER:
        s2c += gc
        c2s += OT_EXT_CHOICE_BYTES_PER_RELU * sizes.relus
    else:
        c2s += gc
    return CommTotals(c2s_bytes=c2s, s2c_bytes=s2c)


def online_comm(protocol: Protocol, sizes: CommInputs) -> CommTotals:
    labels = ONLINE_LABEL_BYTES_PER_RELU * sizes.relus
    c2s = SHARE_BYTES_PER_ELEM * sizes.image_elems + labels
    s2c = labels + SHARE_BYTES_PER_ELEM * sizes.class_count
    return CommTotals(c2s_bytes=c2s, s2c_bytes=s2c)


def storage_deltas(protocol: Protocol, sizes: CommInputs) -> StorageDeltas:
    enc_shares = HE_CT_BYTES_PER_ELEM * sizes.mask_out_elems
    masks_in = SHARE_BYTES_PER_ELEM * sizes.mask_in_elems
    masks_out = SHARE_BYTES_PER_ELEM * sizes.mask_out_elems
    gc = GC_TRANSFER_BYTES_PER_RELU * sizes.relus
    if protocol is Protocol.SERVER_GARBLER:
        return StorageDeltas(
            client_received_bytes=gc + enc_shares,
            client_self_bytes=masks_in,
            server_received_bytes=KEY_BYTES,
            server_self_bytes=masks_out
            + SG_GARBLER_STATE_BYTES_PER_RELU * sizes.relus,
        )
    return StorageDeltas(
        client_received_bytes=enc_shares + BASE_OT_BYTES_PER_DIRECTION,
        client_self_bytes=masks_in
        + CG_GARBLER_STATE_BYTES_PER_RELU * sizes.relus,
        server_received_bytes=KEY_BYTES + gc + BASE_OT_BYTES_PER_DIRECTION,
        server_self_bytes=masks_out
        + CG_EVALUATOR_STATE_BYTES_PER_RELU * sizes.relus,
    )

