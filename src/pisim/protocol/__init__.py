"""Executable two-party masked inference with functional crypto stand-ins."""

from .channel import Channel, EventKind, ProtocolHang
from .executor import (
    BundleConsumed, BundleMismatch, Tapes, draw_tapes, gen_weights, run_offline, run_online,
    sample_input,
)
from .oracle import plaintext_forward
from .sealed import SealKey, WrongKey, seal, unseal
from .verify import GUARD_MAX_RELUS, VerifyGuard, export_transcript, verify_against_plaintext

__all__ = [
    "BundleConsumed",
    "BundleMismatch",
    "Channel",
    "EventKind",
    "GUARD_MAX_RELUS",
    "ProtocolHang",
    "SealKey",
    "Tapes",
    "VerifyGuard",
    "WrongKey",
    "draw_tapes",
    "export_transcript",
    "gen_weights",
    "plaintext_forward",
    "run_offline",
    "run_online",
    "sample_input",
    "seal",
    "unseal",
    "verify_against_plaintext",
]
