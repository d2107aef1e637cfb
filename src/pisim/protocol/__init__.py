"""Executable two-party masked inference with functional crypto stand-ins."""

from .channel import (
    CLIENT,
    SERVER,
    Channel,
    EventKind,
    ProtocolHang,
    Transcript,
    TranscriptEvent,
)
from .compile import gen_weights
from .executor import (
    BundleConsumed,
    BundleMismatch,
    OnlineResult,
    PrecomputeBundle,
    run_offline,
    run_online,
    sample_input,
)
from .oracle import plaintext_forward
from .parties import ClientState, GarbledGadget, ServerState, apply_ops
from .sealed import SealKey, SealedVector, WrongKey, apply_linear, seal, unseal
from .verify import (
    GUARD_MAX_RELUS,
    TrialOutcome,
    VerifyGuard,
    VerifyResult,
    export_transcript,
    verify_against_plaintext,
)

__all__ = [
    "CLIENT",
    "SERVER",
    "BundleConsumed",
    "BundleMismatch",
    "Channel",
    "ClientState",
    "EventKind",
    "GUARD_MAX_RELUS",
    "GarbledGadget",
    "OnlineResult",
    "PrecomputeBundle",
    "ProtocolHang",
    "SealKey",
    "SealedVector",
    "ServerState",
    "Transcript",
    "TranscriptEvent",
    "TrialOutcome",
    "VerifyGuard",
    "VerifyResult",
    "WrongKey",
    "apply_linear",
    "apply_ops",
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
