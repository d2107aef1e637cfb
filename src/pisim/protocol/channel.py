"""Duplex message channel with a byte-accounted transcript.

The channel is the only state the two parties share. Every send
appends one TranscriptEvent; payloads ride alongside but never appear
in the transcript, so exported transcripts carry sizes and kinds only.
A send appends to the peer's mailbox and returns. A receive is
`yield from ch.receive(...)`: it yields to the scheduler in executor.py
while the mailbox is empty, so nothing ever blocks or times out.
"""

from __future__ import annotations

import enum
import json
from collections import deque
from collections.abc import Generator
from dataclasses import asdict, dataclass
from typing import Any

CLIENT = "client"
SERVER = "server"


class EventKind(str, enum.Enum):
    KEYS = "keys"
    ENCRYPTED_MASKS = "encrypted_masks"
    ENCRYPTED_LINEAR_SHARE = "encrypted_linear_share"
    GARBLED_CIRCUIT = "garbled_circuit"
    LABELS = "labels"
    OT_MESSAGE = "ot_message"
    MASKED_TENSOR = "masked_tensor"
    OUTPUT_LABELS = "output_labels"


@dataclass(frozen=True)
class TranscriptEvent:
    seq: int
    phase: str  # offline | online
    direction: str  # c2s | s2c
    kind: EventKind
    nbytes: int
    stored_by_receiver: bool
    label: str


class ProtocolHang(RuntimeError):
    """A party got a message of the wrong kind, or every unfinished party
    waits on an empty mailbox (deadlock); raised at once, never on a timer."""


class Transcript:
    def __init__(self):
        self.events: list[TranscriptEvent] = []

    def total_bytes(self, phase: str, direction: str) -> int:
        return sum(
            e.nbytes for e in self.events if e.phase == phase and e.direction == direction
        )

    def stored_bytes(self, receiver: str) -> int:
        """Bytes the receiver keeps from the offline phase."""
        direction = "c2s" if receiver == SERVER else "s2c"
        return sum(
            e.nbytes
            for e in self.events
            if e.phase == "offline" and e.direction == direction and e.stored_by_receiver
        )

    def to_jsonl(self) -> str:
        lines = []
        for e in self.events:
            rec = asdict(e)
            rec["kind"] = e.kind.value
            lines.append(json.dumps(rec, sort_keys=True))
        return "\n".join(lines) + "\n"


class Channel:
    """Two mailboxes plus the shared transcript."""

    def __init__(self):
        self.transcript = Transcript()
        self.phase = "offline"
        self._mailboxes = {CLIENT: deque(), SERVER: deque()}

    def has_mail(self, receiver: str) -> bool:
        return bool(self._mailboxes[receiver])

    def send(
        self,
        sender: str,
        kind: EventKind,
        payload: Any,
        nbytes: int,
        stored_by_receiver: bool = False,
        label: str = "",
    ) -> None:
        receiver = SERVER if sender == CLIENT else CLIENT
        event = TranscriptEvent(
            seq=len(self.transcript.events),
            phase=self.phase,
            direction="c2s" if sender == CLIENT else "s2c",
            kind=kind,
            nbytes=int(nbytes),
            stored_by_receiver=stored_by_receiver,
            label=label,
        )
        self.transcript.events.append(event)
        self._mailboxes[receiver].append((event, payload))

    def receive(self, receiver: str, expect: EventKind | None = None) -> Generator:
        """Yield while `receiver`'s mailbox is empty; return (event, payload)."""
        mailbox = self._mailboxes[receiver]
        while not mailbox:
            yield
        event, payload = mailbox.popleft()
        if expect is not None and event.kind is not expect:
            raise ProtocolHang(
                f"{receiver} expected {expect.value}, got {event.kind.value}"
            )
        return event, payload
