"""Functional stand-in for additively homomorphic encryption.

A SealedVector hides an integer array behind a key id. Anyone may
apply a linear function to the hidden payload and obtain a new sealed
vector, but only the holder of the matching key reads the result.
This gives the real scheme's dataflow without any cryptography; code
outside this module must not touch the payload field.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .._numpy import np

_key_counter = itertools.count(1)


class WrongKey(ValueError):
    pass


@dataclass(frozen=True)
class SealKey:
    key_id: int = field(default_factory=lambda: next(_key_counter))


def seal(key: SealKey, values: np.ndarray) -> "SealedVector":
    return SealedVector(key_id=key.key_id, _payload=np.asarray(values, dtype=np.int64))


@dataclass(frozen=True)
class SealedVector:
    key_id: int
    _payload: np.ndarray

    @property
    def shape(self):
        return self._payload.shape

    def __repr__(self):
        return f"SealedVector(key_id={self.key_id}, shape={self.shape})"


def apply_linear(sealed: SealedVector, fn) -> SealedVector:
    """Homomorphic evaluation: fn maps the payload to a new payload."""
    return SealedVector(key_id=sealed.key_id, _payload=fn(sealed._payload))


def unseal(key: SealKey, sealed: SealedVector) -> np.ndarray:
    if key.key_id != sealed.key_id:
        raise WrongKey(
            f"key {key.key_id} cannot open vector sealed under {sealed.key_id}"
        )
    return sealed._payload
