"""Prime-field encoding for the functional protocol stand-ins.

Secret shares and masked activations live in Z_p for a configurable
prime p. Signed integers are embedded symmetrically: values in
[0, (p-1)/2] are non-negative, the rest decode as negative. Exactness
therefore requires every true intermediate activation to stay within
+-(p-1)/2. The plaintext reference in pisim.protocol.oracle checks each
intermediate against that window and raises FieldOverflowRisk once one
leaves it.

The default modulus is the Mersenne prime 2**31 - 1: the largest
convenient prime whose products of two residues still fit in int64,
which the kernels' reductions need (see pisim._kernels). It
comfortably exceeds the safety bound 2 * (max|w| * fan_in * max|x|)**2
for the toy networks the executors are meant to run.
"""

import numpy as np

from .errors import PisimError

FIELD_MODULUS = 2**31 - 1


class FieldOverflowRisk(PisimError, ValueError):
    """Worst-case activation magnitude exceeds the signed field capacity."""

    exit_code = 3


def half_range(p: int = FIELD_MODULUS) -> int:
    return (p - 1) // 2


def encode(values, p: int = FIELD_MODULUS) -> np.ndarray:
    """Embed signed integers into [0, p)."""
    return np.asarray(values, dtype=np.int64) % p


def decode_signed(values, p: int = FIELD_MODULUS) -> np.ndarray:
    """Invert encode: field elements back to signed integers."""
    x = np.asarray(values, dtype=np.int64) % p
    return np.where(x > half_range(p), x - p, x)


def sample_elements(rng: np.random.Generator, shape, p: int = FIELD_MODULUS) -> np.ndarray:
    """Uniform field elements, used for masks and additive shares."""
    return rng.integers(0, p, size=shape, dtype=np.int64)

