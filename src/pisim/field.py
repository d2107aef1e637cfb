"""Prime-field encoding for the functional protocol stand-ins.

Secret shares and masked activations live in Z_p for one fixed prime p,
FIELD_MODULUS. Signed integers are embedded symmetrically: values in
[0, (p-1)/2] are non-negative, the rest decode as negative. Exactness
therefore requires every true intermediate activation to stay within
+-(p-1)/2. The plaintext reference in pisim.protocol.oracle checks each
intermediate against that window and raises FieldOverflowRisk once one
leaves it.

The modulus is the Mersenne prime 2**31 - 1. The kernels' float64
products of residues and weights stay exact below 2**53 (see
pisim._kernels), which for weights in [-3, 3] admits fan-ins up to
1,398,101, and the signed window +-(2**30 - 1) holds every activation of
the toy networks the executors are meant to run.
"""

import numpy as np

from .errors import PisimError

FIELD_MODULUS = 2**31 - 1
# the largest non-negative value of the signed window
HALF_RANGE = (FIELD_MODULUS - 1) // 2


class FieldOverflowRisk(PisimError, ValueError):
    """Worst-case activation magnitude exceeds the signed field capacity."""

    exit_code = 3


def encode(values) -> np.ndarray:
    """Embed signed integers into [0, p)."""
    return np.asarray(values, dtype=np.int64) % FIELD_MODULUS


def decode_signed(values) -> np.ndarray:
    """Invert encode: field elements back to signed integers."""
    x = np.asarray(values, dtype=np.int64) % FIELD_MODULUS
    return np.where(x > HALF_RANGE, x - FIELD_MODULUS, x)


def sample_elements(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform field elements, used for masks and additive shares."""
    return rng.integers(0, FIELD_MODULUS, size=shape, dtype=np.int64)

