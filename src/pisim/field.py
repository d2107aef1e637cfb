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

Reduction takes one of two forms. Where an operand is a sum of two
residues, or a difference of two offset by +p, it lies in [0, 2p), and
`reduce_once` takes at most one p off with an unsigned `min`, much
cheaper than `%`, an int64 division. The protocol reduces that way in
the ReLU gadget, in the server's share of each linear unit, in the
server's online share sums, and in the client's share sums, input
masking and final unmask. `%` stays where an operand has no such bound:
`decode_signed`, the kernels' matrix products and pooling sums (see
pisim._kernels), and `encode`, which skips it when every value already
lies in [0, p), as a block of the sampled inputs does.
"""

from __future__ import annotations

import numpy as np

from .errors import PisimError

FIELD_MODULUS = 2**31 - 1
# the largest non-negative value of the signed window
HALF_RANGE = (FIELD_MODULUS - 1) // 2


class FieldOverflowRisk(PisimError, ValueError):
    """Worst-case activation magnitude exceeds the signed field capacity."""

    exit_code = 3


def encode(values) -> np.ndarray:
    """Embed signed integers into [0, p), as a new int64 array.

    The `%` runs only when some value lies outside [0, p): on the uint64
    view a negative value is 2**63 or more, so one max finds any.
    """
    x = np.array(values, dtype=np.int64)
    if x.size and x.view(np.uint64).max() >= FIELD_MODULUS:
        x %= FIELD_MODULUS
    return x


def decode_signed(values) -> np.ndarray:
    """Invert encode: field elements back to signed integers."""
    x = np.asarray(values, dtype=np.int64) % FIELD_MODULUS
    return np.where(x > HALF_RANGE, x - FIELD_MODULUS, x)


def reduce_once(x: np.ndarray) -> np.ndarray:
    """x mod p, in place, for an int64 array x with entries in [0, 2p);
    returns x.

    On the uint64 view, u - p wraps past 2**63 for u < p, so
    min(u, u - p) is u below p and u - p from p up.
    """
    u = x.view(np.uint64)
    np.minimum(u, u - FIELD_MODULUS, out=u)
    return x


def sample_elements(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform field elements, used for masks and additive shares."""
    return rng.integers(0, FIELD_MODULUS, size=shape, dtype=np.int64)

