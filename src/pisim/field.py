"""Prime-field encoding for the functional protocol stand-ins.

Secret shares and masked activations live in Z_p for the Mersenne prime
p = FIELD_MODULUS = 2**31 - 1. Signed integers are embedded
symmetrically: values in [0, (p-1)/2] are non-negative, the rest decode
as negative, so exactness requires every true intermediate activation to
stay within +-(p-1)/2. The plaintext reference in pisim.protocol.oracle
checks each intermediate against that window and raises FieldOverflowRisk
once one leaves it.

Reduction takes one of three forms. An operand that is a sum of two
residues, or a difference of two offset by +p, lies in [0, 2p), and
`reduce_once` takes at most one p off with an unsigned `min`, much
cheaper than `%`, an int64 division; the protocol's share sums, ReLU
gadget, input masking and final unmask reduce that way. The kernels
reduce their float64 products in float64 (see pisim._kernels). `%` runs
only in `decode_signed`, in `encode` when some value lies outside
[0, p), and in `sumpool_mod`'s window sums.
"""

from __future__ import annotations

from ._numpy import np
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


def seeded_integers(entropy, low: int, high: int, n: int) -> np.ndarray:
    """np.random.default_rng(np.random.SeedSequence(entropy)).integers(low,
    high, n, dtype=np.int64), bit for bit, for a span high - low in [1, 2**32).

    numpy draws such a span by Lemire's multiply-shift ("Fast Random
    Integer Generation in an Interval", ACM TOMACS 2019): each 32-bit half
    u of PCG64's outputs, the low half first, gives low + (u * span >> 32),
    skipping a half whose product's low word is below (2**32 - span) % span.
    Successive draws of one span read the stream with no gap, so one call
    equals a generator's successive calls. tests/test_kernels.py holds it
    bit-equal to numpy's (checked on numpy 2.4.6).
    """
    span = high - low
    if not 0 < span < 2**32:
        raise ValueError(f"span {span} is outside [1, 2**32)")
    bits = np.random.PCG64(np.random.SeedSequence(entropy))
    skip = (2**32 - span) % span
    m = np.empty(0, dtype=np.uint64)
    while len(m) < n:
        u = bits.random_raw((n - len(m) + 1) // 2).astype("<u8", copy=False).view("<u4")
        more = np.multiply(u, span, dtype=np.uint64)
        if skip:
            more = more[more.astype(np.uint32) >= skip]
        m = np.concatenate((m, more)) if len(m) else more
    m >>= 32
    out = m[:n].view(np.int64)
    out += low
    return out
