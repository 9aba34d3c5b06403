"""Deterministic binary digit sources.

All sources emit '0'/'1' characters.  Equal parameters always produce
the same stream, on every platform.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, FormatError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def champernowne_bits(n: int) -> str:
    """First n bits of 0 1 10 11 100 101 110 111 1000 ...

    The stream starts with a lone 0 and then concatenates the positive
    integers written in binary, built one bit length b at a time: the
    numbers of b bits are one arange, unpacked from their big-endian
    bytes and cut to their last b columns.
    """
    if n < 0:
        raise ContractError("bit count must be nonnegative")
    groups, total, b = [np.zeros(1, dtype=np.uint8)], 1, 1
    while total < n:
        first, size = 1 << (b - 1), -(-b // 8)      # size: bytes that hold b bits
        count = min(first, -(-(n - total) // b))
        numbers = np.arange(first, first + count, dtype=">u8").view(np.uint8)
        columns = np.unpackbits(numbers.reshape(count, 8)[:, 8 - size:], axis=1)
        groups.append(columns[:, 8 * size - b:].ravel())
        total += count * b
        b += 1
    bits = np.concatenate(groups)[:n]
    del groups                          # so the peak holds the bits twice, not thrice
    bits += ord("0")
    return str(bits, "ascii")


def rational_bits(p: int, q: int, n: int) -> str:
    """First n binary digits of frac(p/q): floor(p * 2**n / q) in n digits.

    Dyadic rationals get their terminating expansion (trailing zeros).
    """
    if q == 0:
        raise ContractError("denominator must be nonzero")
    if not 0 <= p < q:
        raise ContractError("need 0 <= p < q")
    if n < 0:
        raise ContractError("bit count must be nonnegative")
    return format((p << n) // q, f"0{n}b") if n else ""


def bernoulli_bits(p: float, seed: int, n: int) -> str:
    """n bits, bit i set iff the i-th SplitMix64 draw is below p * 2**64.

    SplitMix64 is counter-based, so the draws vectorize: draw i mixes
    seed + (i+1) * 0x9E3779B97F4A7C15 through two xor-multiply rounds.
    """
    if not 0.0 <= p <= 1.0:
        raise ContractError("probability must lie in [0, 1]")
    if n < 0:
        raise ContractError("bit count must be nonnegative")
    if n == 0:
        return ""
    if p == 0.0:
        return "0" * n
    if p == 1.0:
        return "1" * n
    threshold = np.uint64(min(int(p * 2.0 ** 64), _MASK))
    idx = np.arange(1, n + 1, dtype=np.uint64)
    z = (np.uint64(seed & _MASK) + idx * np.uint64(_GOLDEN))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z = z ^ (z >> np.uint64(31))
    bits = np.where(z < threshold, ord("1"), ord("0")).astype(np.uint8)
    return bits.tobytes().decode("ascii")


def read_sequence_text(text: str, origin: str = "<input>") -> str:
    """Extract a 0/1 string, ignoring ASCII whitespace; other bytes are errors."""
    # A non-ASCII character encodes as one stray '?': offsets stay character offsets.
    raw = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
    stray = ~np.isin(raw, list(b"01 \t\n\r\v\f"))
    if stray.any():
        offset = int(stray.argmax())
        raise FormatError(f"{origin}: unexpected byte {text[offset]!r} at offset {offset}")
    return str(raw[raw >= ord("0")], "ascii")          # whitespace sorts below '0'


def read_sequence_file(path) -> str:
    # Latin-1 maps each byte to one character, so a non-ASCII byte gets the
    # same error, at its byte offset, as any other stray byte.
    with open(path, "rb") as fh:
        return read_sequence_text(fh.read().decode("latin-1"), origin=str(path))
