import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autokolm.errors import ContractError, FormatError
from autokolm.seqgen import (
    bernoulli_bits,
    champernowne_bits,
    rational_bits,
    read_sequence_text,
)

from helpers import (
    champernowne_reference,
    rational_bits_reference,
    read_sequence_reference,
    wall_oracle,
)

# Where the numbers of b + 1 bits start: 1 + sum of j * 2**(j-1) for j <= b.
GROUP_ENDS = [(b - 1) * 2 ** b + 2 for b in range(1, 14)]
CHAMPERNOWNE = champernowne_reference(2 ** 17 + 2)


def test_champernowne_golden_prefix():
    assert champernowne_bits(22) == "0110111001011101111000"
    assert champernowne_bits(3) == "011"
    assert champernowne_bits(0) == ""


def test_champernowne_prefix_property():
    for n in range(0, 200):
        assert champernowne_bits(n + 1).startswith(champernowne_bits(n))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(n=st.integers(0, 2 ** 17))
def test_champernowne_matches_the_per_integer_reference(n):
    assert champernowne_bits(n) == CHAMPERNOWNE[:n]


def test_champernowne_matches_the_reference_at_every_bit_length_boundary():
    for end in GROUP_ENDS:
        for n in range(end - 2, end + 3):
            assert champernowne_bits(n) == CHAMPERNOWNE[:n]


def test_champernowne_peak_memory_is_bounded():
    # Measured peak 2.12 MB (the per-integer loop's: 6.78 MB); bound +25%.
    champernowne_bits(64)
    tracemalloc.start()
    try:
        bits = champernowne_bits(2 ** 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(bits) == 2 ** 20
    assert peak <= 2.65 * 2 ** 20


def test_rational_bits_match_long_division():
    for q in range(1, 30):
        for p in range(q):
            for n in range(70):
                assert rational_bits(p, q, n) == rational_bits_reference(p, q, n)


def test_rational_bits():
    assert rational_bits(1, 3, 6) == "010101"
    assert rational_bits(0, 1, 4) == "0000"
    assert rational_bits(1, 5, 8) == "00110011"
    with pytest.raises(ContractError):
        rational_bits(1, 0, 4)
    with pytest.raises(ContractError):
        rational_bits(3, 2, 4)


def test_negative_bit_counts_are_rejected():
    for make in (champernowne_bits, lambda n: rational_bits(1, 3, n),
                 lambda n: bernoulli_bits(0.5, 1, n)):
        assert make(0) == ""
        with pytest.raises(ContractError):
            make(-5)


def test_rational_agrees_with_expansion_oracle():
    rng = random.Random(31)
    from math import gcd
    done = 0
    while done < 100:
        q = rng.randint(2, 1000)
        p = rng.randint(0, q - 1)
        if gcd(p, q) != 1:
            continue
        pair = wall_oracle(3, p, q, 32)
        assert rational_bits(p, q, 32) == pair.x
        done += 1


def test_bernoulli_degenerate():
    assert bernoulli_bits(0.0, 5, 10) == "0" * 10
    assert bernoulli_bits(1.0, 5, 10) == "1" * 10
    assert bernoulli_bits(0.5, 5, 0) == ""


def test_bernoulli_reproducible():
    a = bernoulli_bits(0.3, 99, 5000)
    b = bernoulli_bits(0.3, 99, 5000)
    assert a == b
    assert bernoulli_bits(0.3, 100, 5000) != a


def test_bernoulli_count_golden():
    bits = bernoulli_bits(0.5, 42, 100_000)
    ones = bits.count("1")
    assert ones == 50064            # frozen from the first run
    assert abs(ones - 50_000) <= 500


def test_bernoulli_prefix_stability():
    long = bernoulli_bits(0.7, 8, 2000)
    short = bernoulli_bits(0.7, 8, 500)
    assert long.startswith(short)


def test_bernoulli_validates_probability():
    with pytest.raises(ContractError):
        bernoulli_bits(1.5, 0, 10)


def test_read_sequence_text():
    assert read_sequence_text("0 1\n1\t0\n") == "0110"
    with pytest.raises(FormatError) as exc:
        read_sequence_text("01x0")
    assert "offset 2" in str(exc.value)


# Every byte class: bits, each ASCII whitespace byte, stray ASCII bytes
# (other line breaks and separators among them) and non-ASCII characters.
SEQUENCE_CHARS = st.sampled_from(list("01 \t\n\r\v\f") + ["\x1c", "\x85", "\u2028", "\x00",
                                 "2", "x", "?", "\x7f", "\xe9", "\xff", "\u0663", "\U0001f600"])


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(text=st.one_of(st.text(SEQUENCE_CHARS, max_size=60),
                      st.text(st.sampled_from("01 \t\n\r\v\f"), max_size=60),
                      st.text(max_size=30)))
def test_read_sequence_text_matches_the_per_character_reference(text):
    try:
        expected = read_sequence_reference(text, "f")
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            read_sequence_text(text, "f")
        assert str(got.value) == str(exc)
    else:
        assert read_sequence_text(text, "f") == expected
