import math
import random

import pytest

from autokolm import normality
from autokolm.complexity import complexity
from autokolm.errors import BudgetExceeded, ContractError
from autokolm.modes import eps_cycle_check, valuedness_profile
from autokolm.normality import (
    BlockHistogram,
    average_code_length,
    block_histogram,
    build_block_coder,
    discrepancy,
    empirical_entropy,
    huffman_code,
    normality_report,
    ps_ratio,
    report_to_csv,
    smoothed_counts,
)
from autokolm.seqgen import bernoulli_bits, champernowne_bits

from helpers import offset_class_counts, random_word


def test_histogram_examples():
    h = block_histogram("00011011", 8, 2, "aligned")
    assert h.counts == {"00": 1, "01": 1, "10": 1, "11": 1}
    per = "01" * 50
    assert block_histogram(per, 100, 2, "aligned").counts == {"01": 50}
    assert block_histogram(per, 100, 2, "sliding").counts == {"01": 50, "10": 49}


def test_histogram_totals():
    rng = random.Random(41)
    for _ in range(30):
        bits = random_word(rng, 60, min_len=8)
        k = rng.randint(1, 5)
        n = rng.randint(k, len(bits))
        al = block_histogram(bits, n, k, "aligned")
        sl = block_histogram(bits, n, k, "sliding")
        assert sum(al.counts.values()) == n // k == al.total
        assert sum(sl.counts.values()) == n - k + 1 == sl.total
        assert all(len(b) == k for b in al.counts)
        assert all(len(b) == k for b in sl.counts)


def test_histogram_contract_errors():
    with pytest.raises(ContractError):
        block_histogram("0101", 2, 3, "aligned")
    with pytest.raises(ContractError):
        block_histogram("0101", 4, 2, "diagonal")
    with pytest.raises(BudgetExceeded):
        block_histogram("0" * 100, 100, 25, "aligned")
    with pytest.raises(ContractError):
        block_histogram("01", 8, 2, "aligned")


def test_histogram_counts_against_manual_loop():
    rng = random.Random(42)
    for _ in range(20):
        bits = random_word(rng, 80, min_len=10)
        k = rng.randint(1, 4)
        n = len(bits)
        sl = block_histogram(bits, n, k, "sliding")
        manual = {}
        for i in range(n - k + 1):
            b = bits[i:i + k]
            manual[b] = manual.get(b, 0) + 1
        assert sl.counts == manual


def test_discrepancy_examples():
    uniform = BlockHistogram(2, "aligned", 8, {"00": 1, "01": 1, "10": 1, "11": 1})
    assert discrepancy(uniform) == 0
    single = BlockHistogram(2, "aligned", 8, {"01": 4})
    assert discrepancy(single) == pytest.approx(3 / 4)


def test_discrepancy_champernowne_frozen_threshold():
    bits = champernowne_bits(10 ** 6)
    d = discrepancy(block_histogram(bits, 10 ** 6, 4, "sliding"))
    assert d <= 0.0238   # 1.5x the piloted 0.01581


def test_entropy_examples():
    uniform = BlockHistogram(2, "aligned", 8, {"00": 2, "01": 2, "10": 2, "11": 2})
    assert empirical_entropy(uniform) == pytest.approx(2.0)
    single = BlockHistogram(2, "aligned", 8, {"01": 4})
    assert empirical_entropy(single) == 0
    bits = bernoulli_bits(0.9, 3, 100_000)
    h = block_histogram(bits, 100_000, 1, "aligned")
    analytic = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    assert abs(empirical_entropy(h) - analytic) <= 0.02


def test_entropy_never_exceeds_k():
    rng = random.Random(43)
    for _ in range(30):
        bits = random_word(rng, 120, min_len=10)
        k = rng.randint(1, 4)
        h = block_histogram(bits, len(bits), k, "sliding")
        e = empirical_entropy(h)
        assert e <= k + 1e-9
        if e >= k - 1e-9:
            assert len(set(h.counts.values())) == 1 and len(h.counts) == 2 ** k


def test_ps_ratio_examples():
    uniform = BlockHistogram(2, "aligned", 8, {"00": 1, "01": 1, "10": 1, "11": 1})
    assert ps_ratio(uniform) == pytest.approx(1.0)
    single = BlockHistogram(2, "aligned", 8, {"01": 4})
    assert ps_ratio(single) == pytest.approx(4.0)


def test_ps_ratio_champernowne_bounded_across_k():
    bits = champernowne_bits(10 ** 6)
    for k in range(1, 9):
        r = ps_ratio(block_histogram(bits, 10 ** 6, k, "sliding"))
        assert r <= 2.0   # piloted max 1.51 at k=8


def test_aligned_offsets_sum_to_sliding():
    rng = random.Random(44)
    for _ in range(40):
        bits = random_word(rng, 200, min_len=12)
        n = len(bits)
        for k in range(1, 6):
            if n < k:
                continue
            sliding = block_histogram(bits, n, k, "sliding").counts
            groups = offset_class_counts(bits, n, k)
            combined = {}
            for g in groups:
                for b, c in g.items():
                    combined[b] = combined.get(b, 0) + c
            assert combined == sliding
            # Offset class j is the aligned histogram of the shifted prefix.
            for j in range(k):
                if n - j < k:
                    assert groups[j] == {}
                    continue
                al = block_histogram(bits[j:n], n - j, k, "aligned")
                assert al.counts == groups[j]


def test_huffman_uniform_binary_blocks():
    counts = {"00": 5, "01": 5, "10": 5, "11": 5}
    code = huffman_code(counts)
    assert sorted(code.values()) == ["00", "01", "10", "11"]


def test_huffman_is_prefix_free_and_complete():
    rng = random.Random(45)
    for _ in range(20):
        k = rng.randint(1, 4)
        counts = {format(v, f"0{k}b"): rng.randint(1, 50)
                  for v in range(2 ** k)}
        code = huffman_code(counts)
        words = sorted(code.values())
        for i, w in enumerate(words):
            for w2 in words[i + 1:]:
                assert not w2.startswith(w)
        assert sum(2.0 ** -len(w) for w in code.values()) <= 1.0 + 1e-12


def test_huffman_beats_shannon_code():
    # The Shannon code assigns ceil(-log2 p) bits; Huffman must not do worse.
    rng = random.Random(46)
    for _ in range(20):
        k = rng.randint(1, 4)
        counts = {format(v, f"0{k}b"): rng.randint(1, 100)
                  for v in range(2 ** k)}
        total = sum(counts.values())
        code = huffman_code(counts)
        huff = average_code_length(code, counts)
        shannon = sum(c * math.ceil(-math.log2(c / total)) if c < total else c
                      for c in counts.values()) / total
        assert huff <= shannon + 1e-9


def test_huffman_average_within_entropy_plus_one():
    rng = random.Random(47)
    for _ in range(20):
        k = rng.randint(1, 4)
        counts = {format(v, f"0{k}b"): rng.randint(1, 100)
                  for v in range(2 ** k)}
        total = sum(counts.values())
        ent = -sum((c / total) * math.log2(c / total) for c in counts.values())
        avg = average_code_length(huffman_code(counts), counts)
        assert ent - 1e-9 <= avg <= ent + 1 + 1e-9


def test_huffman_deterministic_tie_break():
    counts = {"00": 1, "01": 1, "10": 1, "11": 1}
    assert huffman_code(counts) == huffman_code(dict(reversed(list(counts.items()))))


def test_coder_uniform_histogram():
    h = BlockHistogram(2, "aligned", 16, {"00": 4, "01": 4, "10": 4, "11": 4})
    coder = build_block_coder(h)
    code = huffman_code(smoothed_counts(h))
    assert all(len(w) == 2 for w in code.values())
    # Free start emits the first block without consuming description
    # bits, so aligned inputs cost their length minus one block.
    for x in ("0011", "011010", "00110110"):
        assert complexity(coder, x) == max(0, len(x) - 2)


def test_coder_degenerate_histogram_short_codeword():
    h = BlockHistogram(2, "aligned", 2000, {"00": 1000})
    coder = build_block_coder(h)
    code = huffman_code(smoothed_counts(h))
    L = len(code["00"])
    assert L == 1
    for m in (1, 3, 8):
        assert complexity(coder, "00" * m) <= m * L


def test_coder_average_length_bernoulli():
    bits = bernoulli_bits(0.9, 12, 20_000)
    h = block_histogram(bits, 20_000, 4, "aligned")
    counts = smoothed_counts(h)
    code = huffman_code(counts)
    avg = average_code_length(code, counts)
    total = sum(counts.values())
    ent = -sum((c / total) * math.log2(c / total) for c in counts.values())
    assert ent <= avg <= ent + 1


def test_coder_valuedness():
    bits = champernowne_bits(4000)
    h = block_histogram(bits, 2000, 2, "aligned")
    coder = build_block_coder(h)
    assert eps_cycle_check(coder) is None
    prof = valuedness_profile(coder, 4)   # L = 2k
    assert prof.is_finite
    assert prof.max_fanout <= coder.certificate.bound


def test_coder_requires_aligned_histogram():
    h = block_histogram("0101010101", 10, 2, "sliding")
    with pytest.raises(ContractError):
        build_block_coder(h)
    big = BlockHistogram(13, "aligned", 13, {"0" * 13: 1})
    with pytest.raises(BudgetExceeded):
        build_block_coder(big)


def test_coder_compresses_its_training_sequence():
    # Direction one of the correspondence: skewed statistics => ratio
    # under (H_emp + 1) / k plus boundary slack.
    bits = bernoulli_bits(0.85, 5, 40_000)
    k = 4
    h = block_histogram(bits, 40_000, k, "aligned")
    coder = build_block_coder(h)
    counts = smoothed_counts(h)
    total = sum(counts.values())
    ent = -sum((c / total) * math.log2(c / total) for c in counts.values())
    ratio = complexity(coder, bits) / 40_000
    assert ratio <= (ent + 1) / k + 0.01
    assert ratio < 1


def test_fair_coin_sliding_discrepancy_small():
    bits = bernoulli_bits(0.5, 11, 10 ** 6)
    for k in range(1, 5):
        d = discrepancy(block_histogram(bits, 10 ** 6, k, "sliding"))
        assert d <= 0.01   # piloted max 0.0004 across k <= 4


def test_report_periodic_input():
    per = "01" * 5_000
    rows = normality_report(per, 10_000, 2)
    row2 = rows[1]
    assert row2.k == 2
    assert row2.aligned_disc == pytest.approx(3 / 4)
    # One description bit per two-bit block, so the ratio sits at ~1/2;
    # at k=1 both symbols are equally frequent and nothing compresses.
    assert abs(row2.coder_ratio - 0.5) <= 0.01
    assert rows[0].coder_ratio >= 0.95


def test_report_csv_format():
    rows = normality_report(champernowne_bits(2000), 2000, 2)
    text = report_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "k,aligned_disc,sliding_disc,entropy,ps_ratio,coder_ratio"
    assert len(lines) == 3
    assert all(len(line.split(",")) == 6 for line in lines[1:])


def test_report_k_max_validation():
    with pytest.raises(ContractError):
        normality_report("01" * 50, 100, 0)
    with pytest.raises(ContractError):
        normality_report("01" * 50, 100, 17)


@pytest.mark.parametrize("k_max", [13, 16])
def test_report_k_max_stops_at_the_coder_limit(monkeypatch, k_max):
    def refuse(h):
        raise AssertionError("a coder was built")
    monkeypatch.setattr(normality, "build_block_coder", refuse)
    with pytest.raises(ContractError, match=r"1\.\.12"):
        normality_report(champernowne_bits(20_000), 20_000, k_max)
