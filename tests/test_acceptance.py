"""Acceptance suite: one test per criterion, one printed verdict line each.

Thresholds below were derived first (entropy computations, pilot runs,
exact enumeration) and then frozen; see the module tests for the
derivations exercised at smaller scale.
"""

import itertools
import math
import random

from autokolm.automaton import (
    EPSILON,
    LabeledAutomaton,
    enumerate_relation,
)
from autokolm.complexity import (
    UNREACHABLE,
    complexity,
    pair_complexity,
)
from autokolm.constructions import (
    FINITE_ON_NORMAL,
    MIXED,
    POSITIVE_DENSITY,
    apply_selection,
    classify_selection,
    joint,
    merge,
    splitter_mode,
    wall_mode,
)
from autokolm.errors import BudgetExceeded
from autokolm.modes import (
    BINARY,
    DescriptionMode,
    ValuednessCertificate,
    append_symbol,
    compose,
    eps_cycle_check,
    identity_mode,
    layered_concat,
    unary_compressor,
    union,
    valuedness_profile,
)
from autokolm.normality import (
    block_histogram,
    build_block_coder,
    discrepancy,
    huffman_code,
    smoothed_counts,
)
from autokolm.seqgen import bernoulli_bits, champernowne_bits

from helpers import (
    all_accepting_rule,
    average_code_length,
    branch_rule,
    brute_force_k_table,
    compose_join_oracle,
    none_accepting_rule,
    ones_count_mod_rule,
    parity_rule,
    prefix_shorter_than_rule,
    random_automaton,
    random_finite_mode,
    random_rule,
    random_word,
    read_relation_contains,
    selection_trace,
    suffix_rule,
    superadditivity_check,
    transient_accept_rule,
    wall_oracle,
    wall_pair_realizable,
)


def _passed(num, label):
    print(f"[criterion {num:02d}] {label}: PASS")


def all_words(max_len):
    out = [""]
    for n in range(1, max_len + 1):
        out.extend("".join(w) for w in itertools.product("01", repeat=n))
    return out


def built_in_modes():
    champ = champernowne_bits(20_000)
    b9 = bernoulli_bits(0.9, 7, 20_000)
    modes = [identity_mode()]
    modes += [unary_compressor(c) for c in (1, 2, 3, 5)]
    modes.append(build_block_coder(block_histogram(champ, 10_000, 2, "aligned")))
    modes.append(build_block_coder(block_histogram(b9, 10_000, 4, "aligned")))
    modes += [wall_mode(3), wall_mode(5)]
    modes += [layered_concat(identity_mode(), n) for n in (1, 2, 4)]
    return modes


def test_criterion_01_engine_matches_enumeration_oracle():
    rng = random.Random(101)
    words = all_words(8)
    accepted = 0
    attempts = 0
    while accepted < 50:
        attempts += 1
        assert attempts < 500, "too many resamples"
        mode = random_finite_mode(rng, max_states=5, max_edges=9)
        try:
            table = brute_force_k_table(mode.automaton, 8, budget=800_000)
        except BudgetExceeded:
            continue
        for x in words:
            expected = table.get(x, UNREACHABLE)
            assert complexity(mode, x) == expected, (mode.automaton, x)
        accepted += 1
    _passed(1, "complexity engine equals enumeration oracle on 50 automata")


def test_criterion_02_superadditivity_and_monotonicity():
    rng = random.Random(102)
    for mode in built_in_modes():
        for _ in range(1000):
            x = random_word(rng, 10)
            y = random_word(rng, 10)
            assert superadditivity_check(mode, x, y), (mode.name, x, y)
            z = x + y
            kz = complexity(mode, z)
            for _ in range(2):
                i = rng.randint(0, len(z))
                j = rng.randint(i, len(z))
                assert complexity(mode, z[i:j]) <= kz, (mode.name, z, i, j)
    _passed(2, "superadditivity and substring monotonicity, zero violations")


def test_criterion_03_unary_envelope():
    for c in (1, 2, 3, 5):
        mode = unary_compressor(c)
        for n in range(41):
            k = complexity(mode, "1" * n)
            assert isinstance(k, int)
            assert (k - 1) * c <= n <= (k + 1) * c, (c, n, k)
    _passed(3, "unary envelope (k-1)c <= n <= (k+1)c exact for n <= 40")


def test_criterion_04_union_minimality():
    rng = random.Random(104)
    champ = champernowne_bits(8_000)
    pool = [identity_mode(), unary_compressor(2), unary_compressor(3),
            wall_mode(3), layered_concat(identity_mode(), 2),
            build_block_coder(block_histogram(champ, 4_000, 2, "aligned"))]
    for trial in range(500):
        if trial % 2 == 0:
            m1, m2 = rng.choice(pool), rng.choice(pool)
        else:
            m1 = random_finite_mode(rng, max_states=4, max_edges=7)
            m2 = random_finite_mode(rng, max_states=4, max_edges=7)
        u = union(m1, m2)
        x = random_word(rng, 10)
        assert complexity(u, x) == min(complexity(m1, x), complexity(m2, x))
    _passed(4, "union complexity equals pointwise minimum, 500 instances")


def test_criterion_05_layered_concatenation_bound():
    words = all_words(5)
    for n_layers in (1, 2, 4):
        lay = layered_concat(identity_mode(), n_layers)
        for x in words:
            bound_x = len(x) + len(x) // n_layers + 1
            for y in words:
                assert complexity(lay, x + y) <= bound_x + len(y), \
                    (n_layers, x, y)
    _passed(5, "layered concatenation bound exhaustive for |x|,|y| <= 5")


def test_criterion_06_composition_equals_join():
    rng = random.Random(106)
    accepted = 0
    attempts = 0
    while accepted < 30:
        attempts += 1
        assert attempts < 300, "too many resamples"
        a1 = random_automaton(rng, max_states=4, max_edges=8)
        a2 = random_automaton(rng, max_states=4, max_edges=8)
        try:
            expected = compose_join_oracle(a1, a2, 4, budget=800_000)
        except BudgetExceeded:
            continue
        m = compose(DescriptionMode(a1, ValuednessCertificate.unknown()),
                    DescriptionMode(a2, ValuednessCertificate.unknown()))
        got = enumerate_relation(m.automaton, 4, budget=800_000)
        assert got == expected
        accepted += 1
    _passed(6, "composition relation equals brute-force join, 30 pairs")


def test_criterion_07_champernowne_golden_prefix():
    assert champernowne_bits(22) == "0110111001011101111000"
    _passed(7, "Champernowne 22-bit golden prefix")


def test_criterion_08_champernowne_normality_trend():
    bits = champernowne_bits(10 ** 6)
    for k in (1, 2, 4):
        discs = [discrepancy(block_histogram(bits, n, k, "sliding"))
                 for n in (10 ** 4, 10 ** 5, 10 ** 6)]
        assert discs[0] > discs[1] > discs[2], (k, discs)
    coder = build_block_coder(block_histogram(bits, 500_000, 8, "aligned"))
    ratio = complexity(coder, bits) / 10 ** 6
    # Derivation: empirical 8-block entropy of the prefix is 7.909 bits,
    # so the floor 7.909/8 - 0.01 = 0.978 clears the frozen 0.95.
    assert ratio >= 0.95, ratio
    _passed(8, "Champernowne discrepancy trend and coder ratio >= 0.95")


def test_criterion_09_compressibility_of_non_normal_input():
    b9 = bernoulli_bits(0.9, 7, 100_000)
    hist = block_histogram(b9, 50_000, 8, "aligned")
    coder = build_block_coder(hist)
    counts = smoothed_counts(hist)
    avg = average_code_length(huffman_code(counts), counts)
    ratio = complexity(coder, b9) / 100_000
    assert ratio <= avg / 8 + 0.03, (ratio, avg)
    assert ratio < 0.75, ratio

    per = "01" * 50_000
    per_coder = build_block_coder(block_histogram(per, 50_000, 8, "aligned"))
    per_ratio = complexity(per_coder, per) / 100_000
    assert per_ratio < 0.2, per_ratio
    _passed(9, "skewed inputs compress below their frozen thresholds")


def test_criterion_10_wall_soundness():
    rng = random.Random(110)
    done = 0
    while done < 200:
        q = rng.randint(2, 1000)
        p = rng.randint(0, q - 1)
        if math.gcd(p, q) != 1:
            continue
        c = rng.choice((3, 5, 7, 10))
        pair = wall_oracle(c, p, q, 64)
        mode = wall_mode(c)
        xs = [pair.x] + ([pair.alt_x] if pair.alt_x else [])
        ys = [pair.y] + ([pair.alt_y] if pair.alt_y else [])
        assert any(read_relation_contains(mode.automaton, (x, y))
                   for x in xs for y in ys), (c, p, q)
        done += 1
    profile = valuedness_profile(wall_mode(3), 10)
    assert profile.max_fanout == 4   # frozen; criterion allows <= 4
    assert profile.max_fanout <= 4
    _passed(10, "wall oracle pairs accepted (200 fractions); profile <= 4")


def test_criterion_11_wall_small_scale_completeness():
    w3 = wall_mode(3)
    pairs = enumerate_relation(w3.automaton, 8)
    assert len(pairs) > 500
    for x, y in pairs:
        assert len(x) == len(y)
        assert wall_pair_realizable(3, x, y), (x, y)
    _passed(11, "every accepted wall pair up to length 8 is realizable")


def test_criterion_12_agafonov_machinery():
    rng = random.Random(112)
    # Splitter/merge round trip and exact pair complexity.
    for _ in range(1000):
        rule = random_rule(rng, max_states=6)
        w = random_word(rng, 64)
        u, v = apply_selection(rule, w)
        assert merge(rule, u, v) == w
    for _ in range(200):
        rule = random_rule(rng, max_states=6)
        w = random_word(rng, 32)
        assert pair_complexity(splitter_mode(rule), w) == len(w)

    # Joint inequality with a trained coder as the front mode.
    champ = champernowne_bits(20_000)
    coder = build_block_coder(block_histogram(champ, 10_000, 2, "aligned"))
    for _ in range(200):
        rule = random_rule(rng, max_states=4)
        j = joint(coder, splitter_mode(rule))
        w = random_word(rng, 28)
        u, v = apply_selection(rule, w)
        assert pair_complexity(j, w) <= complexity(coder, u) + len(v)

    # Classifier verdicts versus simulated selected counts.
    rules = [
        all_accepting_rule(), none_accepting_rule(), parity_rule(),
        prefix_shorter_than_rule(1), prefix_shorter_than_rule(2),
        prefix_shorter_than_rule(3), prefix_shorter_than_rule(4),
        prefix_shorter_than_rule(5),
        suffix_rule("1"), suffix_rule("11"), suffix_rule("010"),
        suffix_rule("0110"),
        ones_count_mod_rule(2, 0), ones_count_mod_rule(3, 1),
        ones_count_mod_rule(5, 2),
        branch_rule(True, False), branch_rule(False, True),
        branch_rule(True, True), branch_rule(False, False),
        transient_accept_rule(),
    ]
    assert len(rules) == 20
    bits = bernoulli_bits(0.5, 2024, 10 ** 6)
    for rule in rules:
        verdict = classify_selection(rule)
        trace = dict(selection_trace(rule, bits, [10 ** 4, 10 ** 6]))
        early, late = trace[10 ** 4], trace[10 ** 6]
        growing = late > early and late / 10 ** 6 >= 0.03
        stopped = late == early
        if verdict == POSITIVE_DENSITY:
            assert growing, (verdict, early, late)
        elif verdict == FINITE_ON_NORMAL:
            assert stopped, (verdict, early, late)
        else:
            assert verdict == MIXED and (growing or stopped), (early, late)
    _passed(12, "splitter/merge, pair complexity, joint bound, classifier")


def test_criterion_13_valuedness_checks():
    loop = LabeledAutomaton(2, (BINARY, BINARY), 1, ((0, 0, (EPSILON, "0")),))
    witness = eps_cycle_check(loop)
    assert witness == ((0, 0, (EPSILON, "0")),)
    mode = DescriptionMode(loop, ValuednessCertificate.unknown())
    assert valuedness_profile(mode, 4).max_fanout == "unbounded"

    assert valuedness_profile(identity_mode(), 8).max_fanout == 1

    champ = champernowne_bits(20_000)
    constructions = [
        identity_mode(),
        unary_compressor(1), unary_compressor(2), unary_compressor(3),
        unary_compressor(5),
        append_symbol(identity_mode(), "0"),
        union(identity_mode(), unary_compressor(2)),
        compose(unary_compressor(2), unary_compressor(3)),
        layered_concat(identity_mode(), 1),
        layered_concat(identity_mode(), 2),
        layered_concat(identity_mode(), 4),
        build_block_coder(block_histogram(champ, 10_000, 2, "aligned")),
        wall_mode(3),
        splitter_mode(parity_rule()),
    ]
    for built in constructions:
        profile = valuedness_profile(built, 8)
        assert profile.is_finite, built.name
        assert profile.max_fanout <= built.certificate.bound, \
            (built.name, profile.max_fanout, built.certificate.bound)
    _passed(13, "structural witness, identity fan-out, certificates hold at L=8")


def test_criterion_14_aligned_offsets_partition_sliding():
    rng = random.Random(114)
    for _ in range(60):
        bits = random_word(rng, 200, min_len=1)
        n = len(bits)
        for k in range(1, 9):
            if n < k:
                continue
            sliding = block_histogram(bits, n, k, "sliding").counts
            combined = {}
            for j in range(k):
                if n - j < k:
                    continue
                for b, c in block_histogram(bits[j:n], n - j, k,
                                            "aligned").counts.items():
                    combined[b] = combined.get(b, 0) + c
            assert combined == sliding, (bits, k)
    _passed(14, "offset-class decomposition of sliding counts, zero violations")
