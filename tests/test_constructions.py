import random
from math import gcd

import pytest

from autokolm.automaton import (
    enumerate_relation,
    read_relation_contains,
    swap_tapes,
)
from autokolm.complexity import complexity, pair_complexity
from autokolm.constructions import (
    FINITE_ON_NORMAL,
    MIXED,
    POSITIVE_DENSITY,
    SelectionRule,
    apply_selection,
    classify_selection,
    joint,
    merge,
    parse_rule,
    selection_trace,
    serialize_rule,
    splitter_mode,
    wall_mode,
    wall_oracle,
)
from autokolm.errors import BudgetExceeded, ContractError, FormatError
from autokolm.modes import identity_mode
from autokolm.normality import block_histogram, build_block_coder
from autokolm.seqgen import champernowne_bits

from helpers import (
    all_accepting_rule,
    branch_rule,
    compose_join_oracle,
    none_accepting_rule,
    parity_rule,
    prefix_shorter_than_rule,
    random_finite_mode,
    random_rule,
    random_word,
    suffix_rule,
    wall_pair_realizable,
)


# --- wall -----------------------------------------------------------------

def test_wall_mode_examples():
    w3 = wall_mode(3)
    assert read_relation_contains(w3.automaton, ("0011", "1001"))
    assert read_relation_contains(w3.automaton, ("", ""))
    w2 = wall_mode(2)
    assert read_relation_contains(w2.automaton, ("01", "10"))
    with pytest.raises(ContractError):
        wall_mode(1)


def test_wall_mode_certificate_is_brute_forced():
    cert = wall_mode(3).certificate
    assert cert.method == "brute-force-up-to-L"
    assert cert.length_bound == 10
    assert isinstance(cert.bound, int)


def test_wall_oracle_examples():
    pair = wall_oracle(3, 1, 5, 8)
    assert (pair.x, pair.y) == ("00110011", "10011001")
    assert not pair.dyadic

    half = wall_oracle(2, 1, 2, 4)
    assert half.y_dyadic       # 2 * (1/2) is an integer
    assert half.x_dyadic
    assert half.x == "1000" and half.alt_x == "0111"
    assert half.y == "0000" and half.alt_y == "1111"

    zero = wall_oracle(3, 0, 1, 4)
    assert (zero.x, zero.y) == ("0000", "0000")


def test_wall_oracle_contract_errors():
    with pytest.raises(ContractError):
        wall_oracle(3, 1, 0, 4)
    with pytest.raises(ContractError):
        wall_oracle(3, 5, 3, 4)


def test_wall_soundness_random_fractions():
    rng = random.Random(51)
    done = 0
    while done < 60:
        q = rng.randint(2, 1000)
        p = rng.randint(0, q - 1)
        if gcd(p, q) != 1:
            continue
        c = rng.choice((3, 5, 7, 10))
        pair = wall_oracle(c, p, q, 48)
        mode = wall_mode(c)
        xs = [pair.x] + ([pair.alt_x] if pair.alt_x else [])
        ys = [pair.y] + ([pair.alt_y] if pair.alt_y else [])
        assert any(read_relation_contains(mode.automaton, (x, y))
                   for x in xs for y in ys), (c, p, q)
        done += 1


def test_wall_completeness_small():
    w3 = wall_mode(3)
    for x, y in enumerate_relation(w3.automaton, 6):
        assert len(x) == len(y)
        assert wall_pair_realizable(3, x, y), (x, y)


def test_wall_accepts_mixed_representation_pairs():
    # g = 1/4: "00" prefixes the non-terminating expansion 0.00111...,
    # "11" prefixes 3g = 3/4 terminating as 0.11000...; reading them
    # together drives the carry to its maximum value c.
    w3 = wall_mode(3)
    assert read_relation_contains(w3.automaton, ("00", "11"))
    assert read_relation_contains(w3.automaton, ("0011", "1100"))
    # Same g for c=2: 2g = 1/2 terminates while x stays non-terminating.
    w2 = wall_mode(2)
    assert read_relation_contains(w2.automaton, ("00", "10"))


def test_wall_realizable_rejects_garbage():
    # A pair violating the interval condition must not be accepted.
    w3 = wall_mode(3)
    assert not wall_pair_realizable(3, "0000", "1111")
    assert not read_relation_contains(w3.automaton, ("0000", "1111"))


def test_wall_swap_gives_division_direction():
    w3 = wall_mode(3)
    inv = swap_tapes(w3.automaton, 0, 1)
    lhs = read_relation_contains(inv, ("1001", "0011"))
    rhs = read_relation_contains(w3.automaton, ("0011", "1001"))
    assert lhs == rhs is True
    fwd = enumerate_relation(w3.automaton, 3)
    bwd = enumerate_relation(inv, 3)
    assert bwd == {(y, x) for x, y in fwd}


# --- selection ---------------------------------------------------------------

def test_apply_selection_examples():
    w = "0110"
    assert apply_selection(all_accepting_rule(), w) == (w, "")
    assert apply_selection(none_accepting_rule(), w) == ("", w)
    assert apply_selection(parity_rule(), w) == ("01", "10")


def test_apply_selection_preserves_length():
    rng = random.Random(52)
    for _ in range(50):
        rule = random_rule(rng)
        w = random_word(rng, 30)
        u, v = apply_selection(rule, w)
        assert len(u) + len(v) == len(w)


def test_merge_examples():
    assert merge(all_accepting_rule(), "0110", "") == "0110"
    assert merge(all_accepting_rule(), "0110", "0") is None
    assert merge(none_accepting_rule(), "", "11") == "11"


def test_merge_round_trip():
    rng = random.Random(53)
    for _ in range(200):
        rule = random_rule(rng)
        w = random_word(rng, 64)
        u, v = apply_selection(rule, w)
        assert merge(rule, u, v) == w


def test_splitter_all_accepting_triples():
    sp = splitter_mode(all_accepting_rule())
    rel = enumerate_relation(sp.automaton, 3)
    assert rel == {(w, "", w) for w in
                   {"", "0", "1", "00", "01", "10", "11",
                    "000", "001", "010", "011", "100", "101", "110", "111"}}


def test_splitter_accepts_selection_output():
    rng = random.Random(54)
    for _ in range(60):
        rule = random_rule(rng)
        w = random_word(rng, 16)
        u, v = apply_selection(rule, w)
        assert read_relation_contains(splitter_mode(rule).automaton, (u, v, w))


def test_splitter_triples_match_selection_from_some_start():
    rng = random.Random(55)
    for _ in range(8):
        rule = random_rule(rng, max_states=4)
        sp = splitter_mode(rule)
        got = enumerate_relation(sp.automaton, 4)
        expected = set()
        for start in range(rule.num_states):
            pinned = SelectionRule(rule.num_states, start, rule.accepting,
                                   rule.transitions)
            for n in range(5):
                for bits in range(1 << n):
                    w = format(bits, f"0{n}b") if n else ""
                    u, v = apply_selection(pinned, w)
                    if len(u) <= 4 and len(v) <= 4:
                        expected.add((u, v, w))
        assert got == expected


def test_splitter_certificate_and_pair_complexity():
    rng = random.Random(56)
    for _ in range(20):
        rule = random_rule(rng)
        sp = splitter_mode(rule)
        assert sp.certificate.bound == rule.num_states
        w = random_word(rng, 24)
        assert pair_complexity(sp, w) == len(w)


def test_joint_with_identity_keeps_relation():
    rng = random.Random(57)
    for _ in range(6):
        rule = random_rule(rng, max_states=3)
        sp = splitter_mode(rule)
        j = joint(identity_mode(), sp)
        assert enumerate_relation(j.automaton, 3) == \
            enumerate_relation(sp.automaton, 3)


def test_joint_inequality_with_trained_coder():
    bits = champernowne_bits(20_000)
    coder = build_block_coder(block_histogram(bits, 10_000, 2, "aligned"))
    rng = random.Random(58)
    for _ in range(25):
        rule = random_rule(rng, max_states=4)
        j = joint(coder, splitter_mode(rule))
        w = random_word(rng, 24)
        u, v = apply_selection(rule, w)
        assert pair_complexity(j, w) <= complexity(coder, u) + len(v)


def test_joint_equals_join_on_generated_modes():
    rng = random.Random(59)
    accepted = 0
    for _ in range(200):
        q = random_finite_mode(rng, max_states=4, max_edges=8)
        r = random_finite_mode(rng, max_states=4, max_edges=8, arity=3)
        try:
            expected = compose_join_oracle(q.automaton, r.automaton, 3, budget=400_000)
        except BudgetExceeded:
            continue
        assert enumerate_relation(joint(q, r).automaton, 3) == expected
        accepted += 1
        if accepted == 40:
            break
    assert accepted == 40


def test_joint_with_none_accepting_splitter():
    sp = splitter_mode(none_accepting_rule())
    j = joint(identity_mode(), sp)
    for w in ("", "0", "0110", "111000"):
        assert pair_complexity(j, w) <= len(w)


def test_joint_alphabet_check():
    sp = splitter_mode(all_accepting_rule())
    with pytest.raises(ContractError):
        joint(identity_mode(("a", "b")), sp)


# --- classification -----------------------------------------------------------

def test_classify_examples():
    assert classify_selection(all_accepting_rule()) == POSITIVE_DENSITY
    assert classify_selection(prefix_shorter_than_rule(5)) == FINITE_ON_NORMAL
    assert classify_selection(branch_rule(True, False)) == MIXED
    assert classify_selection(branch_rule(True, True)) == POSITIVE_DENSITY
    assert classify_selection(branch_rule(False, False)) == FINITE_ON_NORMAL
    assert classify_selection(parity_rule()) == POSITIVE_DENSITY
    assert classify_selection(suffix_rule("11")) == POSITIVE_DENSITY


def test_classify_ignores_unreachable_states():
    # State 2 is an accepting terminal SCC but unreachable from 0.
    rule = SelectionRule(3, 0, frozenset({2}), ((0, 0), (1, 1), (2, 2)))
    assert classify_selection(rule) == FINITE_ON_NORMAL


def test_selection_trace_counts():
    rule = parity_rule()
    bits = "0101010101"
    trace = selection_trace(rule, bits, [2, 4, 10])
    assert trace == [(2, 1), (4, 2), (10, 5)]


# --- rule file format -----------------------------------------------------------

def test_rule_round_trip():
    rng = random.Random(59)
    for _ in range(20):
        rule = random_rule(rng)
        text = serialize_rule(rule)
        back = parse_rule(text)
        assert back == rule
        assert serialize_rule(back) == text


def test_rule_format_errors():
    with pytest.raises(FormatError):
        parse_rule("states 1\ninitial 0\n")          # missing accepting
    with pytest.raises(FormatError):
        parse_rule("states 1\ninitial 0\naccepting\ntrans 0 0 0\n")
    with pytest.raises(FormatError):
        parse_rule("states 1\ninitial 0\naccepting\n"
                    "trans 0 0 0\ntrans 0 1 0\ntrans 0 1 0\n")
    with pytest.raises(FormatError):
        parse_rule("states 1\ninitial 2\naccepting\ntrans 0 0 0\ntrans 0 1 0\n")
