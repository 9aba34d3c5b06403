import random

import pytest

from autokolm.automaton import (
    EPSILON,
    LabeledAutomaton,
    enumerate_relation,
    parse_automaton,
    read_relation_contains,
    reverse,
    serialize_automaton,
    swap_tapes,
)
from autokolm.errors import BudgetExceeded, ContractError, FormatError, InputRejected
from autokolm.modes import identity_mode, parse_mode, unary_compressor

from helpers import random_automaton

IDENTITY = identity_mode().automaton


def test_identity_membership():
    assert read_relation_contains(IDENTITY, ("0110", "0110"))
    assert not read_relation_contains(IDENTITY, ("0110", "0111"))
    assert not read_relation_contains(IDENTITY, ("01", "011"))


def test_empty_tuple_always_readable():
    assert read_relation_contains(IDENTITY, ("", ""))
    aut = LabeledAutomaton(2, (("0", "1"),) * 2, 1, ())
    assert read_relation_contains(aut, ("", ""))


def test_membership_rejects_bad_symbols_and_arity():
    with pytest.raises(InputRejected):
        read_relation_contains(IDENTITY, ("012", "012"))
    with pytest.raises(ContractError):
        read_relation_contains(IDENTITY, ("0",))


def test_enumerate_identity():
    got = enumerate_relation(IDENTITY, 1)
    assert got == {("", ""), ("0", "0"), ("1", "1")}


def test_enumerate_unary_compressor_matches_pair_set():
    # Relation of the c-cycle: (1^k, 1^l) with (k-1)c <= l <= (k+1)c.
    aut = unary_compressor(2).automaton
    got = enumerate_relation(aut, (1, 4))
    expected = {("1" * k, "1" * l)
                for k in range(2) for l in range(5)
                if (k - 1) * 2 <= l <= (k + 1) * 2}
    assert got == expected


def test_enumerate_edgeless():
    aut = LabeledAutomaton(2, (("0", "1"),) * 2, 1, ())
    assert enumerate_relation(aut, 5) == {("", "")}


def test_enumerate_budget_error_names_budget():
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_relation(IDENTITY, 30, budget=10)
    assert "10" in str(exc.value)


def test_reverse_is_involution():
    rng = random.Random(1)
    for _ in range(20):
        aut = random_automaton(rng)
        back = reverse(reverse(aut))
        assert sorted(back.edges, key=repr) == sorted(aut.edges, key=repr)
        assert back.num_states == aut.num_states


def test_reverse_identity_is_identity():
    rev = reverse(IDENTITY)
    assert sorted(rev.edges, key=repr) == sorted(IDENTITY.edges, key=repr)


def test_reverse_reverses_relation():
    # Two-state chain reading ("01", "0").
    aut = LabeledAutomaton(
        2, (("0", "1"),) * 2, 3,
        ((0, 1, (0, 0)), (1, 2, (1, EPSILON))))
    assert read_relation_contains(aut, ("01", "0"))
    rev = reverse(aut)
    assert read_relation_contains(rev, ("10", "0"))
    fwd = enumerate_relation(aut, 2)
    bwd = enumerate_relation(rev, 2)
    assert bwd == {(p[::-1], x[::-1]) for p, x in fwd}


def test_swap_tapes_identity_and_involution():
    assert sorted(swap_tapes(IDENTITY, 0, 1).edges, key=repr) == sorted(IDENTITY.edges, key=repr)
    rng = random.Random(2)
    for _ in range(20):
        aut = random_automaton(rng)
        twice = swap_tapes(swap_tapes(aut, 0, 1), 0, 1)
        assert twice.edges == aut.edges


def test_swap_tapes_permutes_relation():
    rng = random.Random(3)
    aut = random_automaton(rng)
    swapped = swap_tapes(aut, 0, 1)
    fwd = enumerate_relation(aut, 3)
    bwd = enumerate_relation(swapped, 3)
    assert bwd == {(x, p) for p, x in fwd}


def test_swap_tapes_bad_index():
    with pytest.raises(ContractError):
        swap_tapes(IDENTITY, 0, 2)


def test_structural_ops_preserve_counts():
    rng = random.Random(4)
    for _ in range(20):
        aut = random_automaton(rng)
        for out in (reverse(aut), swap_tapes(aut, 0, 1)):
            assert out.num_states == aut.num_states
            assert len(out.edges) == len(aut.edges)


def test_membership_agrees_with_enumeration():
    rng = random.Random(5)
    words = [""]
    for n in range(1, 4):
        words.extend("".join(w) for w in
                     __import__("itertools").product("01", repeat=n))
    for _ in range(12):
        aut = random_automaton(rng, max_states=5)
        rel = enumerate_relation(aut, 3)
        for p in words:
            for x in words:
                assert read_relation_contains(aut, (p, x)) == ((p, x) in rel)


def test_path_semantics_subpath_closed():
    # Any contiguous segment of a random walk spells a readable pair.
    rng = random.Random(6)
    for _ in range(15):
        aut = random_automaton(rng, max_edges=8)
        adj = aut.out_edges()
        state = rng.randrange(aut.num_states)
        path = []
        for _ in range(8):
            if not adj[state]:
                break
            dst, label = rng.choice(adj[state])
            path.append(label)
            state = dst
        for i in range(len(path) + 1):
            for j in range(i, len(path) + 1):
                seg = path[i:j]
                words = tuple(
                    "".join(aut.alphabets[t][lab[t]]
                            for lab in seg if lab[t] is not EPSILON)
                    for t in range(aut.arity))
                assert read_relation_contains(aut, words)


def test_automaton_validation():
    with pytest.raises(ContractError):
        LabeledAutomaton(2, (("0", "1"),) * 2, 1, ((0, 1, (0, 0)),))
    with pytest.raises(ContractError):
        LabeledAutomaton(2, (("0", "1"),) * 2, 1, ((0, 0, (0, 0, 0)),))
    with pytest.raises(ContractError):
        LabeledAutomaton(2, (("0", "1"),) * 2, 1, ((0, 0, (2, 0)),))
    with pytest.raises(ContractError):
        LabeledAutomaton(1, (("0", "1"), ("0", "1")), 1, ())
    # Symbols that the text format reads as epsilon, comment or separator.
    for alpha in (("-", "x"), ("#", "1"), (" ", "1"), ("0", "\t"), ("\x85",)):
        with pytest.raises(ContractError):
            LabeledAutomaton(2, (alpha, ("0", "1")), 1, ())


def test_format_round_trip_structural():
    rng = random.Random(7)
    for _ in range(20):
        aut = random_automaton(rng, arity=rng.choice((2, 3)))
        text = serialize_automaton(aut)
        back = parse_automaton(text)
        assert back == aut
        assert serialize_automaton(back) == text


def test_format_comments_and_blanks_ignored():
    text = serialize_automaton(IDENTITY)
    noisy = "# header comment\n" + text.replace(
        "states 1", "states 1  # one state\n")
    assert parse_automaton(noisy) == IDENTITY


def test_format_errors():
    with pytest.raises(FormatError):
        parse_automaton("arity 2\nstates 1\n")  # missing alphabets
    with pytest.raises(FormatError):
        parse_automaton("arity 1\nalphabet 0 0 1\nstates 1\nedge 0 0 2\n")
    with pytest.raises(FormatError):
        parse_automaton("arity 1\nalphabet 0 0 1\nstates 1\nfrobnicate\n")


def test_declared_state_count_is_capped():
    text = serialize_automaton(IDENTITY).replace("states 1", "states 4194305")
    with pytest.raises(FormatError):
        parse_automaton(text)
    with pytest.raises(FormatError):
        parse_mode(text + "certificate 1\n")
