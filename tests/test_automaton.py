import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import autokolm.automaton as automaton
from autokolm.automaton import (
    EPSILON,
    LabeledAutomaton,
    components,
    enumerate_relation,
    parse_automaton,
    parse_automaton_lines,
    reverse,
    serialize_automaton,
    strip_format_lines,
    swap_tapes,
)
from autokolm.errors import BudgetExceeded, ContractError, FormatError, InputRejected
from autokolm.modes import identity_mode, parse_mode, unary_compressor

from helpers import (
    automaton_error_reference,
    components_reference,
    edited_format_texts,
    outcome,
    parse_automaton_reference,
    random_automaton,
    read_relation_contains,
    serialize_automaton_reference,
)

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
        ((0, 1, ("0", "0")), (1, 2, ("1", EPSILON))))
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
                    "".join(lab[t] for lab in seg if lab[t] is not EPSILON)
                    for t in range(aut.arity))
                assert read_relation_contains(aut, words)


def test_automaton_validation():
    with pytest.raises(ContractError):
        LabeledAutomaton(2, (("0", "1"),) * 2, 1, ((0, 1, ("0", "0")),))
    with pytest.raises(ContractError):
        LabeledAutomaton(2, (("0", "1"),) * 2, 1, ((0, 0, ("0", "0", "0")),))
    with pytest.raises(ContractError):
        LabeledAutomaton(2, (("0", "1"),) * 2, 1, ((0, 0, ("2", "0")),))
    with pytest.raises(ContractError):
        LabeledAutomaton(1, (("0", "1"), ("0", "1")), 1, ())
    # Symbols that the text format reads as epsilon, comment or separator.
    for alpha in (("-", "x"), ("#", "1"), (" ", "1"), ("0", "\t"), ("\x85",)):
        with pytest.raises(ContractError):
            LabeledAutomaton(2, (alpha, ("0", "1")), 1, ())


def test_labels_are_alphabet_symbols():
    binary = (("0", "1"),) * 2
    aut = LabeledAutomaton(2, binary, 1, ((0, 0, ("1", EPSILON)),))
    assert serialize_automaton(aut).endswith("edge 0 0 1 -\n")
    # A letter index is not a symbol of the tape.
    with pytest.raises(ContractError, match="outside alphabet of tape 0"):
        LabeledAutomaton(2, binary, 1, ((0, 0, (1, 1)),))


def test_empty_alphabet_is_refused():
    # The text format cannot write a tape without symbols.
    with pytest.raises(ContractError, match="nonempty alphabet"):
        LabeledAutomaton(2, (("0", "1"), ()), 1, ((0, 0, ("1", EPSILON)),))
    with pytest.raises(FormatError):
        parse_automaton("arity 2\nalphabet 0 0 1\nalphabet 1\nstates 1\n")


def test_format_round_trip_structural():
    rng = random.Random(7)
    for _ in range(20):
        aut = random_automaton(rng, arity=rng.choice((2, 3)))
        text = serialize_automaton(aut)
        assert text == serialize_automaton_reference(aut)
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


@pytest.mark.parametrize("line, message", [
    ("arity 2", r"line 7: second arity line \(first on line 1\)"),
    ("states 5", r"line 7: second states line \(first on line 4\)"),
    ("alphabet 1 0 1 2", r"line 7: second alphabet line for tape 1 \(first on line 3\)"),
])
def test_a_repeated_header_line_is_refused(line, message):
    # The last line used to win: `states 5` parsed as five states.
    text = serialize_automaton(identity_mode().automaton) + line + "\n"
    assert text.splitlines()[:4] == ["arity 2", "alphabet 0 0 1", "alphabet 1 0 1", "states 1"]
    for parse in (parse_automaton, parse_mode):
        with pytest.raises(FormatError, match=message):
            parse(text)
    with pytest.raises(FormatError, match=message):
        parse_automaton_reference(text, automaton.MAX_FILE_STATES, automaton.MAX_FILE_EDGES)


def test_declared_state_count_is_capped():
    text = serialize_automaton(IDENTITY).replace("states 1", "states 4194305")
    with pytest.raises(FormatError):
        parse_automaton(text)
    with pytest.raises(FormatError):
        parse_mode(text + "certificate 1\n")


@st.composite
def automaton_texts(draw):
    """Automaton texts of arity 1-3, edited line by line, and an edge cap."""
    arity = draw(st.integers(1, 3))
    states = draw(st.integers(1, 6))
    label = st.tuples(*[st.sampled_from([EPSILON, "0", "1"])] * arity)
    edges = draw(st.lists(st.tuples(st.integers(0, states - 1), st.integers(0, states - 1),
                                    label), max_size=10))
    aut = LabeledAutomaton(arity, (("0", "1"),) * arity, states, tuple(edges))
    lines = (serialize_automaton_reference(aut) + "extra 1 2").splitlines()
    turn = draw(st.integers(0, len(lines) - 1))      # some directives after the edges
    text = draw(edited_format_texts("\n".join(lines[turn:] + lines[:turn])))
    return text, draw(st.sampled_from([4] + [automaton.MAX_FILE_EDGES] * 4))


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(case=automaton_texts())
@example(case=("arity 1\nalphabet 0 0\nedge 0 0 0\nedge 0 0 -\nstates x\nstates 1\n", 1))
def test_automaton_parser_matches_the_line_by_line_reference(case):
    text, cap = case
    with mock.patch.object(automaton, "MAX_FILE_EDGES", cap):
        got = outcome(parse_automaton_lines, strip_format_lines(text))
    assert got == outcome(parse_automaton_reference, text, automaton.MAX_FILE_STATES, cap)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=automaton_texts(), chunk=st.integers(1, 3))
def test_edge_lines_read_in_chunks_match_the_line_by_line_reference(case, chunk):
    # A malformed or unusual line in a later chunk sends the whole file
    # to the line-by-line read, as one in the first chunk does.
    text, cap = case
    with mock.patch.object(automaton, "MAX_FILE_EDGES", cap), \
            mock.patch.object(automaton, "_EDGE_CHUNK", chunk):
        got = outcome(parse_automaton_lines, strip_format_lines(text))
    assert got == outcome(parse_automaton_reference, text, automaton.MAX_FILE_STATES, cap)


SYMBOLS = ["0", "1", "a", "Z", "~", "\xe9", "\u4e2d", "\U0001d11e"]


@st.composite
def automata(draw):
    """Automata of arity 1-3 over small alphabets, ASCII or not, with
    epsilon labels, no edges or no states at all, and endpoints of up to
    seven digits; with their edge tuples."""
    arity = draw(st.integers(1, 3))
    alphabets = tuple(tuple(draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=3,
                                          unique=True))) for _ in range(arity))
    states = draw(st.integers(0, 5) | st.integers(1, automaton.MAX_FILE_STATES))
    state = st.sampled_from([v for v in (0, 1, 2, 9, 10, 99, 100, states // 7, states - 1)
                             if v < states])
    label = st.tuples(*(st.sampled_from([EPSILON, *alpha]) for alpha in alphabets))
    edges = draw(st.lists(st.tuples(state, state, label), max_size=12)) if states else []
    return LabeledAutomaton(arity, alphabets, states, tuple(edges)), tuple(edges)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(case=automata())
def test_edge_columns_round_trip_through_tuples_and_text(case):
    aut, edges = case
    assert aut.edges == edges
    again = LabeledAutomaton.from_columns(aut.arity, aut.alphabets, aut.num_states,
                                          aut.src, aut.dst, aut.letters)
    assert again == aut and hash(again) == hash(aut) and again.edges == edges
    text = serialize_automaton(aut)
    assert text == serialize_automaton_reference(aut)
    back = parse_automaton(text)
    assert back == aut and back.edges == edges
    assert serialize_automaton(back) == text
    if edges:       # an endpoint out of range, in the columns and in the text
        bad = (*edges[:-1], (edges[-1][0], aut.num_states, edges[-1][2]))
        message = automaton_error_reference(aut.arity, aut.alphabets, aut.num_states, bad)
        with pytest.raises(ContractError, match=re.escape(message)):
            LabeledAutomaton.from_columns(aut.arity, aut.alphabets, aut.num_states, aut.src,
                                          np.r_[aut.dst[:-1], aut.num_states], aut.letters)
        bad_text = text[:text.rindex("edge ")] + serialize_automaton_reference(
            LabeledAutomaton(aut.arity, aut.alphabets, aut.num_states + 1, bad)).splitlines()[-1]
        assert outcome(parse_automaton, bad_text) == f"FormatError: {message}"


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(data=st.data())
def test_automaton_checks_match_the_edge_by_edge_reference(data):
    arity = data.draw(st.integers(1, 3))
    states = data.draw(st.integers(0, 4))
    alphabets = (("0", "1"),) * arity
    comp = st.sampled_from([EPSILON, "0", "1", "2", 1])
    label = st.lists(comp, min_size=arity - 1, max_size=arity + 1).map(tuple)
    end = st.integers(-1, states) | st.sampled_from([2 ** 70, -2 ** 70])
    edges = tuple(data.draw(st.lists(st.tuples(end, end, label), max_size=6)))
    expected = automaton_error_reference(arity, alphabets, states, edges)
    try:
        LabeledAutomaton(arity, alphabets, states, edges)
    except ContractError as exc:
        assert str(exc) == expected
    else:
        assert expected is None


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_components_match_reachability_and_come_in_topological_order(data):
    # Up to 30 nodes: self-loops, parallel arcs and isolated nodes all occur.
    n = data.draw(st.integers(0, 30))
    node = st.integers(0, max(n - 1, 0))
    arcs = data.draw(st.lists(st.tuples(node, node), max_size=60)) if n else []
    comp = components(n, [s for s, _ in arcs], [d for _, d in arcs]).tolist()
    reference = components_reference(n, arcs)
    assert len(comp) == n
    # The same partition: each component number pairs with one reference set.
    assert len(set(zip(comp, reference))) == len(set(comp)) == len(set(reference))
    assert sorted(set(comp)) == list(range(len(set(comp))))
    assert all(comp[s] <= comp[d] for s, d in arcs)
