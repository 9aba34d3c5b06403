import hashlib
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import autokolm.modes as modes_module
from autokolm.automaton import (
    EPSILON,
    LabeledAutomaton,
    chain,
    components,
    enumerate_relation,
    serialize_automaton,
)
from autokolm.complexity import complexity
from autokolm.constructions import (
    joint,
    parse_rule,
    serialize_rule,
    splitter_mode,
    wall_mode,
)
from autokolm.errors import BudgetExceeded, ContractError, FormatError
from autokolm.modes import (
    BINARY,
    DescriptionMode,
    PairDescriptionMode,
    ValuednessCertificate,
    append_symbol,
    compose,
    eps_cycle_check,
    identity_mode,
    inverse_mode,
    layered_concat,
    parse_mode,
    reverse_mode,
    serialize_mode,
    unary_compressor,
    union,
    valuedness_profile,
)
from autokolm.normality import block_histogram, build_block_coder
from autokolm.seqgen import champernowne_bits

from helpers import (
    chain_reference,
    compose_join_oracle,
    eps_cycle_check_reference,
    layered_concat_quadratic,
    layered_concat_reference,
    parity_rule,
    random_finite_mode,
    random_word,
    reach_sets,
    read_relation_contains,
)


def test_identity_mode_complexity_is_length():
    ident = identity_mode()
    assert complexity(ident, "0110") == 4
    assert complexity(ident, "") == 0
    assert complexity(ident, "1" * 7) == 7


def test_identity_mode_empty_alphabet():
    with pytest.raises(ContractError):
        identity_mode(())


def test_union_with_self_and_identity():
    ident = identity_mode()
    both = union(ident, ident)
    for w in ("", "0", "0110", "111"):
        assert complexity(both, w) == len(w)


def test_union_identity_unary3():
    # The cycle automaton relates 1^1 to every 1^l with l <= 6, so the
    # union complexity of 1^6 is min(6, 1) = 1 (checked against the
    # enumeration oracle below).
    m = union(identity_mode(), unary_compressor(3))
    assert complexity(m, "1" * 6) == 1
    table = {}
    for p, x in enumerate_relation(unary_compressor(3).automaton, (6, 6)):
        table[x] = min(table.get(x, math.inf), len(p))
    assert table["1" * 6] == 1


def test_union_is_pointwise_min():
    rng = random.Random(11)
    for _ in range(30):
        m1 = random_finite_mode(rng)
        m2 = random_finite_mode(rng)
        u = union(m1, m2)
        w = random_word(rng, 7)
        assert complexity(u, w) == min(complexity(m1, w), complexity(m2, w))


def test_union_alphabet_mismatch():
    other = identity_mode(("a", "b"))
    with pytest.raises(ContractError):
        union(identity_mode(), other)


def test_compose_with_identity_is_neutral():
    rng = random.Random(12)
    ident = identity_mode()
    for _ in range(10):
        m = random_finite_mode(rng, max_states=4, max_edges=7)
        left = compose(ident, m)
        right = compose(m, ident)
        rel = enumerate_relation(m.automaton, 4)
        assert enumerate_relation(left.automaton, 4) == rel
        assert enumerate_relation(right.automaton, 4) == rel


def test_compose_unary_factors_against_join():
    m = compose(unary_compressor(2), unary_compressor(3))
    got = {t for t in enumerate_relation(m.automaton, 4) if len(t[0]) <= 1}
    join = {t for t in compose_join_oracle(unary_compressor(2).automaton,
                                           unary_compressor(3).automaton, 4)
            if len(t[0]) <= 1}
    assert got == join


def test_compose_certificate_is_product():
    m = compose(unary_compressor(2), unary_compressor(3))
    assert m.certificate.bound == 5 * 7


def test_append_symbol():
    ident = identity_mode()
    app = append_symbol(ident, "0")
    assert complexity(app, "0110" + "0") <= 4
    assert read_relation_contains(app.automaton, ("011", "0110"))
    sink = app.automaton.num_states - 1
    assert all(src != sink for src, _, _ in app.automaton.edges)
    assert app.certificate.bound == 2


def test_append_symbol_bad_letter():
    with pytest.raises(ContractError):
        append_symbol(identity_mode(), "x")


def test_unary_compressor_examples():
    u3 = unary_compressor(3)
    assert complexity(u3, "1" * 9) == 2
    assert complexity(u3, "") == 0
    u1 = unary_compressor(1)
    rel = enumerate_relation(u1.automaton, 5)
    for k in range(6):
        assert ("1" * k, "1" * k) in rel
    with pytest.raises(ContractError):
        unary_compressor(0)


def test_unary_envelope():
    for c in (1, 2, 3, 5):
        m = unary_compressor(c)
        for n in range(41):
            k = complexity(m, "1" * n)
            assert (k - 1) * c <= n <= (k + 1) * c, (c, n, k)


def test_layered_concat_examples():
    lay4 = layered_concat(identity_mode(), 4)
    assert complexity(lay4, "") == 0
    assert complexity(lay4, "111" + "00") <= 3 + 3 // 4 + 1 + 2

    lay1 = layered_concat(identity_mode(), 1)
    rng = random.Random(13)
    for _ in range(30):
        x = random_word(rng, 5)
        y = random_word(rng, 5)
        assert complexity(lay1, x + y) <= 2 * len(x) + 1 + len(y)


def test_layered_concat_bound_exhaustive_small():
    lay2 = layered_concat(identity_mode(), 2)
    words = [""]
    import itertools
    for n in range(1, 4):
        words += ["".join(w) for w in itertools.product("01", repeat=n)]
    for x in words:
        for y in words:
            assert complexity(lay2, x + y) <= len(x) + len(x) // 2 + 1 + len(y)


def _trained_coder(k: int):
    bits = champernowne_bits(20_000)
    return build_block_coder(block_histogram(bits, 20_000, k, "aligned"))


def test_layered_hub_matches_quadratic_jumps():
    rng = random.Random(31)
    bases = [identity_mode(), unary_compressor(2), _trained_coder(2)]
    bases += [random_finite_mode(rng, max_states=4, max_edges=7) for _ in range(20)]
    for base in bases:
        for n_layers in (1, 2, 3):
            got = layered_concat(base, n_layers).automaton
            ref = layered_concat_quadratic(base, n_layers)
            assert enumerate_relation(got, (5, 6)) == enumerate_relation(ref, (5, 6)), \
                (base.name, n_layers)


def test_layered_concat_refuses_more_states_than_a_mode_file_holds(monkeypatch):
    # (N + 2) * n + 1 states: 6 for identity (n = 1) under N = 3.
    monkeypatch.setattr(modes_module, "MAX_FILE_STATES", 5)
    with pytest.raises(BudgetExceeded):
        layered_concat(identity_mode(), 3)
    monkeypatch.setattr(modes_module, "MAX_FILE_STATES", 6)
    assert layered_concat(identity_mode(), 3).automaton.num_states == 6
    monkeypatch.undo()
    # Refused before a single edge is built, not after 10^8 copies.
    with pytest.raises(BudgetExceeded):
        layered_concat(identity_mode(), 100_000_000)


def test_layered_concat_has_linear_size():
    coder = _trained_coder(6)
    n, n_edges = coder.automaton.num_states, len(coder.automaton.edges)
    for n_layers in (1, 2, 3):
        lay = layered_concat(coder, n_layers)
        assert len(lay.automaton.edges) <= (n_layers + 2) * n_edges + 3 * n
        assert eps_cycle_check(lay) is None


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_products_and_layers_match_their_edge_by_edge_references(data):
    # The same edges in the same order, as the compiled digests rely on.
    def automaton(arity):
        n = data.draw(st.integers(0, 4))
        label = st.tuples(*[st.sampled_from([EPSILON, *BINARY])] * arity)
        ends = st.integers(0, max(n - 1, 0))
        return LabeledAutomaton(arity, (BINARY,) * arity, n, tuple(data.draw(
            st.lists(st.tuples(ends, ends, label), max_size=8 if n else 0))))

    a1, a2 = automaton(data.draw(st.integers(1, 3))), automaton(data.draw(st.integers(1, 3)))
    if a1.arity + a2.arity > 2:
        assert chain(a1, a2) == chain_reference(a1, a2)
    mode = DescriptionMode(automaton(2), ValuednessCertificate.unknown())
    for n_layers in (1, 2, 3):
        assert layered_concat(mode, n_layers).automaton == layered_concat_reference(
            mode.automaton, n_layers)


def test_layered_needs_binary_descriptions():
    with pytest.raises(ContractError):
        layered_concat(identity_mode(("a", "b")), 2)


def test_eps_cycle_check_examples():
    assert eps_cycle_check(identity_mode()) is None
    assert eps_cycle_check(unary_compressor(3)) is None
    loop = LabeledAutomaton(2, (BINARY, BINARY), 1, ((0, 0, (EPSILON, "0")),))
    witness = eps_cycle_check(loop)
    assert witness == ((0, 0, (EPSILON, "0")),)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_eps_cycle_check_matches_its_definition(data):
    # A witness exists iff some silent edge that writes an object letter
    # has a target that reaches its source by silent edges; a witness is a
    # closed path of silent edges of the automaton, the writing edge first.
    arity = data.draw(st.sampled_from([2, 3]))
    n = data.draw(st.integers(1, 7))
    state = st.integers(0, n - 1)
    letter = st.one_of(st.just(EPSILON), st.sampled_from(BINARY))
    edges = tuple(data.draw(st.lists(
        st.tuples(state, state, st.tuples(*[letter] * arity)), max_size=12)))
    aut = LabeledAutomaton(arity, (BINARY,) * arity, n, edges)
    silent = [e for e in edges if e[2][:-1] == (EPSILON,) * (arity - 1)]
    reach = reach_sets(n, [(s, d) for s, d, _ in silent])
    pumps = any(label[-1] is not EPSILON and s in reach[d] for s, d, label in silent)
    witness = eps_cycle_check(aut)
    assert (witness is not None) == pumps
    if witness is not None:
        assert witness[0][2][-1] is not EPSILON
        assert all(e in silent for e in witness)
        assert all(e[1] == f[0] for e, f in zip(witness, witness[1:] + witness[:1]))


def test_eps_cycle_check_finds_long_cycles():
    # 0 -(eps,1)-> 1 -(eps,eps)-> 0 pumps output despite no self-loop.
    aut = LabeledAutomaton(
        2, (BINARY, BINARY), 2,
        ((0, 1, (EPSILON, "1")), (1, 0, (EPSILON, EPSILON))))
    witness = eps_cycle_check(aut)
    assert witness is not None
    assert witness[0] == (0, 1, (EPSILON, "1"))
    # The witness closes into a cycle.
    assert witness[-1][1] == witness[0][0]


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(data=st.data())
def test_eps_cycle_check_matches_the_whole_graph_reference(data):
    # Mostly silent edges, so that trimmed chains, cycles, self-loops and
    # the paths between them occur; the verdict and the witness must match.
    arity = data.draw(st.sampled_from([2, 3]))
    n = data.draw(st.integers(1, 12))
    state = st.integers(0, n - 1)
    description = st.one_of(st.just((EPSILON,) * (arity - 1)),
                            st.tuples(*[st.sampled_from([EPSILON, *BINARY])] * (arity - 1)))
    label = st.tuples(description, st.sampled_from([EPSILON, *BINARY])).map(lambda p: (*p[0], p[1]))
    edges = tuple(data.draw(st.lists(st.tuples(state, state, label), max_size=30)))
    aut = LabeledAutomaton(arity, (BINARY,) * arity, n, edges)
    assert eps_cycle_check(aut) == eps_cycle_check_reference(aut)


def test_eps_cycle_check_stops_trimming_a_long_chain_early(monkeypatch):
    # A silent chain loses two edges a trim round, so the trim stops after
    # its first round and `components` takes nearly the whole chain.
    n = 2 ** 16
    chain = LabeledAutomaton(2, (BINARY, BINARY), n,
                             tuple((i, i + 1, (EPSILON, "1")) for i in range(n - 1)))
    sizes = []
    monkeypatch.setattr(modes_module, "components",
                        lambda nodes, *arcs: sizes.append(nodes) or components(nodes, *arcs))
    assert eps_cycle_check(chain) is None
    assert sizes == [n - 2]


def test_a_long_silent_cycle_refutes_a_finite_certificate():
    n = 2 ** 16
    cycle = LabeledAutomaton(2, (BINARY, BINARY), n, tuple(
        (i, (i + 1) % n, (EPSILON, "1" if i == n - 1 else EPSILON)) for i in range(n)))
    text = serialize_automaton(cycle)
    with pytest.raises(FormatError, match="refuted by an output-producing cycle"):
        parse_mode(text + "certificate 1\n")
    witness = parse_mode(text + "certificate unbounded\n").certificate.witness
    assert witness == (cycle.edges[-1], *cycle.edges[:-1])


def test_valuedness_profile_identity():
    prof = valuedness_profile(identity_mode(), 6)
    assert prof.max_fanout == 1
    assert prof.certificate.method == "brute-force-up-to-L"
    assert prof.certificate.length_bound == 6


def test_valuedness_profile_unary2():
    prof = valuedness_profile(unary_compressor(2), 3)
    assert prof.max_fanout == 5  # 2c+1 objects per description


def test_valuedness_profile_unbounded_reports_witness():
    loop = LabeledAutomaton(2, (BINARY, BINARY), 1, ((0, 0, (EPSILON, "0")),))
    mode = DescriptionMode(loop, ValuednessCertificate.unknown())
    prof = valuedness_profile(mode, 4)
    assert prof.max_fanout == "unbounded"
    assert prof.witness is not None


def test_structural_check_agrees_with_profile_on_randoms():
    rng = random.Random(14)
    from helpers import random_automaton
    tested = 0
    while tested < 40:
        aut = random_automaton(rng, max_states=4, max_edges=7)
        mode = DescriptionMode(aut, ValuednessCertificate.unknown())
        prof = valuedness_profile(mode, 4)
        if eps_cycle_check(aut) is None:
            assert prof.is_finite
        else:
            assert prof.max_fanout == "unbounded"
        tested += 1


def test_reverse_mode_keeps_bound():
    rev = reverse_mode(unary_compressor(2))
    assert rev.certificate.bound == 5
    assert complexity(rev, "1" * 4) == complexity(unary_compressor(2), "1" * 4)


def test_inverse_mode_resets_certificate():
    inv = inverse_mode(unary_compressor(2))
    assert inv.certificate.bound == "unknown"
    assert read_relation_contains(inv.automaton, ("11", "1"))


def test_mode_serialization_round_trip():
    for mode in (identity_mode(), unary_compressor(3),
                 layered_concat(identity_mode(), 2)):
        text = serialize_mode(mode)
        back = parse_mode(text)
        assert back.automaton == mode.automaton
        assert back.certificate.bound == mode.certificate.bound
        assert back.certificate.method == mode.certificate.method


def test_chain_file_parse_peak_memory_is_bounded_per_edge_line():
    # 2**16 states on a chain of description-only edges, closed by one
    # object-writing edge.  Measured peak 162 bytes an edge line (222 with
    # edge tuples, the line-by-line parser's 606); bound +25%.
    n = 2 ** 16
    text = (f"arity 2\nalphabet 0 0 1\nalphabet 1 0 1\nstates {n}\n"
            + "".join(f"edge {i} {i + 1} 0 -\n" for i in range(n - 1)) + f"edge {n - 1} 0 - 1\n")
    tracemalloc.start()
    try:
        mode = parse_mode(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(mode.automaton.edges) == n
    assert peak <= 203 * n


def test_mode_parse_without_certificate_is_unknown():
    from autokolm.automaton import serialize_automaton
    text = serialize_automaton(identity_mode().automaton)
    mode = parse_mode(text)
    assert mode.certificate.bound == "unknown"


def test_mode_parse_rejects_refuted_certificate():
    loop = ("arity 2\nalphabet 0 0 1\nalphabet 1 0 1\nstates 1\n"
            "edge 0 0 - 1\n")
    with pytest.raises(FormatError, match="refuted"):
        parse_mode(loop + "certificate 1\n")
    assert parse_mode(loop + "certificate unbounded\n").certificate.witness
    assert not parse_mode(loop).certificate.is_finite


@pytest.mark.parametrize("line, message", [
    ("certificate 1 asserted-by-construction a b c", "line 7: unexpected certificate tokens 'b c'"),
    ("certificate 3 brute-force-up-to-L 4 5", "line 7: unexpected certificate tokens '5'"),
    ("certificate unknown x", "line 7: unexpected certificate tokens 'x'"),
    ("certificate 1\ncertificate 1", r"line 8: second certificate line \(first on line 7\)"),
])
def test_mode_parse_rejects_extra_certificate_tokens_and_lines(line, message):
    from autokolm.automaton import serialize_automaton
    text = serialize_automaton(identity_mode().automaton)
    assert parse_mode(text + "certificate 3 brute-force-up-to-L 4\n").certificate.length_bound == 4
    with pytest.raises(FormatError, match=message):
        parse_mode(text + line + "\n")


def test_union_rejects_unbounded_mode():
    loop = LabeledAutomaton(2, (BINARY, BINARY), 1, ((0, 0, (EPSILON, "0")),))
    bad = DescriptionMode(
        loop, ValuednessCertificate.unbounded(((0, 0, (EPSILON, "0")),)))
    with pytest.raises(ContractError):
        union(identity_mode(), bad)


@pytest.mark.parametrize("build", [
    lambda bad: compose(identity_mode(), bad),
    lambda bad: append_symbol(bad, "1"),
    lambda bad: layered_concat(bad, 2),
    lambda bad: joint(bad, splitter_mode(parity_rule())),
], ids=["compose", "append", "layered", "joint"])
def test_derived_constructions_reject_unbounded_mode(build):
    loop = LabeledAutomaton(2, (BINARY, BINARY), 1, ((0, 0, (EPSILON, "0")),))
    bad = DescriptionMode(
        loop, ValuednessCertificate.unbounded(((0, 0, (EPSILON, "0")),)), name="loop")
    with pytest.raises(ContractError, match="'loop' has an unbounded certificate"):
        build(bad)


def test_reverse_mode_flips_the_unbounded_witness():
    # A 2-cycle that emits 0 then 1 and consumes nothing.
    aut = LabeledAutomaton(2, (BINARY, BINARY), 2, (
        (0, 1, (EPSILON, "0")), (1, 0, (EPSILON, "1")), (0, 0, ("1", "1"))))
    witness = eps_cycle_check(aut)
    rev = reverse_mode(DescriptionMode(aut, ValuednessCertificate.unbounded(witness)))
    flipped = rev.certificate.witness
    assert len(flipped) == len(witness) == 2
    edges = set(rev.automaton.edges)
    for (s, d, label), (after, _, _) in zip(flipped, flipped[1:] + flipped[:1]):
        assert (s, d, label) in edges and d == after
        assert label[0] is EPSILON
    assert any(label[1] is not EPSILON for _, _, label in flipped)


# Valid mode and rule files with a few lines dropped, repeated or given a
# different field, so that draws reach every check; plus plain text.
FORMAT_FIELD = st.one_of(st.integers(-1, 4).map(str), st.sampled_from(
    ["-", "a", "1.5", "unknown", "unbounded", "brute-force-up-to-L", "9" * 30]))


@st.composite
def format_texts(draw):
    lines = draw(st.sampled_from([
        serialize_mode(unary_compressor(2)), serialize_mode(identity_mode()),
        serialize_rule(parity_rule())])).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split()
        edit = draw(st.sampled_from(["drop", "repeat", "field", "extra"]))
        if edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "field":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(FORMAT_FIELD)
            lines[i] = " ".join(fields)
        else:
            lines[i] = " ".join(fields + [draw(FORMAT_FIELD)])
        if not lines:
            break
    return "\n".join(lines)


@st.composite
def random_modes(draw):
    """Random binary or pair modes with a certificate that fits them."""
    arity = draw(st.sampled_from([2, 3]))
    states = draw(st.integers(1, 5))
    label = st.tuples(*[st.sampled_from([EPSILON, "0", "1"])] * arity)
    edges = draw(st.lists(st.tuples(st.integers(0, states - 1),
                                    st.integers(0, states - 1), label), max_size=12))
    aut = LabeledAutomaton(arity, (BINARY,) * arity, states, tuple(edges))
    witness = eps_cycle_check(aut)
    if witness is not None:
        cert = ValuednessCertificate.unbounded(witness)
    else:
        bound = st.integers(1, 10 ** 6)
        cert = draw(st.one_of(
            st.just(ValuednessCertificate.unknown()),
            bound.map(lambda b: ValuednessCertificate.asserted(b, "random")),
            st.builds(ValuednessCertificate.brute_force, bound, st.integers(0, 9))))
    kind = DescriptionMode if arity == 2 else PairDescriptionMode
    return kind(aut, cert)


BUILT_MODES = {
    "coder2": lambda: _trained_coder(2),
    "coder3": lambda: _trained_coder(3),
    "coder4": lambda: _trained_coder(4),
    "union": lambda: union(_trained_coder(3), unary_compressor(2)),
    "compose": lambda: compose(_trained_coder(2), _trained_coder(3)),
    "layered": lambda: layered_concat(_trained_coder(2), 2),
    "reverse": lambda: reverse_mode(_trained_coder(3)),
    "wall": lambda: wall_mode(3),
    "splitter": lambda: splitter_mode(parity_rule()),
    "joint": lambda: joint(identity_mode(), splitter_mode(parity_rule())),
}


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(mode=st.one_of(random_modes(),
                      st.sampled_from(sorted(BUILT_MODES)).map(lambda n: BUILT_MODES[n]())))
def test_mode_files_round_trip(mode):
    back = parse_mode(serialize_mode(mode))
    assert type(back) is type(mode)
    assert back.automaton == mode.automaton
    assert back.certificate == mode.certificate


# SHA-256 of serialize_mode output for built modes: how labels are held in
# memory must not move a byte of the text format.
MODE_TEXT_SHA256 = {
    "coder2": "7a0f8072a06fffa3fae3a0862c4170818cecebdad5f301d92404dedd523550ec",
    "coder3": "5b76362aec61e72574d6c433a89d451fd2e312097e9d56cbfde47f4e55775af3",
    "coder4": "c3cb3e85f44919556a6bc33961864a62356fb9ee74c34be1ed34224a45b594cd",
    "coder5": "2f94c6769f68c788ead73ea7c537bf6688e4e9ea3a639a09a836bcdda12c148a",
    "coder6": "580e2414a3a94df8e7232f294dd15e5f08436154978a5e223abbaf4720ff7d37",
    "coder7": "4a3dab05e726d87733e4e2191b31e38d68952694aaf3e52c73d0f7c1818cc8f6",
    "coder8": "b272e5ffe054cefd1f8f6e91bc30a5af8db220a69e3db58edfb771ac5c8601ff",
    "layered": "7311a66866420771ac7090d4a77a4e5089b7cd8ec1916802443238c9894ae45b",
    "compose": "06ebd60052b239ae22c01afd529a4e610037b646df6d65723c5e96131a6fea42",
    "reverse": "d1a8b35dab79c2c33d4097f3d951d82e78f2fcf491da010ff946bd0aec80f1c9",
    "wall3": "ec8a2c0cd74fc0c7371192848c1415ccb648ce32c0bdefa7e4c0f9bff05d65a5",
    "splitter": "22b86fd4512dea08ea7261c1c8d4e9da4979c2fe56164be3d2784d4a7a05253d",
    "joint": "f438d86b7b30e93d6d4023d737325c510b8d0f986eea67d331a40cc14e253276",
}


def test_mode_texts_are_unchanged():
    coder4 = _trained_coder(4)
    built = {f"coder{k}": _trained_coder(k) for k in range(2, 9)}
    built.update(layered=layered_concat(coder4, 2), compose=compose(coder4, coder4),
                 reverse=reverse_mode(coder4), wall3=wall_mode(3),
                 splitter=splitter_mode(parity_rule()),
                 joint=joint(identity_mode(), splitter_mode(parity_rule())))
    assert serialize_mode(built["splitter"]) == (
        "arity 3\nalphabet 0 0 1\nalphabet 1 0 1\nalphabet 2 0 1\nstates 2\n"
        "edge 0 1 0 - 0\nedge 0 1 1 - 1\nedge 1 0 - 0 0\nedge 1 0 - 1 1\n"
        "certificate 2 asserted-by-construction splitter\n")
    for name, mode in built.items():
        digest = hashlib.sha256(serialize_mode(mode).encode()).hexdigest()
        assert digest == MODE_TEXT_SHA256[name], name


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(text=st.one_of(st.text(max_size=200), format_texts()))
def test_mode_and_rule_parsers_raise_only_format_error(text):
    for parse in (parse_mode, parse_rule):
        try:
            parse(text)
        except FormatError:
            pass
