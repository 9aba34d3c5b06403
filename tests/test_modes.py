import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autokolm.automaton import (
    EPSILON,
    LabeledAutomaton,
    enumerate_relation,
    read_relation_contains,
)
from autokolm.complexity import complexity
from autokolm.constructions import (
    joint,
    parse_rule,
    serialize_rule,
    splitter_mode,
    wall_mode,
)
from autokolm.errors import ContractError, FormatError
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
    compose_join_oracle,
    layered_concat_quadratic,
    parity_rule,
    random_finite_mode,
    random_word,
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


def test_layered_concat_has_linear_size():
    coder = _trained_coder(6)
    n, n_edges = coder.automaton.num_states, len(coder.automaton.edges)
    for n_layers in (1, 2, 3):
        lay = layered_concat(coder, n_layers)
        assert len(lay.automaton.edges) <= (n_layers + 2) * n_edges + 3 * n
        assert eps_cycle_check(lay) is None


def test_layered_needs_binary_descriptions():
    with pytest.raises(ContractError):
        layered_concat(identity_mode(("a", "b")), 2)


def test_eps_cycle_check_examples():
    assert eps_cycle_check(identity_mode()) is None
    assert eps_cycle_check(unary_compressor(3)) is None
    loop = LabeledAutomaton(2, (BINARY, BINARY), 1, ((0, 0, (EPSILON, 0)),))
    witness = eps_cycle_check(loop)
    assert witness == ((0, 0, (EPSILON, 0)),)


def test_eps_cycle_check_finds_long_cycles():
    # 0 -(eps,1)-> 1 -(eps,eps)-> 0 pumps output despite no self-loop.
    aut = LabeledAutomaton(
        2, (BINARY, BINARY), 2,
        ((0, 1, (EPSILON, 1)), (1, 0, (EPSILON, EPSILON))))
    witness = eps_cycle_check(aut)
    assert witness is not None
    assert witness[0] == (0, 1, (EPSILON, 1))
    # The witness closes into a cycle.
    assert witness[-1][1] == witness[0][0]


def test_valuedness_profile_identity():
    prof = valuedness_profile(identity_mode(), 6)
    assert prof.max_fanout == 1
    assert prof.certificate.method == "brute-force-up-to-L"
    assert prof.certificate.length_bound == 6


def test_valuedness_profile_unary2():
    prof = valuedness_profile(unary_compressor(2), 3)
    assert prof.max_fanout == 5  # 2c+1 objects per description


def test_valuedness_profile_unbounded_reports_witness():
    loop = LabeledAutomaton(2, (BINARY, BINARY), 1, ((0, 0, (EPSILON, 0)),))
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


def test_union_rejects_unbounded_mode():
    loop = LabeledAutomaton(2, (BINARY, BINARY), 1, ((0, 0, (EPSILON, 0)),))
    bad = DescriptionMode(
        loop, ValuednessCertificate.unbounded(((0, 0, (EPSILON, 0)),)))
    with pytest.raises(ContractError):
        union(identity_mode(), bad)


@pytest.mark.parametrize("build", [
    lambda bad: compose(identity_mode(), bad),
    lambda bad: append_symbol(bad, "1"),
    lambda bad: layered_concat(bad, 2),
    lambda bad: joint(bad, splitter_mode(parity_rule())),
], ids=["compose", "append", "layered", "joint"])
def test_derived_constructions_reject_unbounded_mode(build):
    loop = LabeledAutomaton(2, (BINARY, BINARY), 1, ((0, 0, (EPSILON, 0)),))
    bad = DescriptionMode(
        loop, ValuednessCertificate.unbounded(((0, 0, (EPSILON, 0)),)), name="loop")
    with pytest.raises(ContractError, match="'loop' has an unbounded certificate"):
        build(bad)


def test_reverse_mode_flips_the_unbounded_witness():
    # A 2-cycle that emits 0 then 1 and consumes nothing.
    aut = LabeledAutomaton(2, (BINARY, BINARY), 2, (
        (0, 1, (EPSILON, 0)), (1, 0, (EPSILON, 1)), (0, 0, (1, 1))))
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
    label = st.tuples(*[st.sampled_from([EPSILON, 0, 1])] * arity)
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


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(text=st.one_of(st.text(max_size=200), format_texts()))
def test_mode_and_rule_parsers_raise_only_format_error(text):
    for parse in (parse_mode, parse_rule):
        try:
            parse(text)
        except FormatError:
            pass
