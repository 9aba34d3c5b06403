import gc
import importlib
import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from autokolm.automaton import EPSILON, LabeledAutomaton, word_to_indices
from autokolm.complexity import (
    UNREACHABLE,
    ComplexityCurve,
    complexity,
    complexity_curve,
    pair_complexity,
    superadditivity_check,
)
from autokolm.constructions import joint, splitter_mode, wall_mode
from autokolm.errors import BudgetExceeded, ContractError
from autokolm.modes import (
    BINARY,
    DescriptionMode,
    PairDescriptionMode,
    ValuednessCertificate,
    eps_cycle_check,
    identity_mode,
    reverse_mode,
    unary_compressor,
)
from autokolm.normality import block_histogram, build_block_coder
from autokolm.seqgen import champernowne_bits

from helpers import (
    all_accepting_rule,
    brute_force_k_table,
    none_accepting_rule,
    random_finite_mode,
    random_word,
    sweep_pure,
    sweep_pure_curve,
)

# The package re-exports the `complexity` function under the module's name.
engine = importlib.import_module("autokolm.complexity")
STEPS = {"python": engine._step_python, "hub": engine._sweep_hubs,
         "numpy": engine._step_numpy}


def force_step(monkeypatch, name):
    """Compile every automaton with the named per-letter step, on a fresh cache."""
    step = STEPS[name]

    def pick(num_states, by_letter):
        if step is engine._sweep_hubs:
            return step, engine._Hubs.compile(num_states, by_letter, math.inf)
        return step, None
    monkeypatch.setattr(engine, "_pick_step", pick)
    monkeypatch.setattr(engine, "_sweep_cache", {})
    return step


@pytest.fixture(params=sorted(STEPS))
def forced_step(request, monkeypatch):
    return force_step(monkeypatch, request.param)


def all_words(max_len):
    out = [""]
    for n in range(1, max_len + 1):
        out.extend("".join(w) for w in itertools.product("01", repeat=n))
    return out


def test_complexity_examples():
    assert complexity(identity_mode(), "0110") == 4
    assert complexity(unary_compressor(3), "1" * 9) == 2
    for mode in (identity_mode(), unary_compressor(2), wall_mode(3)):
        assert complexity(mode, "") == 0


def test_complexity_unreachable_is_first_class():
    ones_only = LabeledAutomaton(2, (BINARY, BINARY), 1, ((0, 0, (1, 1)),))
    mode = DescriptionMode(ones_only, ValuednessCertificate.asserted(1, "test"))
    assert complexity(mode, "0") == UNREACHABLE
    assert complexity(mode, "11") == 2


def test_complexity_rejects_unbounded_certificate():
    loop = LabeledAutomaton(2, (BINARY, BINARY), 1, ((0, 0, (EPSILON, 0)),))
    bad = DescriptionMode(
        loop, ValuednessCertificate.unbounded(((0, 0, (EPSILON, 0)),)))
    with pytest.raises(ContractError):
        complexity(bad, "0")


def test_oracle_equivalence_small():
    rng = random.Random(21)
    words = all_words(6)
    checked = 0
    while checked < 10:
        mode = random_finite_mode(rng, max_states=4, max_edges=7)
        try:
            table = brute_force_k_table(mode.automaton, 6)
        except Exception:
            continue
        for x in words:
            assert complexity(mode, x) == table.get(x, UNREACHABLE)
        checked += 1


def test_substring_monotonicity():
    rng = random.Random(22)
    modes = [identity_mode(), unary_compressor(2), unary_compressor(3),
             wall_mode(3)]
    for mode in modes:
        for _ in range(25):
            x = random_word(rng, 12)
            kx = complexity(mode, x)
            for _ in range(6):
                i = rng.randint(0, len(x))
                j = rng.randint(i, len(x))
                assert complexity(mode, x[i:j]) <= kx


def test_superadditivity_examples():
    assert superadditivity_check(identity_mode(), "010", "11")
    u3 = unary_compressor(3)
    assert superadditivity_check(u3, "111", "111")
    rng = random.Random(23)
    for mode in (identity_mode(), u3, wall_mode(3)):
        for _ in range(100):
            assert superadditivity_check(mode, random_word(rng, 10),
                                         random_word(rng, 10))


def test_reversal_duality():
    rng = random.Random(24)
    for mode in (identity_mode(), unary_compressor(2), wall_mode(3)):
        rev = reverse_mode(mode)
        for _ in range(40):
            x = random_word(rng, 10)
            assert complexity(rev, x[::-1]) == complexity(mode, x)
    # Trained coders: the reversed k=4 coder runs the hub DP, the reversed
    # k=8 coder the numpy step.
    bits = champernowne_bits(4_000)
    for k, x, step in ((4, bits[1_000:3_000], engine._sweep_hubs),
                       (8, bits[2_000:2_500], engine._step_numpy)):
        mode = champ_coder(k)
        rev = reverse_mode(mode)
        assert complexity(rev, x[::-1]) == complexity(mode, x)
        assert engine._compiled(rev.automaton).step is step


def test_pure_and_numpy_backends_agree(monkeypatch):
    for name in STEPS:
        step = force_step(monkeypatch, name)
        rng = random.Random(25)
        for _ in range(25):
            mode = random_finite_mode(rng, max_states=5, max_edges=9)
            x = random_word(rng, 30)
            assert complexity(mode, x) == sweep_pure(mode.automaton, x)
            assert engine._compiled(mode.automaton).step is step


def test_each_step_matches_oracle_on_generated_modes(forced_step):
    rng = random.Random(28)
    for _ in range(30):
        mode = random_finite_mode(rng, max_states=10, max_edges=40)
        for _ in range(4):
            x = random_word(rng, 40)
            assert complexity(mode, x) == sweep_pure(mode.automaton, x)
        pair = random_finite_mode(rng, max_states=8, max_edges=30, arity=3)
        for _ in range(4):
            x = random_word(rng, 30)
            assert pair_complexity(pair, x) == sweep_pure(pair.automaton, x)
        assert engine._compiled(pair.automaton).step is forced_step


def test_each_step_matches_oracle_on_curves(forced_step):
    rng = random.Random(29)
    unreachable = 0
    for _ in range(30):
        mode = random_finite_mode(rng, max_states=8, max_edges=24)
        source = random_word(rng, 60, min_len=60)
        step = rng.randint(1, 9)
        curve = complexity_curve(mode, source, 60, step, verify=False)
        assert [n for n, _ in curve.samples] == list(range(step, 61, step))
        for n, k in curve.samples:
            assert k == sweep_pure(mode.automaton, source[:n])
            unreachable += k == UNREACHABLE
        assert engine._compiled(mode.automaton).step is forced_step
    assert unreachable > 0


def test_dense_closure_raises_budget_exceeded(monkeypatch):
    monkeypatch.setattr(engine, "_NORMALIZE_BUDGET", 1)
    monkeypatch.setattr(engine, "_sweep_cache", {})
    mode = identity_mode()          # two closure edges, one per letter
    with pytest.raises(BudgetExceeded):
        complexity(mode, "01")
    with pytest.raises(BudgetExceeded):
        complexity_curve(mode, "0101", 4, 2)
    assert engine._sweep_cache == {}


def test_closure_is_charged_as_its_entries_are_made(monkeypatch):
    # 0 -> 1 -> 2 over epsilon-object edges; only state 1 reads letters
    # (two edges), so each entry into 1 stands for two closure edges.
    intra = [(0, 1, 1), (1, 2, 0)]
    reads = [0, 2, 0]
    monkeypatch.setattr(engine, "_NORMALIZE_BUDGET", 4)
    assert engine._closure_into(3, intra, reads) == [[], [(0, 1), (1, 0)], []]
    monkeypatch.setattr(engine, "_NORMALIZE_BUDGET", 3)
    with pytest.raises(BudgetExceeded):
        engine._closure_into(3, intra, reads)


def test_pair_complexity_splitter_is_length():
    sp_all = splitter_mode(all_accepting_rule())
    sp_none = splitter_mode(none_accepting_rule())
    assert pair_complexity(sp_all, "0110") == 4
    assert pair_complexity(sp_none, "0110") == 4
    rng = random.Random(26)
    from helpers import random_rule
    for _ in range(30):
        sp = splitter_mode(random_rule(rng))
        w = random_word(rng, 20)
        assert pair_complexity(sp, w) == len(w)


def test_joint_with_identity_bounds_pair_complexity():
    rng = random.Random(27)
    from helpers import random_rule
    ident = identity_mode()
    for _ in range(10):
        rule = random_rule(rng, max_states=4)
        j = joint(ident, splitter_mode(rule))
        w = random_word(rng, 12)
        assert pair_complexity(j, w) <= complexity(ident, w)


def test_curve_identity():
    bits = champernowne_bits(50)
    curve = complexity_curve(identity_mode(), bits, 50, 10, verify=True)
    assert curve.samples == tuple((n, n) for n in range(10, 51, 10))
    assert curve.mode_id == "identity"


def test_curve_matches_fresh_prefix_computations():
    bits = champernowne_bits(300)
    mode = unary_compressor(2)
    curve = complexity_curve(mode, bits, 300, 37, verify=True)
    for n, k in curve.samples:
        assert complexity(mode, bits[:n]) == k


def test_curve_csv_format():
    curve = ComplexityCurve(samples=((10, 7), (20, UNREACHABLE)), mode_id="m")
    text = curve.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "n,complexity,ratio"
    assert lines[1] == "10,7,0.700000"
    assert lines[2] == "20,unreachable,"


def test_curve_contract_errors():
    with pytest.raises(ContractError):
        complexity_curve(identity_mode(), "0101", 4, 0)
    with pytest.raises(ContractError):
        complexity_curve(identity_mode(), "01", 10, 5)


def test_curve_with_trained_coder_on_skewed_stream():
    from autokolm.normality import (
        average_code_length,
        block_histogram,
        build_block_coder,
        huffman_code,
        smoothed_counts,
    )
    from autokolm.seqgen import bernoulli_bits

    bits = bernoulli_bits(0.9, 7, 20_000)
    hist = block_histogram(bits, 10_000, 8, "aligned")
    coder = build_block_coder(hist)
    curve = complexity_curve(coder, bits, 20_000, 5_000, verify=True)
    counts = smoothed_counts(hist)
    avg = average_code_length(huffman_code(counts), counts)
    n, k = curve.samples[-1]
    assert n == 20_000
    assert k / n <= avg / 8 + 0.03
    for n, k in curve.samples:
        assert k == complexity(coder, bits[:n])


def test_unreachable_prefix_stays_unreachable_in_curve():
    ones_only = LabeledAutomaton(2, (BINARY, BINARY), 1, ((0, 0, (1, 1)),))
    mode = DescriptionMode(ones_only, ValuednessCertificate.asserted(1, "test"))
    curve = complexity_curve(mode, "110111", 6, 2, verify=True)
    assert curve.samples == ((2, 2), (4, UNREACHABLE), (6, UNREACHABLE))


def counting_sweep(monkeypatch, skew=0):
    """Patch the sweep to record its calls; values of multi-sample calls
    are shifted by `skew`."""
    calls = []
    sweep = engine._sweep

    def patched(aut, letters, positions):
        calls.append(list(positions))
        values = sweep(aut, letters, positions)
        return [v + skew for v in values] if len(positions) > 1 else values
    monkeypatch.setattr(engine, "_sweep", patched)
    return calls


def test_default_curve_is_one_sweep(monkeypatch):
    calls = counting_sweep(monkeypatch)
    curve = complexity_curve(unary_compressor(2), "1" * 90, 90, 10)
    assert calls == [list(range(10, 91, 10))]
    assert [k for _, k in curve.samples] == [
        sweep_pure(unary_compressor(2).automaton, "1" * n) for n in range(10, 91, 10)]


def test_verified_curve_raises_when_a_sample_disagrees(monkeypatch):
    calls = counting_sweep(monkeypatch, skew=1)
    with pytest.raises(RuntimeError, match="disagrees"):
        complexity_curve(identity_mode(), "0110", 4, 1, verify=True)
    assert len(calls) == 2


# --- the hub DP ---------------------------------------------------------------

def champ_coder(k):
    return build_block_coder(block_histogram(champernowne_bits(20_000), 10_000, k,
                                             "aligned"))


def one_bit_mode(edges, states):
    aut = LabeledAutomaton(2, (BINARY, BINARY), states, edges)
    return DescriptionMode(aut, ValuednessCertificate.asserted(3, "test"))


def cycle_mode():
    """A 3-cycle spelling 011 with one description bit per turn: no state
    has two exits, so the hub compile must promote one."""
    return one_bit_mode(((0, 1, (0, 0)), (1, 2, (EPSILON, 1)),
                         (2, 0, (EPSILON, 1))), 3)


def two_chain_mode():
    """Hub 0 spells 011 or 10, one description bit each."""
    return one_bit_mode(((0, 1, (0, 0)), (1, 2, (EPSILON, 1)), (2, 0, (EPSILON, 1)),
                         (0, 3, (1, 1)), (3, 0, (EPSILON, 0))), 4)


def test_trained_coder_compiles_to_one_hub():
    eng = engine._compiled(champ_coder(8).automaton)
    assert eng.step is engine._sweep_hubs
    hubs = eng.hubs
    assert len(hubs.ids) == 1 and hubs.span == 8 and hubs.lead == 8
    [(length, table)] = hubs.full
    assert length == 8 and len(table) == 256
    assert all(len(edges) == 1 for edges in table.values())


def test_pure_cycle_promotes_a_hub(forced_step):
    mode = cycle_mode()
    assert complexity(mode, "011011") == 2
    assert complexity(mode, "11") == 0
    eng = engine._compiled(mode.automaton)
    assert eng.step is forced_step
    if forced_step is engine._sweep_hubs:
        assert len(eng.hubs.ids) == 1 and eng.hubs.span == 3 and eng.hubs.lead == 2


@pytest.mark.parametrize("make,source", [
    (cycle_mode, "011" * 20),
    (two_chain_mode, "01110" * 12),
    (lambda: champ_coder(4), champernowne_bits(4_000)[1_234:]),
    (lambda: champ_coder(8), champernowne_bits(4_000)[1_234:]),
])
def test_hub_sweep_around_its_prologue(monkeypatch, make, source):
    force_step(monkeypatch, "hub")
    mode = make()
    hubs = engine._compiled(mode.automaton).hubs
    for n in (0, hubs.lead - 1, hubs.lead, hubs.lead + 1, 3 * hubs.span):
        word = source[:n]
        expected = sweep_pure_curve(mode.automaton, word)
        assert complexity(mode, word) == expected[-1]
        curve = complexity_curve(mode, word, n, 1, verify=False)
        assert [k for _, k in curve.samples] == expected[1:]


def test_unreachable_in_the_middle_of_a_chain(forced_step):
    mode = two_chain_mode()
    word = "011" "10" "011" "01" "0" + "10" * 20
    expected = sweep_pure_curve(mode.automaton, word)
    assert expected[10] < UNREACHABLE and expected[11] == UNREACHABLE
    curve = complexity_curve(mode, word, len(word), 1, verify=False)
    assert [k for _, k in curve.samples] == expected[1:]
    assert complexity(mode, word) == UNREACHABLE
    assert complexity(mode, word[:10]) == expected[10] == 4


def test_hub_keys_cover_large_object_alphabets(forced_step):
    # 300 object letters: hub 0 spells each pair (i, i+1) for one description bit.
    letters = tuple(chr(0x100 + i) for i in range(300))
    edges = []
    for i in range(300):
        edges += [(0, 1 + i, (1, i)), (1 + i, 0, (EPSILON, (i + 1) % 300))]
    aut = LabeledAutomaton(2, (BINARY, letters), 301, tuple(edges))
    mode = DescriptionMode(aut, ValuednessCertificate.asserted(1, "test"))
    word = "".join(letters[i] + letters[(i + 1) % 300] for i in (299, 3, 260, 7))
    assert complexity(mode, word) == 4
    # A free end inside a chain; a letter that the open chain does not spell.
    for text in (word + letters[5], word[:-1] + letters[5]):
        curve = complexity_curve(mode, text, len(text), 1, verify=False)
        assert [k for _, k in curve.samples] == sweep_pure_curve(aut, text)[1:]
    assert engine._compiled(aut).step is forced_step


def test_compiled_sweep_is_freed_with_its_automaton(monkeypatch):
    monkeypatch.setattr(engine, "_sweep_cache", {})
    mode = cycle_mode()
    assert complexity(mode, "011") == 1
    assert len(engine._sweep_cache) == 1
    del mode
    gc.collect()
    assert engine._sweep_cache == {}


@st.composite
def finite_modes(draw, arity):
    """Small random modes that pass the structural unboundedness check."""
    states = draw(st.integers(1, 6))
    label = st.tuples(*[st.sampled_from([EPSILON, 0, 1])] * arity)
    edges = draw(st.lists(st.tuples(st.integers(0, states - 1),
                                    st.integers(0, states - 1), label),
                          min_size=1, max_size=14))
    aut = LabeledAutomaton(arity, (BINARY,) * arity, states, tuple(edges))
    assume(eps_cycle_check(aut) is None)
    kind = DescriptionMode if arity == 2 else PairDescriptionMode
    return kind(aut, ValuednessCertificate.unknown(), name="random")


@pytest.mark.parametrize("arity", [2, 3])
@pytest.mark.parametrize("name", sorted(STEPS))
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_each_step_matches_oracle_on_hypothesis_modes(name, arity, data):
    mode = data.draw(finite_modes(arity))
    word = data.draw(st.text("01", max_size=30))
    aut = mode.automaton
    with pytest.MonkeyPatch.context() as mp:
        step = force_step(mp, name)
        letters = word_to_indices(aut, arity - 1, word)
        values = engine._sweep(aut, letters, list(range(len(word) + 1)))
        assert engine._compiled(aut).step is step
    assert values == sweep_pure_curve(aut, word)
