import importlib
import itertools
import math
import random

import pytest

from autokolm.automaton import EPSILON, LabeledAutomaton
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
    ValuednessCertificate,
    identity_mode,
    reverse_mode,
    unary_compressor,
)
from autokolm.seqgen import champernowne_bits

from helpers import (
    all_accepting_rule,
    brute_force_k_table,
    none_accepting_rule,
    random_finite_mode,
    random_word,
    sweep_pure,
)

# The package re-exports the `complexity` function under the module's name.
engine = importlib.import_module("autokolm.complexity")
STEPS = {"python": engine._step_python, "numpy": engine._step_numpy}


def force_step(monkeypatch, name):
    """Compile every automaton with the named per-letter step, on a fresh cache."""
    threshold = math.inf if name == "python" else -1
    monkeypatch.setattr(engine, "_PYTHON_STEP_EDGES", threshold)
    monkeypatch.setattr(engine, "_sweep_cache", {})
    return STEPS[name]


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
    curve = complexity_curve(identity_mode(), bits, 50, 10)
    assert curve.samples == tuple((n, n) for n in range(10, 51, 10))
    assert curve.mode_id == "identity"


def test_curve_matches_fresh_prefix_computations():
    bits = champernowne_bits(300)
    mode = unary_compressor(2)
    curve = complexity_curve(mode, bits, 300, 37)
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
    curve = complexity_curve(coder, bits, 20_000, 5_000)
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
    curve = complexity_curve(mode, "110111", 6, 2)
    assert curve.samples == ((2, 2), (4, UNREACHABLE), (6, UNREACHABLE))
