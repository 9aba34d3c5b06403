import gc
import hashlib
import importlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from autokolm.automaton import EPSILON, LabeledAutomaton
from autokolm.complexity import (
    UNREACHABLE,
    ComplexityCurve,
    complexity,
    complexity_curve,
    pair_complexity,
)
from autokolm.constructions import joint, splitter_mode, wall_mode
from autokolm.errors import BudgetExceeded, ContractError, InputRejected
from autokolm.modes import (
    BINARY,
    DescriptionMode,
    PairDescriptionMode,
    ValuednessCertificate,
    compose,
    eps_cycle_check,
    identity_mode,
    layered_concat,
    parse_mode,
    reverse_mode,
    unary_compressor,
    union,
)
from autokolm.normality import block_histogram, build_block_coder, huffman_code
from autokolm.seqgen import bernoulli_bits, champernowne_bits

from helpers import (
    _cheapest_reference,
    all_accepting_rule,
    average_code_length,
    brute_force_k_table,
    check_word,
    closure_into_reference,
    hub_tables_reference,
    hub_walk_reference,
    matches_reference,
    none_accepting_rule,
    parity_rule,
    prune_reference,
    random_finite_mode,
    random_word,
    superadditivity_check,
    sweep_pure,
    sweep_pure_curve,
)

# The package re-exports the `complexity` function under the module's name.
engine = importlib.import_module("autokolm.complexity")
# Each sweep path as its (closure step, tail) pair.
STEPS = {"python": (engine._step_python, None), "numpy": (engine._step_numpy, None),
         "python-sums": (engine._step_python, engine._sweep_sums),
         "sums": (engine._step_numpy, engine._sweep_sums)}


def force_step(monkeypatch, name):
    """Compile every automaton to the named (closure step, tail) pair, on a
    fresh cache; returns the pair.

    The prefix sums ("python-sums" after the Python step, "sums" after the
    numpy step) need a hub graph, which `_Hubs.compile` gives only with
    window tables: when its components each have one macro-edge length
    inside them; other graphs take the closure step alone.  A forced tail
    takes over at `lead` on every word that reaches it (`handoff` 0).
    """
    step, tail = STEPS[name]

    def pick(num_states, edges, alphabet, sizes, relays, stages):
        return step, tail and engine._Hubs.compile(num_states, edges, alphabet, relays, stages)
    monkeypatch.setattr(engine, "_pick_step", pick)
    monkeypatch.setattr(engine, "_sweep_cache", {})
    return step, tail


def swept_by(aut):
    """The (closure step, tail) pair that `aut` compiles to: the prefix
    sums where it keeps a hub graph."""
    eng = engine._compiled(aut)
    return eng.step, None if eng.hubs is None else engine._sweep_sums


def assert_swept_by(aut, path):
    """`aut` compiled to the forced (closure step, tail) pair `path`, or to
    its closure step alone where the prefix sums were forced but have no
    window tables (and so no hub graph is kept)."""
    if path[1] is engine._sweep_sums and engine._compiled(aut).hubs is None:
        path = (path[0], None)
    assert swept_by(aut) == path


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
    ones_only = LabeledAutomaton(2, (BINARY, BINARY), 1, ((0, 0, ("1", "1")),))
    mode = DescriptionMode(ones_only, ValuednessCertificate.asserted(1, "test"))
    assert complexity(mode, "0") == UNREACHABLE
    assert complexity(mode, "11") == 2


def test_complexity_rejects_unbounded_certificate():
    loop = LabeledAutomaton(2, (BINARY, BINARY), 1, ((0, 0, (EPSILON, "0")),))
    bad = DescriptionMode(
        loop, ValuednessCertificate.unbounded(((0, 0, (EPSILON, "0")),)))
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
    # Trained coders: both reversed coders take the prefix sums.
    bits = champernowne_bits(4_000)
    for k, x in ((4, bits[1_000:3_000]), (8, bits[2_000:2_500])):
        mode = champ_coder(k)
        rev = reverse_mode(mode)
        assert complexity(rev, x[::-1]) == complexity(mode, x)
        assert swept_by(rev.automaton) == STEPS["sums"]


def test_pure_and_numpy_backends_agree(monkeypatch):
    for name in STEPS:
        path = force_step(monkeypatch, name)
        rng = random.Random(25)
        for _ in range(25):
            mode = random_finite_mode(rng, max_states=5, max_edges=9)
            x = random_word(rng, 30)
            assert complexity(mode, x) == sweep_pure(mode.automaton, x)
            assert_swept_by(mode.automaton, path)


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
        assert_swept_by(pair.automaton, forced_step)


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
        assert_swept_by(mode.automaton, forced_step)
    assert unreachable > 0


def test_a_bad_symbol_is_rejected_before_the_mode_compiles(monkeypatch):
    # An over-budget compile would raise BudgetExceeded: the word is checked first.
    monkeypatch.setattr(engine, "_CLOSURE_BUDGET", 1)
    monkeypatch.setattr(engine, "_sweep_cache", {})
    mode = identity_mode()
    with pytest.raises(InputRejected, match="symbol 'x' not in alphabet of tape 1"):
        complexity(mode, "01x0")
    assert engine._sweep_cache == {}
    with pytest.raises(BudgetExceeded):
        complexity(mode, "0110")


def test_a_warm_call_looks_the_compiled_mode_up_once(monkeypatch):
    class Counting(dict):
        gets = 0

        def get(self, key, default=None):
            Counting.gets += 1
            return super().get(key, default)

    monkeypatch.setattr(engine, "_sweep_cache", Counting())
    mode = champ_coder(4)
    assert complexity(mode, "0110") == complexity(mode, "0110")   # the first call compiles
    Counting.gets = 0
    complexity(mode, "0110")
    with pytest.raises(InputRejected):
        complexity(mode, "01x0")
    assert Counting.gets == 2


def test_dense_closure_raises_budget_exceeded(monkeypatch):
    monkeypatch.setattr(engine, "_CLOSURE_BUDGET", 1)
    monkeypatch.setattr(engine, "_sweep_cache", {})
    mode = identity_mode()          # two closure edges, one per letter
    with pytest.raises(BudgetExceeded):
        complexity(mode, "01")
    with pytest.raises(BudgetExceeded):
        complexity_curve(mode, "0101", 4, 2)
    assert engine._sweep_cache == {}


def edge_columns(intra, advance):
    """Edge arrays as `_classify_edges` makes them, from intra edges
    (src, dst, weight) and advancing ones {letter index: [(src, dst,
    weight), ...]}."""
    rows = [(s, d, -1, w) for s, d, w in intra]
    rows += [(s, d, a, w) for a, edges in advance.items() for s, d, w in edges]
    return tuple(np.array(col, dtype=np.int64) for col in zip(*rows))


def closure_lists(closure):
    """`_closure_into` with its arrays as lists: entries, reach and dominant
    as rows, reached as a set."""
    entries, reach, dominant, reached = closure
    return (*(list(zip(*(col.tolist() for col in cols))) for cols in (entries, reach, dominant)),
            set(reached.tolist()))


def test_closure_is_charged_as_its_entries_are_made(monkeypatch):
    # 0 -> 1 -> 2 over epsilon-object edges; only state 1 reads letters
    # (two edges, both into 0), so each of its two entries, from the
    # entered state 0 and from 1 itself, stands for two closure edges.
    edges = edge_columns([(0, 1, 1), (1, 2, 0)], {0: [(1, 0, 0)], 1: [(1, 0, 1)]})
    monkeypatch.setattr(engine, "_CLOSURE_BUDGET", 4)
    assert closure_lists(engine._closure_into(3, *edges)) == (
        [(0, 1, 1), (1, 1, 0)], [], [], set())
    monkeypatch.setattr(engine, "_CLOSURE_BUDGET", 3)
    with pytest.raises(BudgetExceeded):
        engine._closure_into(3, *edges)


@pytest.mark.parametrize("arity", [2, 3])
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_closure_is_charged_exactly_its_closure_edges(arity, data):
    aut, relays, _ = data.draw(relay_modes(arity))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_relays", lambda outdeg, indeg: relays)
        edges = engine._classify_edges(aut)
        entries = engine._closure_into(aut.num_states, *edges)[0]
        made = engine._closure_edges(entries, *edges, len(aut.alphabets[-1])).shape[1]
        mp.setattr(engine, "_CLOSURE_BUDGET", made)
        engine._closure_into(aut.num_states, *edges)
        mp.setattr(engine, "_CLOSURE_BUDGET", made - 1)
        if made:
            with pytest.raises(BudgetExceeded):
                engine._closure_into(aut.num_states, *edges)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data())
def test_prune_settles_ties_as_the_reference(data):
    # Costs of 0-2 and weights of 0-1 over a few states make many ties,
    # and cycles of states that dominate each other.
    state = st.integers(0, data.draw(st.integers(1, 5)) - 1)
    edges = data.draw(st.lists(st.tuples(state, state, st.integers(0, 2)), max_size=24))
    intra = data.draw(st.lists(st.tuples(state, state, st.integers(0, 1)), max_size=10))
    intra = sorted(((q, q2, w) for q2, q, w in intra if q != q2), key=lambda e: e[0])
    dominant = {}
    for q, q2, w in intra:
        dominant.setdefault(q, []).append((q2, w))
    columns = [np.array(col, dtype=np.int64) for col in zip(*edges)] or [np.zeros(0, np.int64)] * 3
    rows = [np.array(col, dtype=np.int64) for col in zip(*intra)] or [np.zeros(0, np.int64)] * 3
    table = np.array([np.zeros_like(columns[0]), *columns])       # all on one letter
    pruned = engine._prune(table, tuple(rows), engine._offsets(rows[0], 5))
    assert sorted(zip(*(col.tolist() for col in pruned[1:]))) == sorted(
        prune_reference(edges, dominant))


@st.composite
def silent_graphs(draw):
    """(num_states, edge arrays as `_classify_edges` makes them, relays or
    None): silent (epsilon-object) edges that hang trees under several
    sources on one root path, with states of in-degree 2, zero-weight
    edges, relays and cycles of in-degree-1 states that no source reaches,
    and letters read and entered all over.  Relays are forced or, for
    None, those of `_relays`."""
    n = draw(st.integers(1, 16))
    state, weight = st.integers(0, n - 1), st.integers(0, 2)
    path = draw(st.integers(1, n))               # the root path 0 -> 1 -> ... -> path - 1
    intra = [(v, v + 1, draw(weight)) for v in range(path - 1)]
    orphans = []
    for v in range(path, n):                     # trees: each state below an earlier one
        if draw(st.booleans()):
            intra.append((draw(st.integers(0, v - 1)), v, draw(weight)))
        else:
            orphans.append(v)
    cycle = orphans[:draw(st.integers(0, 3))]    # entered only around the cycle
    intra += [(v, w, draw(weight)) for v, w in zip(cycle, cycle[1:] + cycle[:1])]
    intra += draw(st.lists(st.tuples(state, state, weight), max_size=5))
    advance = draw(st.lists(st.tuples(state, state, st.integers(0, 1), st.integers(0, 1)),
                            max_size=10))
    # Several sources on the root path, and reading states all along it.
    advance += [(draw(state), v, draw(st.integers(0, 1)), 0)
                for v in draw(st.lists(st.integers(0, path - 1), max_size=3))]
    advance += [(v, draw(state), draw(st.integers(0, 1)), 1)
                for v in draw(st.lists(state, max_size=6))]
    rows = [(s, d, -1, w) for s, d, w in intra] + advance
    edges = tuple(np.array(col, dtype=np.int64) for col in zip(*rows)) if rows else (
        (np.zeros(0, dtype=np.int64),) * 4)
    relays = draw(st.none() | st.lists(state, unique=True, max_size=3).map(sorted))
    return n, edges, relays


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(graph=silent_graphs())
def test_closure_matches_the_per_source_dijkstra_reference(graph):
    # The tree pass and the core search give the per-source Dijkstra's
    # entries, dominant and reached, and its reach up to the order within
    # a source; and raise BudgetExceeded at the same budgets.
    num_states, (src, dst, letter, weight), forced = graph
    intra = letter < 0
    relays = forced if forced is not None else engine._relays(
        np.bincount(src[intra], minlength=num_states),
        np.bincount(dst[intra], minlength=num_states)).tolist()
    reads = np.bincount(src[~intra], minlength=num_states)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_relays", lambda outdeg, indeg: relays)
        entries, reach, dominant, reached = closure_lists(
            engine._closure_into(num_states, src, dst, letter, weight))
        expected = closure_lists(closure_into_reference(
            num_states, src, dst, letter, weight, relays, engine._CLOSURE_BUDGET))
        assert (entries, dominant, reached) == (expected[0], expected[2], expected[3])
        assert reach == sorted(reach) == sorted(expected[1])
        made = sum(reads[t] for _, t, _ in entries)      # the closure edges
        for budget in (made, made - 1):
            mp.setattr(engine, "_CLOSURE_BUDGET", budget)
            assert outcome(engine._closure_into, num_states, src, dst, letter, weight) == (
                outcome(closure_into_reference, num_states, src, dst, letter, weight, relays,
                        budget))


def outcome(closure_into, *args):
    """The exception type that a closure raises, or None."""
    try:
        closure_into(*args)
    except BudgetExceeded as error:
        return type(error)
    return None


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data())
def test_matches_are_the_binary_search_reference(data):
    keys = np.array(sorted(data.draw(st.lists(st.integers(0, 9), max_size=12))), dtype=np.int64)
    probes = np.array(data.draw(st.lists(st.integers(0, 9), max_size=12)), dtype=np.int64)
    pick, count = engine._matches(engine._offsets(keys, 10), probes)
    expected = matches_reference(keys, probes)
    assert (pick.tolist(), count.tolist()) == (expected[0].tolist(), expected[1].tolist())


@st.composite
def wide_key_columns(draw):
    """Up to four key columns, each below a width of up to 2**62 and often
    at half of it or its top, and a cost column: the combined key passes
    2**62 and is renumbered densely, and may still be too wide for the
    next column after that."""
    rows = draw(st.integers(0, 12))
    widths = draw(st.lists(st.sampled_from([1, 2, 5, 1 << 31, 1 << 40, 1 << 61, 1 << 62]),
                           min_size=1, max_size=4))
    keys = [draw(st.lists(st.integers(0, w - 1) | st.sampled_from([w // 2, w - 1]),
                          min_size=rows, max_size=rows)) for w in widths]
    return keys, draw(st.lists(st.integers(0, 3), min_size=rows, max_size=rows))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@example(columns=([[0, 3, 2 ** 62 - 1], [2 ** 62 - 1, 2, 1], [3, 2 ** 61, 0]], [0, 1, 2]))
@given(columns=wide_key_columns())
def test_cheapest_matches_the_reference_on_keys_up_to_2_62_wide(columns):
    keys, cost = columns
    columns = [np.array(col, dtype=np.int64) for col in (*keys, cost)]
    assert [col.tolist() for col in engine._cheapest(*columns)] == [
        col.tolist() for col in _cheapest_reference(*columns)]


def chain_mode(n):
    """A path of n states over description-only edges, whose last state
    reads 1 back to the first, every fifth reads 0 back to it, and the
    last reads 0 into the middle one (a second source)."""
    readers = np.arange(4, n, 5)
    src = np.concatenate((np.arange(n - 1), [n - 1, n - 1], readers))
    dst = np.concatenate((np.arange(1, n), [0, n // 2], np.zeros_like(readers)))
    tape0 = np.concatenate((np.zeros(n - 1, dtype=np.int64), np.full(2 + readers.size, -1)))
    tape1 = np.concatenate((np.full(n - 1, -1), [1, 0], np.zeros_like(readers)))
    aut = LabeledAutomaton.from_columns(2, (BINARY, BINARY), n, src, dst,
                                        np.stack((tape0, tape1)))
    return DescriptionMode(aut, ValuednessCertificate.asserted(3, "test"))


# States on either side of the 8-, 16- and 32-bit keys that the compile's
# sorts narrow to: n, 2n and n**2.  The k=12 coder has 53,247 states.
@pytest.mark.parametrize("make", [lambda: chain_mode(255), lambda: chain_mode(256),
                                  lambda: chain_mode(65_535), lambda: chain_mode(65_536),
                                  lambda: champ_coder(12)])
def test_compiled_tables_at_the_dtype_bounds_match_the_references(make):
    aut = make().automaton
    edges = engine._classify_edges(aut)
    closure = engine._closure_into(aut.num_states, *edges)
    entries, reach, dominant, reached = closure_lists(closure)
    relays = engine._relays(np.bincount(edges[0][edges[2] < 0], minlength=aut.num_states),
                            np.bincount(edges[1][edges[2] < 0], minlength=aut.num_states))
    expected = closure_lists(closure_into_reference(aut.num_states, *edges, relays,
                                                    engine._CLOSURE_BUDGET))
    assert (entries, sorted(reach), dominant, reached) == (
        expected[0], sorted(expected[1]), expected[2], expected[3])
    # Each letter's closure edges: every entry into each reading state, on.
    src, dst, letter, weight = (col.tolist() for col in edges)
    into = {}
    for s, t, c in entries:
        into.setdefault(t, []).append((s, c))
    made = {a: sorted((s, q, c + w) for t, q, b, w in zip(src, dst, letter, weight) if b == i
                      for s, c in into[t])
            for i, a in enumerate(aut.alphabets[-1])}
    assert {a: sorted(edges) for a, edges in edge_lists(engine._compiled(aut)).items()} == made
    hubs = engine._compiled(aut).hubs
    assert hub_tables(hubs) == hub_tables_reference(
        aut.num_states, {a: tuple(np.array(col, dtype=np.int64).reshape(-1)
                                  for col in (zip(*rows) if rows else ((), (), ())))
                         for a, rows in made.items()}, set(reached), engine._NORMALIZE_BUDGET)


def test_a_compile_records_the_seconds_of_each_stage():
    for make in (identity_mode, lambda: champ_coder(8), lambda: layered_concat(champ_coder(3), 2)):
        stages = engine._CompiledSweep(make().automaton).stages
        assert set(stages) == {"closure", "closure edges", "prune and fold", "hub graph",
                               "scans", "prologue"}
        assert all(type(seconds) is float and seconds >= 0 for seconds in stages.values())


def test_a_relay_is_a_state_whose_closure_costs_more_than_it_saves():
    # Intra in-degree times out-degree above their sum: (2, 3) and (3, 2)
    # are relays, (2, 2) and (1, 9) are not.
    indeg, outdeg = np.array([2, 3, 2, 1]), np.array([3, 2, 2, 9])
    assert engine._relays(outdeg, indeg).tolist() == [0, 1]


def test_folded_relay_edges_are_charged_as_they_are_made(monkeypatch):
    # Reading 0 enters state 1, whose epsilon-object edge (one description
    # bit) leads to relay 2, the only state that reads 1.  Relay 2 is
    # folded into letter 0 as the edge 0 -> 2 of cost 2: the third closure
    # edge, charged after the two that the closure itself makes.
    mode = one_bit_mode(((0, 1, ("0", "0")), (1, 2, ("1", EPSILON)),
                         (2, 0, (EPSILON, "1"))), 3)
    aut = mode.automaton
    monkeypatch.setattr(engine, "_relays", lambda outdeg, indeg: [2])
    assert closure_lists(engine._closure_into(3, *engine._classify_edges(aut))) == (
        [(0, 0, 0), (2, 2, 0)], [(1, 2, 1)], [], {2})
    force_step(monkeypatch, "python")
    monkeypatch.setattr(engine, "_CLOSURE_BUDGET", 2)
    with pytest.raises(BudgetExceeded):
        engine._compiled(aut)
    monkeypatch.setattr(engine, "_CLOSURE_BUDGET", 3)
    assert engine._compiled(aut).by_letter == {"0": [(0, 1, 1), (0, 2, 2)], "1": [(2, 0, 0)]}
    for word in all_words(6):
        assert complexity(mode, word) == sweep_pure(aut, word)


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


def test_pair_mode_word_is_read_on_the_object_tape():
    # Tape 1 lists its symbols in another order than the object tape.
    aut = LabeledAutomaton(3, (("0", "1"), ("1", "0"), ("0", "1")), 1,
                           ((0, 0, ("0", EPSILON, "0")),))
    mode = PairDescriptionMode(aut, ValuednessCertificate.asserted(1, "test"))
    assert complexity(mode, "00") == pair_complexity(mode, "00") == 2
    for k in (complexity, pair_complexity):
        with pytest.raises(InputRejected, match="'x' not in alphabet of tape 2"):
            k(mode, "0x")


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
    ones_only = LabeledAutomaton(2, (BINARY, BINARY), 1, ((0, 0, ("1", "1")),))
    mode = DescriptionMode(ones_only, ValuednessCertificate.asserted(1, "test"))
    curve = complexity_curve(mode, "110111", 6, 2, verify=True)
    assert curve.samples == ((2, 2), (4, UNREACHABLE), (6, UNREACHABLE))


def counting_sweep(monkeypatch, skew=0):
    """Patch the sweep to record its calls; values of multi-sample calls
    are shifted by `skew`."""
    calls = []
    sweep = engine._sweep

    def patched(aut, word, positions):
        calls.append(list(positions))
        values = sweep(aut, word, positions)
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


def cycle_mode(word="011"):
    """A cycle spelling `word` with one description bit per turn: no state
    has two exits, so the hub compile must promote one."""
    n = len(word)
    return one_bit_mode(tuple((i, (i + 1) % n, ("0" if i == 0 else EPSILON, a))
                              for i, a in enumerate(word)), n)


def two_chain_mode(second="10"):
    """Hub 0 spells 011 or `second`, one description bit each."""
    edges = [(0, 1, ("0", "0")), (1, 2, (EPSILON, "1")), (2, 0, (EPSILON, "1"))]
    chain = [0, *range(3, 2 + len(second)), 0]
    for i, a in enumerate(second):
        edges.append((chain[i], chain[i + 1], ("1" if i == 0 else EPSILON, a)))
    return one_bit_mode(tuple(edges), 2 + len(second))


def test_trained_coder_compiles_to_one_hub():
    aut = champ_coder(8).automaton
    eng = engine._compiled(aut)
    assert swept_by(aut) == STEPS["sums"]
    hubs = eng.hubs
    assert len(hubs.ids) == 1 and hubs.span == 8 and hubs.lead == 8
    [(length, table)] = reference_walk(aut)[2]
    assert length == 8 and len(table) == 256
    assert all(len(edges) == 1 for edges in table.values())
    # One component of one hub, and a window cost table that every block is
    # in; window codes read the block as a binary number, first letter
    # highest.
    [(_, k, length, (kind, costs, missing), gathers)] = hubs.scans
    assert (k, length, kind.name, missing, gathers) == (1, 8, "one-hub", None, [])
    assert costs.size == 256
    for word, [(_, _, cost)] in table.items():
        assert costs[int(word, 2)] == cost


def skewed_coder(k):
    return build_block_coder(block_histogram(bernoulli_bits(0.9, 1, 20_000), 10_000, k,
                                             "aligned"))


@pytest.mark.parametrize("train", [champ_coder, skewed_coder])
def test_trained_coder_closure_is_entries_from_entered_states(train):
    # Per letter: a zero-cost entry at each of the 2^(k-1) trie leaves that
    # read it, the root's entry into each of them, and the (k-1) 2^(k-1)
    # emission-chain states that read it.
    for k in range(1, 9):
        eng = engine._compiled(train(k).automaton)
        assert {a: len(edges) for a, edges in edge_lists(eng).items()} == {
            "0": (k + 1) << (k - 1), "1": (k + 1) << (k - 1)}


def stepped_hub_rows(eng, word):
    """The hub costs, capped at _INF, at letters lead - span + 1 .. lead of
    `word` by the compiled closure step, one letter at a time."""
    hubs, dist, rows = eng.hubs, eng.start, []
    for t in range(hubs.lead + 1):
        if t:
            dist, _ = eng.step(eng.by_letter, dist, word[t - 1])
        if t > hubs.lead - hubs.span:
            cost = dist.get(hubs.keys[0], engine._INF) if type(dist) is dict else dist[hubs.ids[0]]
            rows.append(min(int(cost), engine._INF))
    return rows


@pytest.mark.parametrize("train", [champ_coder, skewed_coder])
def test_trained_coder_prologue_table_is_the_closure_step(train):
    # At the code of every word of `lead` letters, the table holds the hub
    # costs that the closure step reaches over them.
    for k in range(1, 9):
        eng = engine._compiled(train(k).automaton)
        hubs = eng.hubs
        assert hubs.lead == hubs.span == k and hubs.prologue.shape == (2 ** k, k, 1)
        for code, bits in enumerate(itertools.product("01", repeat=k)):
            rows = stepped_hub_rows(eng, "".join(bits))
            assert hubs.prologue[code][:, 0].tolist() == rows
            assert hubs.reached[code] == (min(rows) < engine._INF)


def test_a_short_coder_call_takes_no_closure_step(monkeypatch):
    # A 16-bit k=8 coder call reads the hub costs up to lead from the table.
    mode = champ_coder(8)
    eng = engine._compiled(mode.automaton)
    steps = []
    monkeypatch.setattr(eng, "step", lambda *args: steps.append(1) or engine._step_numpy(*args))
    for word in (champernowne_bits(2_000)[1_234:1_250], bernoulli_bits(0.9, 3, 16)):
        assert complexity(mode, word) == sweep_pure(mode.automaton, word) < UNREACHABLE
    assert steps == []


def test_a_one_hub_table_over_the_budget_keeps_the_ring(monkeypatch):
    # coder4's window table (16 cells) fits a budget of 95, and the 5 x 16
    # cells of its prologue table on top do not: the closure step fills the
    # ring.
    monkeypatch.setattr(engine, "_NORMALIZE_BUDGET", 95)
    monkeypatch.setattr(engine, "_sweep_cache", {})
    mode = champ_coder(4)
    eng = engine._compiled(mode.automaton)
    assert eng.hubs is not None and eng.hubs.prologue is None
    steps = []
    monkeypatch.setattr(eng, "step", lambda *args: steps.append(args[2]) or engine._step_numpy(*args))
    word = champernowne_bits(2_000)[1_234:1_298]
    assert complexity(mode, word) == sweep_pure(mode.automaton, word)
    assert steps == [word[:1], word[1:2], word[2:3], word[3:4]]


def late_entry_mode():
    """State 1 reads 0 and no letter enters it; hub 0 reaches it only over
    an epsilon-object edge that costs a description bit."""
    return one_bit_mode(((0, 1, ("1", EPSILON)), (1, 0, (EPSILON, "0")),
                         (0, 0, ("0", "1"))), 2)


def long_epsilon_mode():
    """Reading 0 enters state 1, which reaches state 3, the only state that
    reads 1, over two epsilon-object edges."""
    return one_bit_mode(((0, 1, ("1", "0")), (1, 2, ("0", EPSILON)),
                         (2, 3, ("0", EPSILON)), (3, 0, (EPSILON, "1"))), 4)


@pytest.mark.parametrize("make,values", [
    (late_entry_mode, {"0": 0, "00": 1, "10": 2, "1": 1, "01": 1}),
    (long_epsilon_mode, {"1": 0, "01": 3, "10": 1, "0101": 6, "00": UNREACHABLE}),
])
def test_closure_starts_where_the_sweep_can_be(forced_step, make, values):
    # The first letter is cheapest from a reading state itself; later
    # letters need the epsilon paths out of the entered states.
    mode = make()
    for word, k in values.items():
        assert complexity(mode, word) == k
    for word in all_words(7):
        assert complexity(mode, word) == sweep_pure(mode.automaton, word)
    assert_swept_by(mode.automaton, forced_step)


@pytest.mark.parametrize("make", [late_entry_mode, long_epsilon_mode, cycle_mode,
                                  two_chain_mode])
def test_every_relay_set_of_small_modes(forced_step, monkeypatch, make):
    # Relays that no letter enters, chains of them, and relays on a chain.
    aut = make().automaton
    words = ["".join(w) for w in itertools.product("01", repeat=6)]
    for k in range(aut.num_states + 1):
        for relays in itertools.combinations(range(aut.num_states), k):
            monkeypatch.setattr(engine, "_relays", lambda outdeg, indeg: list(relays))
            monkeypatch.setattr(engine, "_sweep_cache", {})
            for word in words:
                assert engine._sweep(aut, word, list(range(7))) == sweep_pure_curve(aut, word)


DEFAULT_PATHS = {
    "identity": (identity_mode, "python-sums"),
    "unary(3)": (lambda: unary_compressor(3), "python-sums"),
    **{f"coder{k}": (lambda k=k: champ_coder(k), "python-sums" if k <= 3 else "sums")
       for k in range(1, 9)},
    "skewed coder4": (lambda: skewed_coder(4), "sums"),
    "union": (lambda: union(identity_mode(), unary_compressor(3)), "python-sums"),
    "wall(3)": (lambda: wall_mode(3), "python-sums"),
    "wall(5)": (lambda: wall_mode(5), "python-sums"),
    "joint": (lambda: joint(identity_mode(), splitter_mode(parity_rule())), "python-sums"),
    "reverse(coder4)": (lambda: reverse_mode(champ_coder(4)), "sums"),
    "reverse(coder8)": (lambda: reverse_mode(champ_coder(8)), "sums"),
    "compose(coder4, coder4)": (lambda: compose(champ_coder(4), champ_coder(4)), "sums"),
    "layered(coder4, 2)": (lambda: layered_concat(champ_coder(4), 2), "sums"),
    "layered(skewed coder4, 2)": (lambda: layered_concat(skewed_coder(4), 2), "sums"),
}


@pytest.mark.parametrize("name", sorted(DEFAULT_PATHS))
def test_default_path_of_each_mode(name):
    make, path = DEFAULT_PATHS[name]
    assert swept_by(make().automaton) == STEPS[path]


# The break-evens of the closure step against the prefix sums, measured on
# warm calls over Bernoulli(0.9) bits, letters past `lead`; the coders'
# prefix sums start from their prologue tables.
MEASURED_HANDOFFS = {"identity": (40, 64), "union": (100, 250), "wall(5)": (416, 512),
                     "wall(3)": (704, 832), "joint": (96, 128), "coder1": (42, 46),
                     "coder2": (22, 23), "coder3": (8, 9), "coder4": (1, 1),
                     "skewed coder4": (1, 1), "coder8": (1, 1), "unary(3)": (30, 48)}
# The hand-offs the compile estimates, pinned, so that no change of the unit
# costs or of the tail's calls moves the path of a short call unseen.
HANDOFFS = {"coder1": 46, "coder2": 22, "coder3": 8, "identity": 61, "joint": 113,
            "unary(3)": 38, "union": 115, "wall(3)": 720, "wall(5)": 466,
            "coder4": 1, "coder5": 1, "coder6": 1, "coder7": 1, "coder8": 1, "skewed coder4": 1,
            "reverse(coder4)": 10, "reverse(coder8)": 1, "compose(coder4, coder4)": 30,
            "layered(coder4, 2)": 23, "layered(skewed coder4, 2)": 23}
TAIL_MODES = sorted(name for name, (_, path) in DEFAULT_PATHS.items() if path.endswith("sums"))
# The kinds of the components of each mode with a tail (`_scans`), in
# topological order, pinned so that no mode changes kind unseen.
KINDS = {**{name: ["one-hub"] for name in ("identity", "unary(3)", "skewed coder4",
                                            *(f"coder{k}" for k in range(1, 9)))},
         "union": ["one-hub", "one-hub"], "joint": ["rotation"],
         "wall(3)": ["gather", "rank-one"], "wall(5)": ["gather", "rank-one"],
         "reverse(coder4)": ["rank-one"], "reverse(coder8)": ["rank-one"],
         "compose(coder4, coder4)": ["gather"] + [None] * 46,
         "layered(coder4, 2)": ["rotation", None, "rank-one"],
         "layered(skewed coder4, 2)": ["rotation", None, "rank-one"]}


@pytest.mark.parametrize("name", TAIL_MODES)
def test_component_kinds_of_each_mode_with_a_tail_are_pinned(name):
    make, _ = DEFAULT_PATHS[name]
    hubs = engine._compiled(make().automaton).hubs
    assert [table and table[0].name for _, _, _, table, _ in hubs.scans] == KINDS[name]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data())
def test_each_kind_charges_the_cells_it_builds(data):
    # On drawn hubs and window codes, the cells that a kind charges are
    # those of the arrays that it builds, but the mask of missing words
    # (the only bool array); one hub's words are distinct macro-edges.
    kind = data.draw(st.sampled_from(engine._COMPONENT_KINDS))
    k = 1 if kind is engine._ONE_HUB else data.draw(st.integers(1, 6))
    n = data.draw(st.integers(1, 3)) ** data.draw(st.integers(1, 3))
    code = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n,
                                       unique=kind is engine._ONE_HUB)), dtype=np.int64)
    src, dst = (np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=code.size,
                                            max_size=code.size)), dtype=np.int64)
                for _ in range(2))
    arrays = kind.build(k, n, src, dst, code, np.arange(code.size))
    assert kind.charge(k, n) == sum(a.size for a in arrays if a is not None and a.dtype != bool)


# Beside the modes with a tail: dense maps, and gathers into 16 hubs.
CHARGED_MODES = {"compose(coder2, coder2)": lambda: compose(champ_coder(2), champ_coder(2)),
                 "fed(reverse(coder4))": lambda: fed(reverse_mode(champ_coder(4)), "01", 5)}


@pytest.mark.parametrize("name", [*TAIL_MODES, *CHARGED_MODES])
def test_the_window_tables_charge_the_cells_they_build(name, monkeypatch):
    # `_scans` fits the budget of exactly the cells of the arrays that it
    # builds, gathers' and every kind's, but the masks of missing words.
    make = DEFAULT_PATHS[name][0] if name in DEFAULT_PATHS else CHARGED_MODES[name]
    calls, scans = [], engine._scans
    monkeypatch.setattr(engine, "_scans", lambda *args: calls.append(args) or scans(*args))
    engine._CompiledSweep(make().automaton)
    [args] = calls
    arrays = [array for _, _, _, table, gathers in scans(*args)
              for array in [*(table[1:] if table else ()), *(gather for _, _, gather in gathers)]]
    cells = sum(a.size for a in arrays if a is not None and a.dtype != bool)
    for budget in (cells, cells - 1):
        monkeypatch.setattr(engine, "_NORMALIZE_BUDGET", budget)
        assert (scans(*args) is None) == (budget < cells)


def handoff_positions(hubs, n):
    """lead + handoff - 1, itself and plus one, lead and 1: those in 1..n,
    and n."""
    cut = hubs.lead + hubs.handoff
    return sorted({1, hubs.lead, cut - 1, cut, cut + 1} & set(range(1, n)) | {n})


@pytest.mark.parametrize("name", TAIL_MODES)
def test_python_step_hands_off_by_word_length(name, monkeypatch):
    # Words that end one letter short of the hand-off stay on the closure
    # step, Python or numpy; from there on the tail answers the positions
    # past lead from the hub costs that the step left, on curves whose
    # positions straddle the hand-off too.
    make, _ = DEFAULT_PATHS[name]
    aut = make().automaton
    eng = engine._compiled(aut)
    hubs = eng.hubs
    low, high = MEASURED_HANDOFFS.get(name, (1, 1_024))
    assert low <= hubs.handoff <= high and hubs.handoff == HANDOFFS[name]
    cut = hubs.lead + hubs.handoff
    # unary(3) spells runs of ones only.
    source = "1" * (cut + 1) if name == "unary(3)" else bernoulli_bits(0.9, 19, cut + 1)
    tails, sweep = [], engine._sweep_sums
    monkeypatch.setattr(engine, "_sweep_sums", lambda *args: tails.append(1) or sweep(*args))
    for n in (cut - 1, cut, cut + 1):
        word = source[:n]
        expected = sweep_pure_curve(aut, word)
        assert expected[-1] < UNREACHABLE
        before = len(tails)
        assert engine._sweep(aut, word, [n]) == [expected[-1]]
        assert len(tails) - before == (n >= cut and n > hubs.lead)
        positions = handoff_positions(hubs, n)
        assert engine._sweep(aut, word, positions) == [expected[t] for t in positions]


@st.composite
def tail_modes(draw):
    """A mode whose hub graph the prefix sums may sweep after either
    closure step: a one-hub mode, a mode of `scan_modes` or of
    `functional_modes`, or the composition of two trained k=2 coders,
    which takes the numpy step and has dense maps."""
    family = draw(st.sampled_from(["one-hub", "scan", "functional", "dense"]))
    if family == "one-hub":
        return draw(one_hub_modes())[0]
    if family == "dense":
        return compose(drawn_trained_coder(draw, 2), drawn_trained_coder(draw, 2))
    return draw(scan_modes() if family == "scan" else functional_modes())


def test_the_hand_off_matches_the_oracle_on_hypothesis_modes():
    paths, crossed, dense = set(), set(), set()

    # Chunks of a few dozen letters and more, so that the words around the
    # hand-off cross them, or of the default size, whose letters amortize
    # the tail's fixed cost as the numpy step's do.  The examples reach each
    # case that the last assertion asks for, whatever the drawn ones do: a
    # word across chunks after the Python step, and dense maps after the
    # numpy step.
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(mode=tail_modes(), cells=st.integers(48, 400) | st.just(engine._CHUNK_CELLS),
           past=st.integers(-1, 1), p=st.floats(0.05, 0.95), seed=st.integers(0, 999))
    @example(mode=champ_coder(1), cells=48, past=0, p=0.5, seed=1)
    @example(mode=compose(champ_coder(2), champ_coder(2)), cells=engine._CHUNK_CELLS, past=1,
             p=0.5, seed=1)
    def check(mode, cells, past, p, seed):
        aut = mode.automaton
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_CHUNK_CELLS", cells)
            mp.setattr(engine, "_sweep_cache", {})
            eng = engine._compiled(aut)
            paths.add(swept_by(aut))
            assume(eng.hubs is not None)
            hubs = eng.hubs
            if eng.step is engine._step_numpy:
                dense.update(table[0].name == "dense" for _, _, _, table, _ in hubs.scans if table)
            word = bernoulli_bits(p, seed, max(hubs.lead + hubs.handoff + past, 1))
            expected = sweep_pure_curve(aut, word)
            positions = sorted({*handoff_positions(hubs, len(word)),
                                *scan_positions(hubs, len(word))})
            assert engine._sweep(aut, word, positions) == [expected[t] for t in positions]
            crossed.add(len(word) > hubs.lead + hubs.chunk)
    check()
    assert {STEPS["python-sums"], STEPS["sums"]} <= paths and True in crossed and True in dense


def one_hub_table(hubs):
    """The window table (costs, missing) as lists of a hub graph of one hub
    with one macro-edge length, missing all False where the compile keeps
    None; (None, None) for any other."""
    if len(hubs.ids) > 1 or not hubs.scans[0][2]:
        return None, None
    [(_, _, _, (_, costs, missing), _)] = hubs.scans
    return costs.tolist(), [False] * costs.size if missing is None else missing.tolist()


def compiled_digest(aut) -> str:
    """A digest of what `aut` compiles to: its (closure step, tail) pair,
    each letter's closure edges as a multiset, the hub tables (the
    macro-edges read back from the window tables, and the spelled `part`),
    and K of every 40th prefix of a 400-bit Champernowne window."""
    eng = engine._compiled(aut)
    path = next(name for name, pair in STEPS.items() if pair == swept_by(aut))
    edges = sorted((a, sorted(edges)) for a, edges in edge_lists(eng).items())

    def table(rows):
        return [(n, sorted((w, sorted(tuple(map(int, e)) for e in entries))
                           for w, entries in words.items())) for n, words in rows]
    hubs = eng.hubs
    tables = None if hubs is None else (
        hubs.ids.tolist(), table(full_tables(hubs)), table(part_tables(hubs)), hubs.span,
        hubs.lead,
        *one_hub_table(hubs))
    word = champernowne_bits(2_000)[1_234:1_634]
    values = engine._sweep(aut, word, list(range(40, 401, 40)))
    return hashlib.sha256(repr((path, edges, tables, values)).encode()).hexdigest()[:16]


# Digests of the compiled sweeps of DEFAULT_PATHS, pinned from the per-state
# compile that the array compile replaced.  The reversals and the
# composition were re-pinned when they moved from the hub loop to the
# prefix sums, once each gave its old digest under the old path name; so
# were the modes that moved to the Python step and the prefix sums, with
# the old path name put back (and no hub tables for union, joint and the
# walls, which had none).
COMPILED_DIGESTS = {
    'coder1': '7a56aabd6d1932df',
    'coder2': '4076c1775884079e',
    'coder3': 'cf4e12672de32133',
    'coder4': 'c84b7aeb1ba51317',
    'coder5': '6319539b3ca9a334',
    'coder6': '7070876c21bcebdb',
    'coder7': 'f67da2e30959ff92',
    'coder8': 'f370b19072a955d9',
    'compose(coder4, coder4)': 'aced7dac36fbd176',
    'identity': '083a8721b39743fe',
    'joint': '6f3d3002fd1589c0',
    'layered(coder4, 2)': 'c46fac940aa032f1',
    'layered(skewed coder4, 2)': '8a6083909dcf12d0',
    'reverse(coder4)': '4c60ce4f46ad8113',
    'reverse(coder8)': '5242cf69f2731231',
    'skewed coder4': '63648daa4fff88b7',
    'unary(3)': '1d101245c9830f80',
    'union': '0c568f0b7eb948f5',
    'wall(3)': '16644e9d4e7f4ed6',
    'wall(5)': 'e3c3ccc08d6ba5dc',
}


@pytest.mark.parametrize("name", sorted(DEFAULT_PATHS))
def test_compiled_artefacts_of_each_mode_are_pinned(name):
    make, _ = DEFAULT_PATHS[name]
    assert compiled_digest(make().automaton) == COMPILED_DIGESTS[name]


def test_pure_cycle_promotes_a_hub(forced_step):
    mode = cycle_mode()
    assert complexity(mode, "011011") == 2
    assert complexity(mode, "11") == 0
    eng = engine._compiled(mode.automaton)
    assert swept_by(mode.automaton) == forced_step
    if eng.hubs is not None:
        assert len(eng.hubs.ids) == 1 and eng.hubs.span == 3 and eng.hubs.lead == 2


def test_a_long_cycle_compiles_to_no_hub_graph():
    # One hub and one macro-edge of 3,000 letters, whose window table would
    # take 2**3000 cells: the walk stops past 22 letters, the longest word
    # whose table fits the budget, and the closure step sweeps alone.
    letters = "".join(random.Random(35).choice("01") for _ in range(3_000))
    mode = cycle_mode(letters)
    aut = mode.automaton
    assert engine._compiled(aut).hubs is None
    flipped = letters[:60] + "10"[int(letters[60])]
    for word in (letters[:120], (letters * 2)[2_900:3_150], flipped, flipped[:60]):
        assert complexity(mode, word) == sweep_pure(aut, word)
    assert complexity(mode, flipped) == UNREACHABLE


def test_python_step_start_holds_only_closure_sources(monkeypatch):
    # A mode that declares 2**18 states and uses two compiles to the Python
    # step, whose start costs are those of the closure edges' sources: the
    # compiled mode keeps no cost per declared state.
    n = 1 << 18
    mode = one_bit_mode(((0, 1, ("1", "0")),), n)
    monkeypatch.setattr(engine, "_sweep_cache", {})
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        eng = engine._compiled(mode.automaton)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert eng.step is engine._step_python and eng.start == {0: 0}
    assert retained < n // 8, retained              # 72 bytes a state with a dict of them all
    assert complexity(mode, "0") == 1 and complexity(mode, "00") == UNREACHABLE


def test_chain_file_compile_peak_memory_is_bounded_per_state(monkeypatch):
    # 2**16 states on a chain of description-only edges, closed by one
    # object-writing edge, as a mode file.  Measured peak 121 bytes a state;
    # bound +25%.
    n = 2 ** 16
    mode = parse_mode(f"arity 2\nalphabet 0 0 1\nalphabet 1 0 1\nstates {n}\n"
                      + "".join(f"edge {i} {i + 1} 0 -\n" for i in range(n - 1))
                      + f"edge {n - 1} 0 - 1\n")
    monkeypatch.setattr(engine, "_sweep_cache", {})
    gc.collect()
    tracemalloc.start()
    try:
        eng = engine._compiled(mode.automaton)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eng.hubs is not None and complexity(mode, "11") == n - 1
    assert peak <= 152 * n, peak / n


@pytest.mark.parametrize("make,source", [
    (cycle_mode, "011" * 20),
    (two_chain_mode, "01110" * 12),
    (lambda: two_chain_mode("101"), "011101" * 10),
    (lambda: champ_coder(4), champernowne_bits(4_000)[1_234:]),
    (lambda: champ_coder(8), champernowne_bits(4_000)[1_234:]),
    # Words of a 4-cycle (lead 3) that stop being spellable at letter 2, 3
    # and 4: lead - 1, lead and lead + 1.
    *[(lambda: cycle_mode("0111"), cut + "0111" * 10) for cut in ("00", "010", "0110")],
])
def test_hub_sweep_around_its_prologue(make, source):
    # The closure step answers the positions up to lead and hands the hub
    # costs of its last span letters to the tail, which answers the rest.
    # A hub graph without window tables (chains of two lengths) is swept by
    # the numpy step alone, around the same positions.
    with pytest.MonkeyPatch.context() as mp:
        path = force_step(mp, "sums")
        mode = make()
        aut = mode.automaton
        assert_swept_by(aut, path)
        _, lead, full, _ = reference_walk(aut)
        span = full[-1][0]
        for n in (0, lead - 1, lead, lead + 1, 3 * span):
            word = source[:n]
            expected = sweep_pure_curve(aut, word)
            assert complexity(mode, word) == expected[-1]
            curve = complexity_curve(mode, word, n, 1, verify=False)
            assert [k for _, k in curve.samples] == expected[1:]
        # Positions that end at lead, in a longer word, never reach the tail.
        mp.setattr(engine, "_sweep_sums", None)
        assert engine._sweep(aut, source[:3 * span], list(range(lead + 1))) == \
            sweep_pure_curve(aut, source[:lead])


def test_unreachable_in_the_middle_of_a_chain(forced_step):
    # Chains of two lengths (the numpy step) and of one (prefix sums).
    for second, word, last in (("10", "011" "10" "011" "01" "0" + "10" * 20, 10),
                               ("101", "011" "101" "011" "10" "0" + "101" * 13, 11)):
        mode = two_chain_mode(second)
        expected = sweep_pure_curve(mode.automaton, word)
        assert expected[last] < UNREACHABLE and expected[last + 1] == UNREACHABLE
        curve = complexity_curve(mode, word, len(word), 1, verify=False)
        assert [k for _, k in curve.samples] == expected[1:]
        assert complexity(mode, word) == UNREACHABLE
        assert complexity(mode, word[:last]) == expected[last] == 4
        assert_swept_by(mode.automaton, forced_step)


def test_hub_keys_cover_large_object_alphabets(forced_step):
    # 300 object letters: hub 0 spells each pair (i, i+1) for one description bit.
    letters = tuple(chr(0x100 + i) for i in range(300))
    edges = []
    for i in range(300):
        edges += [(0, 1 + i, ("1", letters[i])),
                  (1 + i, 0, (EPSILON, letters[(i + 1) % 300]))]
    aut = LabeledAutomaton(2, (BINARY, letters), 301, tuple(edges))
    mode = DescriptionMode(aut, ValuednessCertificate.asserted(1, "test"))
    word = "".join(letters[i] + letters[(i + 1) % 300] for i in (299, 3, 260, 7))
    assert complexity(mode, word) == 4
    # A free end inside a chain; a letter that the open chain does not spell.
    for text in (word + letters[5], word[:-1] + letters[5]):
        curve = complexity_curve(mode, text, len(text), 1, verify=False)
        assert [k for _, k in curve.samples] == sweep_pure_curve(aut, text)[1:]
    assert swept_by(aut) == forced_step


def rejection(aut, word) -> str:
    """The message with which `check_word`, the reference alphabet check,
    rejects `word` on the object tape."""
    with pytest.raises(InputRejected) as rejected:
        check_word(aut, aut.arity - 1, word)
    return str(rejected.value)


@pytest.mark.parametrize("make,word", [
    # The last letter of words of three tail chunks of 16,384 letters.
    (identity_mode, "01" * 19_999 + "12"),
    (lambda: champ_coder(8), "01" * 19_999 + "12"),
    # Past a 0, on which unary(3) becomes unreachable: on the closure step,
    # and on a word that reaches the tail's hand-off.
    (lambda: unary_compressor(3), "01x"),
    (lambda: unary_compressor(3), "0" + "1" * 1_000 + "x"),
    # A lone surrogate; a letter past the Basic Multilingual Plane; a code
    # point above every letter.
    (identity_mode, "01\udc00"),
    (identity_mode, "0\U0001F600"),
    (identity_mode, "01z"),
], ids=["identity-chunks", "coder8-chunks", "unreachable-step", "unreachable-tail", "surrogate",
        "past-bmp", "above"])
def test_a_symbol_outside_the_alphabet_is_rejected_wherever_it_is(make, word):
    mode = make()
    step = 1 if len(word) < 5_000 else 1_000
    if word[0] == "0" and mode.name == "unary(3)":
        assert complexity(mode, word[:-1]) == UNREACHABLE
    for sweep in (lambda: complexity(mode, word),
                  lambda: complexity_curve(mode, word, len(word), step, verify=False)):
        with pytest.raises(InputRejected) as got:
            sweep()
        assert str(got.value) == rejection(mode.automaton, word)


def test_letters_past_the_basic_multilingual_plane(forced_step):
    # Hub 0 reads a for a description bit and U+1F600 for none.
    letters = ("a", "\U0001F600")
    aut = LabeledAutomaton(2, (BINARY, letters), 1,
                           ((0, 0, ("1", "a")), (0, 0, (EPSILON, "\U0001F600"))))
    mode = DescriptionMode(aut, ValuednessCertificate.asserted(1, "test"))
    word = "a\U0001F600\U0001F600a" * 30
    assert complexity(mode, word) == 60
    curve = complexity_curve(mode, word, len(word), 1, verify=False)
    assert [k for _, k in curve.samples] == sweep_pure_curve(aut, word)[1:]
    for text in (word + "\U0001F601", "\U0001F601" + word, word + "b"):
        with pytest.raises(InputRejected) as got:
            complexity(mode, text)
        assert str(got.value) == rejection(aut, text)
    assert_swept_by(aut, forced_step)


@pytest.mark.parametrize("size", [255, 256, 300])
def test_words_over_alphabets_of_a_byte_and_more(forced_step, size):
    # Hub 0 spells each pair (i, i+1) of the letters from "!" on for one
    # description bit.  The ranks of 255 letters and the one past them fit
    # a byte, of 256 or 300 two bytes; the window codes of two letters fit
    # two bytes at 255 and 256 letters (65,025 and 65,536 codes) and four
    # at 300.
    letters = tuple(a for a in map(chr, range(0x21, 0x200)) if a not in "-#" and not a.isspace())
    letters = letters[:size]
    edges = []
    for i in range(size):
        edges += [(0, 1 + i, ("1", letters[i])),
                  (1 + i, 0, (EPSILON, letters[(i + 1) % size]))]
    aut = LabeledAutomaton(2, (BINARY, letters), size + 1, tuple(edges))
    mode = DescriptionMode(aut, ValuednessCertificate.asserted(1, "test"))
    word = "".join(letters[i] + letters[(i + 1) % size] for i in (size - 1, 0, size - 2, 7))
    for text in (word, word + letters[5], word[:-1] + letters[5]):
        curve = complexity_curve(mode, text, len(text), 1, verify=False)
        assert [k for _, k in curve.samples] == sweep_pure_curve(aut, text)[1:]
    for bad in (chr(ord(letters[-1]) + 1), chr(0x10FFFF), "\ud800", "\x01"):
        for text in (bad + word, word + bad):
            with pytest.raises(InputRejected) as got:
                complexity(mode, text)
            assert str(got.value) == rejection(aut, text)
    assert_swept_by(aut, forced_step)


@pytest.mark.parametrize("base,span,width", [
    (2, 8, 1), (4, 4, 1), (16, 2, 1), (3, 5, 1),                     # up to 2**8 codes
    (257, 1, 2), (17, 2, 2), (7, 3, 2),                              # past 2**8
    (2, 16, 2), (4, 8, 2), (16, 4, 2), (256, 2, 2),                  # 2**16
    (65_537, 1, 4), (257, 2, 4), (17, 4, 4), (3, 11, 4)])            # past 2**16
@pytest.mark.parametrize("windows", [20, 2_000])
@pytest.mark.parametrize("doubling", [0, 1 << 30])
def test_window_codes_match_a_convolution_at_the_dtype_bounds(monkeypatch, base, span, width,
                                                               windows, doubling):
    # The codes of |alphabet|**span = 2**8, 2**8 + 1, 2**16 and 2**16 + 1
    # and next to them, in the narrowest dtype that holds them, by doubling
    # or by the correlation that short chunks take, against np.convolve.
    monkeypatch.setattr(engine, "_DOUBLING_WINDOWS", doubling)
    assert np.min_scalar_type(base ** span - 1).itemsize == width
    ranks = np.random.default_rng(base * span).integers(0, base, windows + span - 1)
    ranks[:span + 3] = base - 1                          # the largest code, and its neighbours
    expected = np.convolve(ranks, base ** np.arange(span), "valid")
    codes = engine._windows(ranks.astype(np.min_scalar_type(base)), base, span)
    assert codes.dtype == np.intp and codes.tolist() == expected.tolist()


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
    label = st.tuples(*[st.sampled_from([EPSILON, "0", "1"])] * arity)
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
        path = force_step(mp, name)
        values = engine._sweep(aut, word, list(range(len(word) + 1)))
        assert_swept_by(aut, path)
    assert values == sweep_pure_curve(aut, word)


@st.composite
def one_hub_modes(draw):
    """A mode whose hub graph is one hub with one macro-edge length, and a
    word for it.

    Hub 0 has one chain back to itself per word of a random block code
    over two or three letters; with one word it is a cycle and its hub is
    promoted.  A few states outside lead into it, which delays `lead`.
    The word is a run of code words after a random partial block, with one
    letter sometimes changed, which leaves the rest unreachable.
    """
    letters = draw(st.sampled_from([BINARY, ("0", "1", "2")]))
    span = draw(st.integers(1, 4))
    words = draw(st.lists(st.text(letters, min_size=span, max_size=span),
                          min_size=1, max_size=6, unique=True))
    bit = st.sampled_from([EPSILON, "0", "1"])
    edges, states = [], 1
    for word in words:
        chain = [0, *range(states, states + span - 1), 0]
        states += span - 1
        for i, a in enumerate(word):
            edges.append((chain[i], chain[i + 1], ("1" if i == 0 else draw(bit), a)))
    for _ in range(draw(st.integers(0, 3))):
        edges.append((states, draw(st.integers(0, states - 1)),
                      (draw(bit), draw(st.sampled_from(letters)))))
        states += 1
    aut = LabeledAutomaton(2, (BINARY, letters), states, tuple(edges))
    mode = DescriptionMode(aut, ValuednessCertificate.unknown(), name="one-hub")
    text = draw(st.text(letters, max_size=span - 1)) + "".join(
        draw(st.lists(st.sampled_from(words), min_size=8, max_size=16)))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(text) - 1))
        text = text[:i] + draw(st.sampled_from(letters)) + text[i + 1:]
    return mode, text


@pytest.mark.parametrize("name", ["python-sums", "sums"])
@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(data=st.data())
def test_one_hub_modes_match_oracle(name, data):
    mode, text = data.draw(one_hub_modes())
    aut = mode.automaton
    with pytest.MonkeyPatch.context() as mp:
        path = force_step(mp, name)
        eng = engine._compiled(aut)
        assert swept_by(aut) == path and len(eng.hubs.ids) == 1
        lead = eng.hubs.lead
        for n in sorted({max(lead - 1, 0), lead, lead + 1, len(text)}):
            word = text[:n]
            expected = sweep_pure_curve(aut, word)
            assert engine._sweep(aut, word, list(range(n + 1))) == expected
            assert complexity(mode, word) == expected[-1]


def test_prologue_tables_of_one_hub_modes_match_the_oracle():
    # One-hub graphs of depth <= 1 take the hub costs up to lead from the
    # table; lead-in states that lead into each other make deeper graphs,
    # which keep the ring.  Some words die at letter 1 or at letter lead.
    seen = set()

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(data=st.data())
    def check(data):
        mode, text = data.draw(one_hub_modes())
        aut = mode.automaton
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_sweep_cache", {})
            eng = engine._compiled(aut)
            hubs = eng.hubs
            assume(hubs is not None and len(text) > hubs.lead + 2)
            depth = hubs.lead - hubs.span + 1
            assert (hubs.prologue is None) == (depth > 1 or hubs.lead == 0)
            # A hand-off inside the word, so that its positions straddle it.
            hubs.handoff = data.draw(st.integers(1, len(text) - hubs.lead - 1))
            die = data.draw(st.sampled_from([None, 1, hubs.lead]))
            if die:
                for a in aut.alphabets[-1]:
                    word = text[:die - 1] + a + text[die:]
                    head = sweep_pure_curve(aut, word[:die])
                    if head[die - 1] < UNREACHABLE == head[die]:
                        text = word
                        break
                else:
                    die = None
            expected = sweep_pure_curve(aut, text)
            cut = hubs.lead + hubs.handoff
            positions = sorted({hubs.lead + 1, cut - 1, cut, cut + 1, len(text)})
            for n in positions:
                assert engine._sweep(aut, text[:n], [n]) == [expected[n]]
            assert engine._sweep(aut, text, positions) == [expected[t] for t in positions]
            assert engine._sweep(aut, text, list(range(len(text) + 1))) == expected
            seen.add((hubs.prologue is not None, "lead" if die and die > 1 else die))
    check()
    assert {(True, None), (True, 1), (True, "lead"), (False, None)} <= seen


@pytest.mark.parametrize("span", [1, 2, 5, 40])
def test_prologue_over_a_one_letter_object_alphabet_matches_the_oracle(span):
    # Every code over one letter is 0, so only the table's rows tell the
    # lengths of the words apart.  A cycle of span states, and a state
    # that leads into it, for depth 1.
    edges = [(i, (i + 1) % span, (BINARY[i % 2], "a")) for i in range(span)]
    aut = LabeledAutomaton(2, (BINARY, ("a",)), span + 1, (*edges, (span, 0, (EPSILON, "a"))))
    word = "a" * (3 * span + 5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_sweep_cache", {})
        hubs = engine._compiled(aut).hubs
        assert hubs.span == span and hubs.lead == span and hubs.prologue is not None
        hubs.handoff = 1
        assert engine._sweep(aut, word, list(range(len(word) + 1))) == sweep_pure_curve(aut, word)


def test_prologue_table_over_a_large_alphabet_holds_the_cells_it_is_charged():
    # Five words of two letters over 200 letters: the table's (span + 1)
    # rows of 200**2 codes are 0.7 MB; 200**3 cells would be 61 MB.
    letters = tuple(chr(0x100 + i) for i in range(200))
    rng = random.Random(1)
    words = ["".join(rng.choices(letters, k=2)) for _ in range(5)]
    edges = [edge for i, w in enumerate(words, 1)
             for edge in ((0, i, ("1", w[0])), (i, 0, ("0", w[1])))]
    aut = LabeledAutomaton(2, (BINARY, letters), len(words) + 1, tuple(edges))
    text = "".join(rng.choices(words, k=30))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_sweep_cache", {})
        tracemalloc.start()
        try:
            hubs = engine._compiled(aut).hubs
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hubs.prologue is not None and peak < 8 << 20
        hubs.handoff = 1
        assert engine._sweep(aut, text, list(range(len(text) + 1))) == sweep_pure_curve(aut, text)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_reversal_oracle_on_hypothesis_modes(data):
    mode = data.draw(finite_modes(2))
    word = data.draw(st.text("01", max_size=30))
    assert complexity(reverse_mode(mode), word) == complexity(mode, word[::-1])


@st.composite
def relay_modes(draw, arity):
    """A small random mode, a set of states forced to be relays, and a word.

    Besides random edges, the relays are strung on a chain of epsilon-object
    edges that sometimes closes into a cycle of zero cost, and each relay
    may be entered and left by epsilon-object edges and may read a letter.
    A few epsilon-object edges join two states that letters enter (so one
    may dominate the other's closure edges), sometimes both ways at zero
    cost; they may touch relays.
    """
    states = draw(st.integers(1, 6))
    relays = draw(st.lists(st.integers(0, states - 1), unique=True, max_size=states))
    desc = st.tuples(*[st.sampled_from([EPSILON, "0", "1"])] * (arity - 1))
    letter = st.sampled_from([EPSILON, "0", "1"])
    state = st.integers(0, states - 1)
    edges = draw(st.lists(st.tuples(state, state, st.tuples(desc, letter)),
                          max_size=12))
    edges = [(s, d, (*u, a)) for s, d, (u, a) in edges]
    for q2, q in draw(st.lists(st.tuples(state, state), max_size=3)):
        edges.append((q2, q, (*draw(desc), EPSILON)))
        if draw(st.booleans()):
            edges.append((q, q2, (EPSILON,) * arity))
        for entered in (q2, q):
            edges.append((draw(state), entered,
                          (*draw(desc), draw(st.sampled_from("01")))))
    for r, nxt in zip(relays, relays[1:]):
        edges.append((r, nxt, (*draw(desc), EPSILON)))
    if len(relays) > 1 and draw(st.booleans()):
        edges.append((relays[-1], relays[0], (EPSILON,) * arity))
    for r in relays:
        if draw(st.booleans()):
            edges.append((draw(state), r, (*draw(desc), EPSILON)))
        if draw(st.booleans()):
            edges.append((r, draw(state), (*draw(desc), EPSILON)))
        if draw(st.booleans()):
            edges.append((r, draw(state), (*draw(desc), draw(st.sampled_from("01")))))
    aut = LabeledAutomaton(arity, (BINARY,) * arity, states, tuple(edges))
    return aut, sorted(relays), draw(st.text("01", max_size=24))


@pytest.mark.parametrize("arity", [2, 3])
@pytest.mark.parametrize("name", sorted(STEPS))
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_forced_relays_match_oracle(name, arity, data):
    aut, relays, word = data.draw(relay_modes(arity))
    with pytest.MonkeyPatch.context() as mp:
        path = force_step(mp, name)
        mp.setattr(engine, "_relays", lambda outdeg, indeg: relays)
        values = engine._sweep(aut, word, list(range(len(word) + 1)))
        assert_swept_by(aut, path)
    assert values == sweep_pure_curve(aut, word)


@pytest.mark.parametrize("name", sorted(STEPS))
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_a_dead_letter_ends_words_as_the_oracle(name, data):
    # No edge reads the dead letter, which the word holds at its first, a
    # middle or its last letter: every position from it on is unreachable.
    aut, relays, word = data.draw(relay_modes(2))
    dead = data.draw(st.sampled_from("01"))
    aut = LabeledAutomaton(2, aut.alphabets, aut.num_states,
                           tuple(edge for edge in aut.edges if edge[2][-1] != dead))
    at = data.draw(st.sampled_from([0, len(word) // 2, len(word)]))
    word = word[:at] + dead + word[at:]
    with pytest.MonkeyPatch.context() as mp:
        force_step(mp, name)
        mp.setattr(engine, "_relays", lambda outdeg, indeg: relays)
        assert chr(BINARY.index(dead)) in engine._compiled(aut).dead
        values = engine._sweep(aut, word, list(range(len(word) + 1)))
    assert values == sweep_pure_curve(aut, word)


@pytest.mark.parametrize("at", ["first", "middle", "last"])
def test_unary_words_end_at_their_first_zero(monkeypatch, at):
    # unary(3) reads only 1s: the closure step never takes a letter past
    # the word's first 0, and the positions from it on are unreachable.
    mode = unary_compressor(3)
    aut = mode.automaton
    ones = "1" * 60
    word = {"first": "0" + ones, "middle": ones[:30] + "0" + ones[30:], "last": ones + "0"}[at]
    eng = engine._compiled(aut)
    assert eng.dead == [chr(BINARY.index("0"))]
    stepped = []
    monkeypatch.setattr(eng, "step", lambda by_letter, dist, letters: stepped.append(
        len(letters)) or engine._step_python(by_letter, dist, letters))
    positions = list(range(len(word) + 1))
    assert engine._sweep(aut, word, positions) == sweep_pure_curve(aut, word)
    assert sum(stepped) <= word.index("0")
    assert complexity(mode, word) == UNREACHABLE
    with pytest.raises(InputRejected):
        complexity(mode, word + "2")             # a bad symbol past the dead letter


@pytest.mark.parametrize("name", sorted(STEPS))
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_layered_random_modes_match_oracle(name, data):
    # From three base states on, the layered hub is a relay, and a hub of
    # the hub graph; on a block code, relay exits lie all along the chains
    # of the last layer.
    if data.draw(st.booleans()):
        base, word = data.draw(one_hub_modes())
    else:
        base, word = data.draw(finite_modes(2)), data.draw(st.text("01", max_size=40))
    assume(base.automaton.num_states >= 3)
    aut = layered_concat(base, data.draw(st.integers(1, 3))).automaton
    with pytest.MonkeyPatch.context() as mp:
        path = force_step(mp, name)
        values = engine._sweep(aut, word, list(range(len(word) + 1)))
        assert_swept_by(aut, path)
    assert values == sweep_pure_curve(aut, word)


def block_code(words, states=0):
    """A mode whose hub, state `states`, spells each of the equally long
    `words` for one description bit and more at random-looking places, on
    chains of states numbered from states + 1."""
    edges, top = [], states
    for i, word in enumerate(words):
        chain = [states, *range(top + 1, top + len(word)), states]
        top += len(word) - 1
        for j, a in enumerate(word):
            edges.append((chain[j], chain[j + 1], ("1" if j == 0 or (i + j) % 3 == 0
                                                   else EPSILON, a)))
    aut = LabeledAutomaton(2, (BINARY, BINARY), top + 1, tuple(edges))
    return DescriptionMode(aut, ValuednessCertificate.asserted(1, "test"), name="block code")


def header_mode(first, chain, second):
    """Hub 0 spells the `first` words as block_code does, and a chain
    spelling `chain` for one description bit leads from it to a second
    hub, which spells the `second` words."""
    head = block_code(first).automaton
    hub = head.num_states + len(chain) - 1
    tail = block_code(second, hub).automaton
    states = [0, *range(head.num_states, hub), hub]
    edges = [(states[j], states[j + 1], ("1" if j == 0 else EPSILON, a))
             for j, a in enumerate(chain)]
    aut = LabeledAutomaton(2, (BINARY, BINARY), tail.num_states,
                           head.edges + tuple(edges) + tail.edges)
    return DescriptionMode(aut, ValuednessCertificate.asserted(1, "test"), name="header")


def drawn_blocks(draw, k):
    """Some of the blocks of k bits, drawn."""
    return draw(st.lists(st.sampled_from(["".join(b) for b in itertools.product("01", repeat=k)]),
                         min_size=1, unique=True))


def drawn_trained_coder(draw, k):
    """A k-block coder trained on 64 drawn Bernoulli bits."""
    bits = bernoulli_bits(draw(st.floats(0.05, 0.95)), draw(st.integers(0, 99)), 64)
    return build_block_coder(block_histogram(bits, 64, k, "aligned"))


def drawn_coder(draw, k):
    """A trained k-block coder, or a block code of some of the blocks."""
    return drawn_trained_coder(draw, k) if draw(st.booleans()) else block_code(drawn_blocks(draw, k))


@st.composite
def scan_modes(draw):
    """A mode whose hub graph the prefix sums sweep component by component.

    Either layered_concat(coder, N) of a small coder for N in 1..3, whose
    copy roots are one component of N hubs that the relay and then the
    final copy's root follow; or the union of two coders of different
    block lengths, two one-hub components; or a header mode whose chain
    into the second hub may be longer than twice its blocks.  A coder is
    trained on Bernoulli bits, or is a block code of some of the blocks,
    whose component becomes unreachable at the first block outside the
    code.
    """
    family = draw(st.sampled_from(["layered", "union", "header"]))
    if family == "layered":
        return layered_concat(drawn_coder(draw, draw(st.integers(1, 3))), draw(st.integers(1, 3)))
    if family == "header":
        chain = draw(st.text("01", min_size=1, max_size=7))
        return header_mode(drawn_blocks(draw, draw(st.integers(1, 3))), chain,
                           drawn_blocks(draw, draw(st.integers(1, 2))))
    k, m = draw(st.lists(st.integers(1, 4), min_size=2, max_size=2, unique=True))
    return union(drawn_coder(draw, k), drawn_coder(draw, m))


def scan_positions(hubs, n):
    """lead - 1, lead and lead + 1, each chunk boundary of the prefix sums
    less one, itself and plus one, and n: those in 1..n."""
    boundaries = range(hubs.lead + 1, n + 2, hubs.chunk)
    return sorted({t + d for t in (hubs.lead, *boundaries) for d in (-1, 0, 1)} & set(
        range(1, n)) | {n})


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_scans_match_the_oracle_and_the_hub_loop(data):
    mode = data.draw(scan_modes())
    aut = mode.automaton
    word = bernoulli_bits(data.draw(st.floats(0.05, 0.95)), data.draw(st.integers(0, 999)),
                          data.draw(st.integers(1, 160)))
    expected = sweep_pure_curve(aut, word)
    cells = data.draw(st.integers(1, 400))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_CHUNK_CELLS", cells)             # chunks of a few letters
        path = force_step(mp, "sums")
        # A block code of one-letter blocks may make a component of
        # macro-edges of two lengths, which the numpy step sweeps.
        hubs = engine._compiled(aut).hubs
        assume(hubs is not None)
        positions = scan_positions(hubs, len(word))
        assert swept_by(aut) == path
        values = engine._sweep(aut, word, positions)
    assert values == [expected[t] for t in positions]


def test_a_component_dies_while_another_lives(monkeypatch):
    # Blocks 00 and 01 spell the first union operand, and 11 ends it: from
    # there on only the k=3 coder's component is reachable.
    mode = union(block_code(["00", "01"]), champ_coder(3))
    aut = mode.automaton
    word = "0001" * 6 + "11" + "011" * 12
    force_step(monkeypatch, "sums")
    monkeypatch.setattr(engine, "_CHUNK_CELLS", 10)
    hubs = engine._compiled(aut).hubs
    assert [k for _, k, _, _, _ in hubs.scans] == [1, 1] and hubs.chunk == 5    # 10 // 2 hubs
    curve = engine._sweep(aut, word, list(range(1, len(word) + 1)))
    assert curve == sweep_pure_curve(aut, word)[1:]
    assert complexity(block_code(["00", "01"]), word) == UNREACHABLE
    assert complexity(block_code(["00", "01"]), word[:24]) < complexity(champ_coder(3), word[:24])
    assert curve[-1] == complexity(champ_coder(3), word) < UNREACHABLE


def test_a_long_gather_into_a_short_loop_with_a_missing_letter(monkeypatch):
    # Hub 0 loops on 0; the chain 111 into hub 4, which loops on 0 only, is
    # three times as long as the loop.  Hub 0's dead cost before the first
    # chunk and the missing window of hub 4 stay unreachable in the scan.
    mode = header_mode(["0"], "111", ["0"])
    aut = mode.automaton
    force_step(monkeypatch, "sums")
    hubs = engine._compiled(aut).hubs
    assert [(k, length, [(n, s) for n, s, _ in gathers])
            for _, k, length, _, gathers in hubs.scans] == [(1, 1, []), (1, 1, [(3, 0)])]
    for cells in (1, 4, 1 << 16):
        monkeypatch.setattr(engine, "_CHUNK_CELLS", cells)
        monkeypatch.setattr(engine, "_sweep_cache", {})
        for word in map("".join, itertools.product("01", repeat=8)):
            assert engine._sweep(aut, word, list(range(1, 9))) == sweep_pure_curve(aut, word)[1:]


@st.composite
def functional_modes(draw):
    """A mode whose hub graph has components of functional maps: the
    reversal of a coder with k = 1..3 (rank-one maps) or the composition of
    two trained coders of one k = 2..3 (mostly gather maps for k = 3, dense
    for k = 2), alone or in a union with a coder.  A coder is trained on
    Bernoulli bits or is a block code of some of the blocks."""
    if draw(st.booleans()):
        mode = reverse_mode(drawn_coder(draw, draw(st.integers(1, 3))))
    else:
        k = draw(st.integers(2, 3))
        mode = compose(drawn_trained_coder(draw, k), drawn_trained_coder(draw, k))
    return union(mode, drawn_coder(draw, draw(st.integers(1, 3)))) if draw(st.booleans()) else mode


def test_functional_scans_match_the_oracle():
    kinds = set()

    # The examples reach each kind that the last assertion asks for.
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(mode=functional_modes(), p=st.floats(0.05, 0.95), seed=st.integers(0, 999),
           length=st.integers(1, 120), cells=st.integers(1, 400))
    @example(mode=reverse_mode(champ_coder(2)), p=0.5, seed=1, length=60, cells=40)
    @example(mode=compose(champ_coder(3), champ_coder(3)), p=0.5, seed=1, length=60, cells=40)
    @example(mode=compose(champ_coder(2), champ_coder(2)), p=0.5, seed=1, length=60, cells=40)
    def check(mode, p, seed, length, cells):
        aut = mode.automaton
        word = bernoulli_bits(p, seed, length)
        expected = sweep_pure_curve(aut, word)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_CHUNK_CELLS", cells)
            path = force_step(mp, "sums")
            hubs = engine._compiled(aut).hubs
            assume(hubs is not None)
            assert swept_by(aut) == path
            positions = scan_positions(hubs, len(word))
            assert engine._sweep(aut, word, positions) == [expected[t] for t in positions]
        kinds.update(table[0].name for _, _, _, table, _ in hubs.scans if table)
    check()
    assert {"gather", "rank-one", "dense"} <= kinds


@pytest.mark.parametrize("make,hubs,components,kinds,length,handoff", [
    (lambda: reverse_mode(champ_coder(4)), 16, 1, {"rank-one"}, 4, 10),
    (lambda: reverse_mode(champ_coder(8)), 256, 1, {"rank-one"}, 8, 1),
    (lambda: compose(champ_coder(4), champ_coder(4)), 31, 47, {"gather"}, 4, 30),
])
def test_reversals_and_compositions_compile_to_functional_maps(make, hubs, components,
                                                             kinds, length, handoff):
    # The largest component's size and L, and the kinds of all components
    # of more than one hub; the maps read back as the macro-edges of the
    # reference walk.  The tail takes over from the numpy step at most 30
    # letters past lead.
    aut = make().automaton
    eng = engine._compiled(aut)
    assert swept_by(aut) == STEPS["sums"]
    largest = max(eng.hubs.scans, key=lambda component: component[1])
    assert (len(eng.hubs.scans), largest[1], largest[2]) == (components, hubs, length)
    assert {table[0].name for _, k, _, table, _ in eng.hubs.scans if k > 1} == kinds
    assert eng.hubs.handoff == handoff
    rows = {(n, w, s, d): c for n, table in reference_walk(aut)[2]
            for w, edges in table.items() for s, d, c in edges}
    read = {}
    for *_, inside, into in scans(eng.hubs):
        read.update({(len(w), w, s, d): c for w, s, d, c in inside})
        read.update({(n, w, s, d): c for n, s, w, d, c in into})
    assert read == rows


def as_matrices(kind, maps):
    """Maps of a kind (`engine._scans`) as min-plus matrices [..., d, s]."""
    if kind == "dense":
        return maps[0]
    index, costs = maps
    if kind == "rotation":                       # hub d from hub (d + index) mod k
        kind, index = "gather", (np.arange(costs.shape[-1]) + index[..., None]) % costs.shape[-1]
    out = np.full(costs.shape + costs.shape[-1:], engine._INF)
    if kind == "gather":                         # hub d from hub index[d]
        np.put_along_axis(out, index[..., None], costs[..., None], -1)
    else:                                        # every hub s to hub index
        index = np.broadcast_to(index[..., None, None], costs.shape[:-1] + (1, costs.shape[-1]))
        np.put_along_axis(out, index, costs[..., None, :], -2)
    return out


def min_plus_reference(a, b):
    return np.minimum((a[..., :, :, None] + b[..., None, :, :]).min(axis=-2), engine._INF)


@pytest.mark.parametrize("kind", ["gather", "dense"])
def test_map_kinds_compose_and_apply_as_min_plus_matrices(kind):
    # Random maps on 5 hubs over 3 rows of 2 residues, with unreachable
    # costs, against their matrices: `then` is the product in the order
    # the maps apply, and `apply` the product with the costs as a column.
    rng = np.random.default_rng(16)
    shape, k = (3, 2), 5

    def costs(*extra):
        cost = rng.integers(0, 9, shape + extra)
        return np.where(rng.random(cost.shape) < 0.3, engine._INF, cost)
    then, apply = {k.name: k for k in engine._COMPONENT_KINDS}[kind].maps
    for _ in range(20):
        first, second = ({"gather": lambda: [rng.integers(0, k, shape + (k,)), costs(k)],
                          "dense": lambda: [costs(k, k)]}[kind]() for _ in range(2))
        x = costs(k)
        assert (as_matrices(kind, then(first, second)) == min_plus_reference(
            as_matrices(kind, second), as_matrices(kind, first))).all()
        assert (apply(first, x) == min_plus_reference(as_matrices(kind, first),
                                                      x[..., None])[..., 0]).all()


def test_rank_one_recurrence_applies_its_maps_as_min_plus_matrices():
    # Random rank-one maps on 5 hubs over 3 rows of 2 residues, with
    # unreachable costs, hub costs before the rows and gathers (or none):
    # each row's hub costs are the product of its maps' matrices with the
    # row before, capped by the gathers.
    rng = np.random.default_rng(16)
    shape, k = (3, 2), 5

    def costs(*extra):
        cost = rng.integers(0, 9, shape + extra)
        return np.where(rng.random(cost.shape) < 0.3, engine._INF, cost)
    for trial in range(20):
        to, weights = rng.integers(0, k, shape), costs(k)
        before = costs(k)[0]                     # [residue, hub]
        entering = costs(k) if trial % 2 else None
        cost = np.zeros((k, 2 + 6), dtype=np.int64)
        cost[:, :2] = before.T
        engine._sweep_rank_one(cost, slice(0, k),
                               (engine._RANK_ONE, to.reshape(-1), weights.reshape(6, k).T),
                               lambda m: np.arange(6),
                               None if entering is None else entering.reshape(6, k).T,
                               cost[:, :2], 2)
        x = before
        for r in range(3):
            x = min_plus_reference(as_matrices("rank-one", [to[r], weights[r]]), x[..., None])[..., 0]
            if entering is not None:
                x = np.minimum(x, entering[r])
            assert (cost[:, 2 + 2 * r:4 + 2 * r].T == x).all()


def first_order_reference(a, b):
    """The recurrence of `_first_order`, row by row, in Python integers."""
    inf = engine._INF
    y = [list(b[0])]
    for r in range(1, len(a)):
        y.append([min(b[r][c], inf if a[r][c] >= inf else min(y[-1][c] + a[r][c], inf))
                  for c in range(len(a[r]))])
    return y


def test_first_order_recurrence_matches_the_row_by_row_reference():
    # Fresh starts (a >= _INF) anywhere, unreachable b, and b up to 2**59,
    # so large that the sums could wrap and the rows are taken one at a
    # time; both ways are reached.
    inf, ways = engine._INF, set()

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(data=st.data())
    def check(data):
        rows, cols = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 3))
        big = data.draw(st.sampled_from([9, 1 << 59]))
        a = [[0] * cols] + [[data.draw(st.sampled_from([0, 1, 2, 5, inf])) for _ in range(cols)]
                            for _ in range(rows - 1)]
        b = [[data.draw(st.one_of(st.integers(0, big), st.just(inf))) for _ in range(cols)]
             for _ in range(rows)]
        y = engine._first_order(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
        assert y.tolist() == first_order_reference(a, b)
        top = max([c for row in b for c in row if c < inf], default=0) + sum(
            c for row in a for c in row if c < inf) + 1
        if any(c >= inf for row in a for c in row):
            ways.add("by rows" if top * (rows + 2) >= inf else "by sums")
    check()
    assert ways == {"by rows", "by sums"}


def trie_coder(code):
    """A block coder of the blocks of `code` (block -> its description
    bits), as `build_block_coder` builds one: the trie of the description
    bits leads from the root to a leaf per block, which spells the block on
    its way back."""
    edges, children, states = [], {}, 1
    for block, bits in sorted(code.items()):
        node = 0
        for bit in bits:
            if (node, bit) not in children:
                children[node, bit] = states
                edges.append((node, states, (bit, EPSILON)))
                states += 1
            node = children[node, bit]
        for i, letter in enumerate(block):
            target = 0 if i == len(block) - 1 else states
            states += target != 0
            edges.append((node, target, (EPSILON, letter)))
            node = target
    aut = LabeledAutomaton(2, (BINARY, BINARY), states, tuple(edges))
    return DescriptionMode(aut, ValuednessCertificate.asserted(states, "test"), name="trie coder")


def fed(mode, chain, target):
    """`mode` and a new hub that reads each letter for one description bit,
    with a chain spelling `chain` from it into the state `target`."""
    aut = mode.automaton
    hub = aut.num_states
    path = [hub, *range(hub + 1, hub + len(chain)), target]
    edges = [(hub, hub, ("1", a)) for a in BINARY]
    edges += [(path[j], path[j + 1], ("1" if j == 0 else EPSILON, a)) for j, a in enumerate(chain)]
    aut = LabeledAutomaton(2, aut.alphabets, hub + len(chain), aut.edges + tuple(edges))
    return DescriptionMode(aut, ValuednessCertificate.unknown(), name="fed")


@st.composite
def rank_one_modes(draw):
    """A mode whose hub graph has a rank-one component of 1 to 5 hubs: the
    reversal of a coder of 1 to 5 drawn blocks of k = 1..3 letters, whose
    leaves are its hubs (the other blocks have no macro-edge); either alone,
    or fed by gathers from a hub that reads every letter, along a drawn
    chain into a drawn state of it; or the header mode, whose second hub
    is one hub that a gather enters."""
    family = draw(st.sampled_from(["reversal", "fed", "header"]))
    if family == "header":
        return header_mode(drawn_blocks(draw, draw(st.integers(1, 3))),
                           draw(st.text("01", min_size=1, max_size=7)),
                           drawn_blocks(draw, draw(st.integers(1, 2))))
    size = draw(st.integers(1, 5))
    k = draw(st.integers(max(1, (size - 1).bit_length()), 3))
    blocks = draw(st.permutations(["".join(b) for b in itertools.product("01", repeat=k)]))[:size]
    mode = reverse_mode(trie_coder(huffman_code({b: draw(st.integers(1, 9)) for b in blocks})))
    if family == "fed":
        mode = fed(mode, draw(st.text("01", min_size=1, max_size=6)),
                   draw(st.integers(0, mode.automaton.num_states - 1)))
    return mode


def test_rank_one_components_match_the_oracle():
    # Every position of words over drawn bits, in chunks of a few letters
    # and more, against the oracle; the sweeps of the rank-one components
    # are watched for the cases below, which the examples must all reach.
    sizes, seen = set(), set()
    sweep = engine._sweep_rank_one

    def watched(cost, members, table, window, entering, before, span):
        _, to, costs = table
        length, width = before.shape[1], cost.shape[1] - span
        codes = window(to.size)
        dst = to[codes]
        # A row whose window has no macro-edge, by its place in the chunk.
        last = width // length - 1
        for i in np.flatnonzero((costs[:, codes] >= engine._INF).all(axis=0)):
            seen.add("first" if i < length else "last" if i // length == last else "inside")
        if (before >= engine._INF).all():
            seen.add("unreachable before")
        sweep(cost, members, table, window, entering, before, span)
        out = cost[members, span:]
        assert (out >= 0).all() and (out <= engine._INF).all()
        if entering is not None:
            y = out[dst, np.arange(width)]
            fresh = np.zeros(width, dtype=bool)
            fresh[length:] = costs[dst[:-length], codes[length:]] >= engine._INF
            if (fresh & (y < engine._INF)).any():
                seen.add("revived")
            others = entering < engine._INF
            others[dst, np.arange(width)] = False
            if others.any():
                seen.add("gather into another hub")
        sizes.add((costs.shape[0], entering is not None))

    def reversal(weights):
        return reverse_mode(trie_coder(huffman_code(weights)))
    three, four = {"11": 1, "01": 8, "10": 1}, {"10": 6, "01": 5, "00": 3, "11": 2}
    five = {"100": 8, "101": 3, "000": 4, "001": 3, "111": 1}

    # The examples reach every case that the last assertions ask for, one
    # for each size of component, alone and fed: words over 0.1 bits in
    # chunks of one letter, and over 0.5 bits in chunks of 40.
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(mode=rank_one_modes(), p=st.floats(0.05, 0.95), seed=st.integers(0, 999),
           length=st.integers(1, 120), cells=st.integers(1, 400))
    @example(mode=fed(reversal({"0": 3}), "01", 1), p=0.5, seed=1, length=40, cells=40)
    @example(mode=reversal({"0": 5, "1": 3}), p=0.1, seed=1, length=40, cells=1)
    @example(mode=fed(reversal({"0": 3, "1": 5}), "110", 2), p=0.1, seed=1, length=40, cells=1)
    @example(mode=reversal(three), p=0.1, seed=1, length=40, cells=1)
    @example(mode=fed(reversal(three), "0", 2), p=0.1, seed=1, length=40, cells=1)
    @example(mode=reversal(four), p=0.1, seed=1, length=40, cells=1)
    @example(mode=fed(reversal(four), "0", 10), p=0.1, seed=1, length=40, cells=1)
    @example(mode=reversal(five), p=0.1, seed=1, length=40, cells=1)
    @example(mode=fed(reversal(five), "0", 15), p=0.1, seed=1, length=40, cells=1)
    def check(mode, p, seed, length, cells):
        aut = mode.automaton
        word = bernoulli_bits(p, seed, length)
        expected = sweep_pure_curve(aut, word)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_CHUNK_CELLS", cells)
            mp.setattr(engine._RANK_ONE, "sweep", watched)
            force_step(mp, "sums")
            hubs = engine._compiled(aut).hubs
            assume(hubs is not None)
            assert engine._sweep(aut, word, list(range(1, len(word) + 1))) == expected[1:]
    check()
    assert {(k, fed) for k in range(1, 6) for fed in (False, True)} - {(1, False)} <= sizes
    assert seen == {"first", "last", "inside", "unreachable before", "revived",
                    "gather into another hub"}


def test_rotation_chains_apply_their_maps_as_min_plus_matrices():
    # Random rotations of 2 to 4 hubs over 3 rows of 2 residues, with
    # missing macro-edges (_INF) or none, and hub costs before the rows
    # that are unreachable in places, all or none, in rows of `cost` that
    # are consecutive or not: each row's hub costs are the product of its
    # maps' matrices with the row before.
    rng = np.random.default_rng(24)
    shape = (3, 2)
    for trial in range(60):
        k = 2 + trial % 3

        def costs(*extra, gaps=0.3):
            cost = rng.integers(0, 9, extra)
            return np.where(rng.random(cost.shape) < gaps, engine._INF, cost)
        shift = rng.integers(0, k, shape)
        weights = costs(*shape, k, gaps=0.3 * (trial % 2))
        before = costs(2, k, gaps=[0.3, 0, 1][trial % 3])                 # [residue, hub]
        members = np.arange(k) if trial % 4 < 2 else np.sort(rng.permutation(k + 2)[:k])
        cost = np.zeros((k + 2, 2 + 6), dtype=np.int64)
        cost[members, :2] = before.T
        engine._sweep_rotation(cost, slice(0, k) if trial % 4 == 0 else members,
                               (engine._ROTATION, shift.reshape(-1), weights.reshape(6, k).T),
                               lambda m: np.arange(6), None, cost[members, :2], 2)
        x = before
        for r in range(3):
            x = min_plus_reference(as_matrices("rotation", [shift[r], weights[r]]),
                                   x[..., None])[..., 0]
            assert (cost[members, 2 + 2 * r:4 + 2 * r].T == x).all()


@st.composite
def rotation_modes(draw):
    """layered_concat(coder, N), N = 1..3, of a block coder of 1 to 5
    drawn blocks of k = 1..3 letters (the other blocks have no
    macro-edge): for N >= 2 the copy roots are a rotation component of N
    hubs, from one description bit per layer."""
    size = draw(st.integers(1, 5))
    k = draw(st.integers(max(1, (size - 1).bit_length()), 3))
    blocks = draw(st.permutations(["".join(b) for b in itertools.product("01", repeat=k)]))[:size]
    coder = trie_coder(huffman_code({b: draw(st.integers(1, 9)) for b in blocks}))
    return layered_concat(coder, draw(st.integers(1, 3)))


def renumbered(mode, order):
    """`mode` with state v renumbered order[v]."""
    aut = mode.automaton
    edges = tuple((int(order[s]), int(order[d]), label) for s, d, label in aut.edges)
    return DescriptionMode(LabeledAutomaton(aut.arity, aut.alphabets, aut.num_states, edges),
                           mode.certificate, name="renumbered")


def as_gather_scans(hubs):
    """Every rotation table of a compiled hub graph as the gather table of
    the same maps, for the min-plus scan."""
    def gather(component):
        members, k, length, table, gathers = component
        if table and table[0] is engine._ROTATION:
            _, shift, costs = table
            table = engine._GATHER, (np.arange(k) + shift[:, None]) % k, costs.T
        return members, k, length, table, gathers
    hubs.scans = list(map(gather, hubs.scans))


def test_rotation_components_match_the_oracle_and_the_gather_scan():
    # Every position of words over drawn bits, in chunks of a few rows of
    # macro-edges each, so that chains cross chunk edges, against the oracle;
    # a copy with renumbered states, its rotation tables swept as gather
    # tables, gives the same values.  The examples reach rotations of 2 and
    # 3 hubs, with and without missing macro-edges, and chains that are
    # unreachable before a chunk; every hub cost stays within 0.._INF.
    seen = set()
    sweep = engine._sweep_rotation

    def watched(cost, members, table, window, entering, before, span):
        if (before >= engine._INF).any():
            seen.add("dead")
        sweep(cost, members, table, window, entering, before, span)
        assert (cost[members, span:] >= 0).all() and (cost[members, span:] <= engine._INF).all()

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(data=st.data())
    def check(data):
        mode = data.draw(rotation_modes())
        aut = mode.automaton
        word = bernoulli_bits(data.draw(st.floats(0.05, 0.95)), data.draw(st.integers(0, 999)),
                              data.draw(st.integers(1, 120)))
        expected = sweep_pure_curve(aut, word)[1:]
        order = data.draw(st.permutations(range(aut.num_states)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_CHUNK_CELLS", data.draw(st.integers(1, 60)))
            mp.setattr(engine._ROTATION, "sweep", watched)
            force_step(mp, "sums")
            hubs = engine._compiled(aut).hubs
            assume(hubs is not None)
            seen.update((k, bool((table[2] >= engine._INF).any())) for _, k, _, table, _ in hubs.scans
                        if table and table[0] is engine._ROTATION)
            positions = list(range(1, len(word) + 1))
            assert engine._sweep(aut, word, positions) == expected
            copy = renumbered(mode, order).automaton
            as_gather_scans(engine._compiled(copy).hubs)
            assert engine._sweep(copy, word, positions) == expected
    check()
    assert {(k, missing) for k in (2, 3) for missing in (False, True)} | {"dead"} <= seen


# A sweep of a chunk holds at most SWEEP_ARRAYS int64 arrays of its
# kind's width (`_Kind.width`) and SWEEP_ROWS of one cell, per letter of
# the chunk: its memory does not grow with the word, nor with a table of
# k**2 cells per window code.  Measured peaks (tracemalloc, numpy 2.4),
# over 8 bytes x width x letters: gather 6.0-6.1, rotation 3.1-4.2, dense
# 2.7, one-hub 1.1, rank-one 0.1 at 256 hubs; the rank-one root of
# layered(coder4, 300), one hub, 8-9 in full chunks.
SWEEP_ARRAYS, SWEEP_ROWS = 8, 16
# Modes whose components have many hubs where their kind allows it, the
# (kind, hubs) of each, and the letters of a word that fills a chunk.
WIDE_KINDS = {
    "coder8": (lambda: champ_coder(8), {("one-hub", 1)}, 20_000),
    "layered(coder4, 300)": (lambda: layered_concat(champ_coder(4), 300),
                             {("rotation", 300), ("rank-one", 1)}, 3_000),
    "compose(coder4, coder4)": (lambda: compose(champ_coder(4), champ_coder(4)),
                                {("gather", 31)}, 3_000),
    "reverse(coder8)": (lambda: reverse_mode(champ_coder(8)), {("rank-one", 256)}, 3_000),
    "compose(coder2, coder2)": (lambda: compose(champ_coder(2), champ_coder(2)),
                                {("dense", 4), ("one-hub", 1)}, 10_000),
}


@pytest.mark.parametrize("name", sorted(WIDE_KINDS))
def test_each_kind_sweeps_within_its_chunk(name):
    # Every chunk's sweep of every component stays within the bound above,
    # over the letters of a full chunk, and the rotation sweep of
    # layered(coder4, 300)'s copy roots, one component of 300 hubs, gives
    # the values of the gather scan.
    make, kinds, n = WIDE_KINDS[name]
    mode = make()
    aut = mode.automaton
    word = bernoulli_bits(0.9, 5, n)
    positions = list(range(100, n + 1, 100))
    peaks, seen = [], set()

    def measured(kind, sweep):
        def sweep_measured(cost, members, table, window, entering, before, span):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            sweep(cost, members, table, window, entering, before, span)
            peak = tracemalloc.get_traced_memory()[1] - start
            peaks.append((peak, kind.width(len(before)), cost.shape[1] - span))
            seen.add((kind.name, len(before)))
        return sweep_measured
    with pytest.MonkeyPatch.context() as mp:
        for kind in engine._COMPONENT_KINDS:
            mp.setattr(kind, "sweep", measured(kind, kind.sweep))
        force_step(mp, "sums")
        hubs = engine._compiled(aut).hubs
        tracemalloc.start()
        try:
            values = engine._sweep(aut, word, positions)
        finally:
            tracemalloc.stop()
    assert seen == kinds and values[-1] < UNREACHABLE
    # A chunk holds _CHUNK_CELLS cells of its widest array, padded to a
    # multiple of the period.
    letters = hubs.chunk + hubs.period
    assert len(peaks) > len(kinds) and all(
        width * chunk <= engine._CHUNK_CELLS + width * hubs.period for _, width, chunk in peaks)
    assert all(peak <= 8 * letters * (SWEEP_ARRAYS * width + SWEEP_ROWS)
               for peak, width, _ in peaks), peaks
    if ("rotation", 300) in kinds:
        with pytest.MonkeyPatch.context() as mp:
            force_step(mp, "sums")
            copy = renumbered(mode, range(aut.num_states)).automaton
            as_gather_scans(engine._compiled(copy).hubs)
            assert engine._sweep(copy, word, positions) == values


@pytest.mark.parametrize("make,hubs,chunk", [
    # A cost row per hub is the widest array beside gather and rank-one maps.
    (lambda: layered_concat(skewed_coder(4), 2), 4, 16_384),
    (lambda: reverse_mode(champ_coder(8)), 256, 256),
    # The 4 x 4 maps of a dense component are wider than the 5 cost rows.
    (lambda: compose(champ_coder(2), champ_coder(2)), 5, 4_096),
])
def test_a_chunk_holds_its_widest_array_per_letter(make, hubs, chunk):
    compiled = engine._compiled(make().automaton).hubs
    assert (len(compiled.ids), compiled.chunk) == (hubs, chunk)


def test_layered_relays_match_the_relay_free_closure(monkeypatch):
    mode = layered_concat(champ_coder(6), 2)
    source = champernowne_bits(4_000)[1_000:3_000]
    aut = mode.automaton
    _, (_, relays, _), _, _ = engine._closure_into(aut.num_states,
                                                   *engine._classify_edges(aut))
    assert set(relays.tolist()) == {aut.num_states - 1}  # the hub
    with_relays = complexity_curve(mode, source, len(source), 1).samples
    monkeypatch.setattr(engine, "_relays", lambda outdeg, indeg: [])
    monkeypatch.setattr(engine, "_sweep_cache", {})
    assert complexity_curve(mode, source, len(source), 1).samples == with_relays


def test_layered_closure_is_linear_in_the_coder_closure():
    # The four copies each close like the coder; the hub, a relay, adds
    # folded edges from the states that reach it instead of n^2 entries.
    def edges_per_letter(mode):
        by_letter = engine._compiled(mode.automaton).by_letter
        return {a: len(edges[0] if isinstance(edges, tuple) else edges)
                for a, edges in by_letter.items()}
    for k in range(2, 7):
        coder = champ_coder(k)
        base = edges_per_letter(coder)
        for a, count in edges_per_letter(layered_concat(coder, 2)).items():
            assert count <= 8 * base[a], (k, a)


def wide_code_mode():
    """A prefix code of 64 object letters, read from 3, 5 or 7 description
    bits along a trie (canonical code lengths 2 x 3, 10 x 5 and 52 x 7)."""
    letters = [chr(ord("0") + i) for i in range(64)]
    edges, states, code, size = [], 1, 0, 3
    for i, length in enumerate([3] * 2 + [5] * 10 + [7] * 52):
        code, size = code << (length - size), length
        bits, at = format(code, f"0{length}b"), 0
        for bit in bits[:-1]:
            step = next((d for s, d, (b, _) in edges if s == at and b == bit), None)
            if step is None:
                edges.append((at, states, (bit, EPSILON)))
                step, states = states, states + 1
            at = step
        edges.append((at, 0, (bits[-1], letters[i])))
        code += 1
    aut = LabeledAutomaton(2, (BINARY, tuple(letters)), states, edges)
    return DescriptionMode(aut, ValuednessCertificate.asserted(1, "test"))


@pytest.mark.parametrize("name", ["default", *sorted(STEPS)])
def test_layered_mode_over_a_wide_alphabet_matches_the_reference(monkeypatch, name):
    # The closure table holds 64 letters' segments, pruned and folded at
    # once; the default path hands the word to the prefix sums.
    aut = layered_concat(wide_code_mode(), 2).automaton
    assert len(aut.alphabets[-1]) == 64
    path = force_step(monkeypatch, name) if name in STEPS else STEPS["python-sums"]
    rng = random.Random(64)
    word = "".join(rng.choice(aut.alphabets[-1][:12] * 5 + aut.alphabets[-1]) for _ in range(80))
    assert engine._sweep(aut, word, list(range(len(word) + 1))) == sweep_pure_curve(aut, word)
    assert_swept_by(aut, path)
    hubs = engine._compiled(aut).hubs
    assert hubs is None or len(word) - hubs.lead >= hubs.handoff


# --- dominance pruning and relay hubs -------------------------------------------

def edge_lists(eng):
    """A compiled sweep's closure edges per letter as lists of (s, q, c), in
    the order of its edge arrays or lists."""
    return {a: list(zip(*(col.tolist() for col in edges))) if isinstance(edges, tuple)
            else edges for a, edges in eng.by_letter.items()}


NO_DOMINANCE = {
    "identity": identity_mode,
    "unary(3)": lambda: unary_compressor(3),
    **{f"coder{k}": (lambda k=k: champ_coder(k)) for k in range(1, 9)},
    "wall(3)": lambda: wall_mode(3),
    "joint": lambda: joint(identity_mode(), splitter_mode(parity_rule())),
    "reverse(coder4)": lambda: reverse_mode(champ_coder(4)),
}


@pytest.mark.parametrize("name", sorted(NO_DOMINANCE))
def test_pruning_leaves_modes_without_dominance_alone(monkeypatch, name):
    # No intra edge joins two entered states, so there is nothing to scan,
    # and the compiled edges are those of a compile without pruning.
    aut = NO_DOMINANCE[name]().automaton
    assert closure_lists(engine._closure_into(aut.num_states,
                                              *engine._classify_edges(aut)))[2] == []
    pruned = edge_lists(engine._compiled(aut))
    monkeypatch.setattr(engine, "_prune", lambda edges, dominant, near: edges)
    monkeypatch.setattr(engine, "_sweep_cache", {})
    assert edge_lists(engine._compiled(aut)) == pruned


def twin_mode():
    """Reading 0 from state 0 enters states 1 and 2 at one description bit
    each; 1 and 2 reach each other over free epsilon edges, so each
    dominates the other.  State 2 reads 1 at one more bit than state 1."""
    return one_bit_mode(((0, 1, ("1", "0")), (0, 2, ("1", "0")),
                         (1, 2, (EPSILON, EPSILON)), (2, 1, (EPSILON, EPSILON)),
                         (1, 0, (EPSILON, "1")), (2, 0, ("1", "1"))), 3)


def test_mutual_dominance_keeps_one_of_the_two_states(forced_step, monkeypatch):
    mode = twin_mode()
    aut = mode.automaton
    edges = engine._classify_edges(aut)
    assert closure_lists(engine._closure_into(3, *edges))[2] == [(1, 2, 0), (2, 1, 0)]
    assert sorted(q for s, q, _ in edge_lists(engine._compiled(aut))["0"] if s == 0) in ([1], [2])
    values = {word: engine._sweep(aut, word, list(range(len(word) + 1)))
              for word in all_words(7)}
    for word, curve in values.items():
        assert curve == sweep_pure_curve(aut, word)
    assert_swept_by(aut, forced_step)
    monkeypatch.setattr(engine, "_prune", lambda edges, dominant, near: edges)
    monkeypatch.setattr(engine, "_sweep_cache", {})
    assert sorted(q for s, q, _ in edge_lists(engine._compiled(aut))["0"] if s == 0) == [1, 2]
    assert all(engine._sweep(aut, word, list(range(len(word) + 1))) == curve
               for word, curve in values.items())
    # Dominance is never measured at a relay.
    monkeypatch.setattr(engine, "_relays", lambda outdeg, indeg: [1])
    assert closure_lists(engine._closure_into(3, *edges))[2] == []


@pytest.mark.parametrize("train", [champ_coder, skewed_coder])
def test_layered_coder_compiles_to_three_chain_hubs_and_the_relay(train):
    coder = train(4)
    aut = layered_concat(coder, 2).automaton
    eng = engine._compiled(aut)
    assert swept_by(aut) == STEPS["sums"]
    hubs = eng.hubs
    n = coder.automaton.num_states
    # The roots of copies 1 and 2 and of the final copy, and the relay; the
    # window tables read back as the reference walk's macro-edges.
    assert hubs.ids.tolist() == [n, 2 * n, 3 * n, 4 * n]
    assert hubs.span == 4
    full = reference_walk(aut)[2]
    assert [length for length, _ in full] == [1, 2, 3, 4] and full_tables(hubs) == full
    # Components in topological order: the two copy roots, then the relay,
    # which their relay exits of 1 to 4 letters enter, then the final copy's
    # root, which the relay enters over 1 to 4 letters.
    assert [(hubs.ids[members].tolist(), k, length, [(m, s) for m, s, _ in gathers])
            for members, k, length, _, gathers in hubs.scans] == [
        ([n, 2 * n], 2, 4, []),
        ([4 * n], 1, 0, [(m, s) for m in range(1, 5) for s in (0, 1)]),
        ([3 * n], 1, 4, [(m, 3) for m in range(1, 5)])]
    # The copy roots spell each word into one root each, the same root or
    # the other for both: rotation maps.  The final root is one hub that
    # gathers enter: a rank-one component.  The tail pays back its fixed
    # cost against the numpy step after 23 letters.
    assert [table and table[0].name for _, _, _, table, _ in hubs.scans] == [
        "rotation", None, "rank-one"]
    assert hubs.handoff == 23


@pytest.mark.parametrize("make,path", [
    # Gathers only: the tail is estimated at about 8 us a letter, the numpy
    # step at 90 for its 21,900 closure edges.
    (lambda: compose(champ_coder(5), champ_coder(5)), "sums"),
    # One dense component of 16 hubs: its min-plus scan is estimated at
    # about 9.5 us a letter, the numpy step at 3.5 for its 132 edges.
    (lambda: reverse_mode(compose(champ_coder(1), champ_coder(3))), "numpy"),
])
def test_the_estimate_routes_by_the_cost_of_each_kind_of_map(make, path):
    aut = make().automaton
    assert swept_by(aut) == STEPS[path]
    word = champernowne_bits(2_000)[1_234:1_434]
    assert engine._sweep(aut, word, list(range(len(word) + 1))) == sweep_pure_curve(aut, word)


def test_layered_k8_coder_and_a_union_of_coders_take_the_prefix_sums():
    # Components of 2 hubs and of 1 (span 8), and two one-hub components.
    for mode in (layered_concat(champ_coder(8), 2), union(champ_coder(4), champ_coder(8))):
        assert swept_by(mode.automaton) == STEPS["sums"]


def test_compose_of_coders_closure_is_pruned():
    eng = engine._compiled(compose(champ_coder(4), champ_coder(4)).automaton)
    assert max(len(srcs) for srcs, _, _ in eng.by_letter.values()) <= 4_000


def test_relay_tables_are_charged_to_the_compile_budget(monkeypatch):
    # The relay 2 is a hub; its macro-edge "10" to hub 1 and the relay exit
    # of state 0 ("1", then "0" into the relay) cost two each: the walk
    # (`_macro_edges`) fails at a budget of 3 and ends at 4.  The window
    # tables of the two macro-edges need 4 cells more.
    mode = one_bit_mode(((0, 1, ("0", "0")), (1, 2, ("1", EPSILON)),
                         (2, 0, (EPSILON, "1"))), 3)
    aut = mode.automaton
    monkeypatch.setattr(engine, "_relays", lambda outdeg, indeg: [2])
    force_step(monkeypatch, "numpy")
    arrays = engine._compiled(aut).by_letter
    walks, walk = [], engine._macro_edges
    monkeypatch.setattr(engine, "_macro_edges", lambda *args: walks.append(walk(*args)) or walks[-1])
    for budget in (3, 4, 7, 8):
        monkeypatch.setattr(engine, "_NORMALIZE_BUDGET", budget)
        hubs = engine._Hubs.compile(3, closure_table(arrays), tuple(arrays), {2}, engine._Stages())
        assert (walks[-1] is None, hubs is None) == (budget < 4, budget < 8)
    # The macro-edges (length, code, src hub, dst hub, cost): "10" is 2.
    assert [col.tolist() for col in walks[-1][0]] == [[2, 2], [2, 2], [1, 1], [0, 1], [1, 2]]
    assert hubs.ids.tolist() == [1, 2]
    assert full_tables(hubs) == [(2, {"10": [(1, 0, 1), (1, 1, 2)]})]


def test_relay_tables_past_the_budget_fall_back_to_numpy(monkeypatch):
    # The macro-edges between the chain hubs and out of the relay fit in
    # the budget; with the relay's tables they do not.
    mode = layered_concat(champ_coder(4), 2)
    aut = mode.automaton
    relay = aut.num_states - 1
    source = champernowne_bits(3_000)[1_000:]
    expected = complexity_curve(mode, source, len(source), 100).samples
    arrays = engine._compiled(aut).by_letter
    without_exits = {a: tuple(col[dst != relay] for col in (srcs, dst, cost))
                     for a, (srcs, dst, cost) in arrays.items()}
    monkeypatch.setattr(engine, "_NORMALIZE_BUDGET", 400)
    stages = engine._Stages()
    assert engine._Hubs.compile(aut.num_states, closure_table(without_exits), tuple(arrays),
                                {relay}, stages) is not None
    monkeypatch.setattr(engine, "_sweep_cache", {})
    assert swept_by(aut) == STEPS["numpy"]
    assert complexity_curve(mode, source, len(source), 100).samples == expected


# --- the hub compile against a walk one state at a time --------------------------

@st.composite
def hub_graphs(draw):
    """Closure edge arrays {letter: (srcs, dsts, costs)} of a random hub
    graph, its state count and a set of relays.

    Over an alphabet of one, two or three letters, a few hubs send chains
    of one to twelve letters to a hub, to a state of an earlier chain
    (chains merge) or through a path of single-exit states into a new
    cycle of them, numbered above the path; paths of states that no edge
    enters lead in (peeled over several rounds); random edges add
    branching, and random states, some of them on chains, become relays
    with edges into them.
    """
    letters = draw(st.sampled_from([("0",), BINARY, ("0", "1", "2")]))
    edges, states = [], draw(st.integers(1, 3))
    cost = st.integers(0, 2)

    def walk(start, length, end):
        nonlocal states
        path = [start, *range(states, states + length - 1), end]
        states += length - 1
        for a, b in zip(path, path[1:]):
            edges.append((a, b, draw(st.sampled_from(letters)), draw(cost)))
    for _ in range(draw(st.integers(0, 6))):
        start = draw(st.integers(0, states - 1))
        kind = draw(st.sampled_from(["hub", "merge", "cycle"]))
        if kind == "cycle":
            # A path of single-exit states, numbered below the cycle, leads in.
            size, tail = draw(st.integers(1, 12)), draw(st.integers(0, 2))
            ring = list(range(states + tail, states + tail + size))
            entry = draw(st.sampled_from(ring))
            walk(start, tail + 1, entry)
            states += size
            for a, b in zip(ring, ring[1:] + ring[:1]):
                edges.append((a, b, draw(st.sampled_from(letters)), draw(cost)))
        else:
            end = draw(st.integers(0, states - 1))
            walk(start, draw(st.integers(1, 12)), end if kind == "merge" else 0)
    for _ in range(draw(st.integers(0, 2))):
        states += 1
        walk(states - 1, draw(st.integers(1, 3)), draw(st.integers(0, states - 2)))
    state = st.integers(0, states - 1)
    for _ in range(draw(st.integers(0, 3))):
        edges.append((draw(state), draw(state), draw(st.sampled_from(letters)), draw(cost)))
    relays = set(draw(st.lists(state, max_size=3)))
    for r in relays:
        for _ in range(draw(st.integers(0, 3))):
            edges.append((draw(state), r, draw(st.sampled_from(letters)), draw(cost)))
    by_letter = {a: tuple(np.array([e[i] for e in edges if e[2] == a], dtype=np.int64)
                          for i in (0, 1, 3)) for a in letters}
    return states, by_letter, relays


def closure_table(by_letter):
    """The closure table (letter, source, target, cost) of closure edge
    arrays {letter: (srcs, dsts, costs)}, sorted by letter as they come."""
    return np.concatenate([np.array([np.full_like(edges[0], a), *edges])
                           for a, edges in enumerate(by_letter.values())], axis=1)


def reference_walk(aut):
    """`hub_walk_reference` of the closure edges that `aut` compiles to,
    with its relays as hubs, at the compile budget."""
    relays = engine._closure_into(aut.num_states, *engine._classify_edges(aut))[3]
    by_letter = {a: tuple(np.array(col, dtype=np.int64)
                          for col in (zip(*edges) if edges else ((), (), ())))
                 for a, edges in edge_lists(engine._compiled(aut)).items()}
    return hub_walk_reference(aut.num_states, by_letter, set(relays.tolist()),
                              engine._NORMALIZE_BUDGET)


def spelled(hubs, code: int, n: int) -> str:
    """The word of n letters whose code is `code` in a compiled `_Hubs`."""
    letters = hubs.alphabet                      # in rank order
    return "".join(letters[code // len(letters) ** i % len(letters)] for i in reversed(range(n)))


def full_tables(hubs):
    """The macro-edges of a compiled `_Hubs`, read back from its window
    tables, as `hub_walk_reference` gives them."""
    full = {}
    for _, _, _, inside, into in scans(hubs):
        for n, w, s, d, c in [(len(w), w, s, d, c) for w, s, d, c in inside] + [
                (n, w, s, d, c) for n, s, w, d, c in into]:
            full.setdefault(n, {}).setdefault(w, []).append((s, d, c))
    return sorted((n, {w: sorted(edges) for w, edges in table.items()})
                  for n, table in full.items())


def part_tables(hubs):
    """`part` of a compiled `_Hubs`, spelled, as `hub_walk_reference` gives it."""
    return [(j, {spelled(hubs, code, j): sorted(entries) for code, entries in table.items()})
            for j, table in hubs.part]


def hub_tables(hubs):
    """A compiled `_Hubs` as `hub_tables_reference` gives it, after checking
    that its components come in a topological order."""
    if hubs is None:
        return None
    return hubs.ids.tolist(), hubs.lead, full_tables(hubs), part_tables(hubs), scans(hubs)


def scans(hubs):
    """`_Hubs.scans` as `scans_reference` gives it: the window tables read
    back as macro-edges, with hubs numbered as in `hubs.ids`."""
    order = {}
    out = []
    for c, (members, k, length, table, gathers) in enumerate(hubs.scans):
        members = np.arange(len(hubs.ids))[members].tolist()
        assert len(members) == k
        order.update(dict.fromkeys(members, c))
        kind, *arrays = table or (None,)
        kind = kind and kind.name
        edges = []                               # (code, local src, local dst, cost)
        if kind == "one-hub":
            costs, missing = arrays
            edges = [(code, 0, 0, cost) for code, cost in enumerate(costs.tolist())
                     if missing is None or not missing[code]]
        elif kind == "gather":
            src, costs = arrays
            edges = [(code, int(src[code, d]), d, int(costs[code, d]))
                     for code, d in zip(*np.nonzero(costs < engine._INF))]
        elif kind == "rotation":
            shift, costs = arrays
            edges = [(code, (d + int(shift[code])) % k, d, int(costs[d, code]))
                     for d, code in zip(*np.nonzero(costs < engine._INF))]
        elif kind == "rank-one":
            dst, costs = arrays
            edges = [(code, s, int(dst[code]), int(costs[s, code]))
                     for s, code in zip(*np.nonzero(costs < engine._INF))]
        elif kind == "dense":
            [costs] = arrays
            edges = [(code, s, d, int(costs[code, d, s]))
                     for code, d, s in zip(*np.nonzero(costs < engine._INF))]
        inside = [(spelled(hubs, code, length), members[s], members[d], cost)
                  for code, s, d, cost in edges]
        into = [(n, s, spelled(hubs, code, n), members[d], int(gather[d, code]))
                for n, s, gather in gathers for d, code in zip(*np.nonzero(gather < engine._INF))]
        assert all(order[s] < c for _, s, _, _, _ in into)
        out.append((tuple(members), length, kind, sorted(inside), sorted(into)))
    return sorted(out)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_hub_compile_matches_the_reference_walk(data):
    # A hub graph compiles exactly where the reference has window tables.
    num_states, by_letter, relays = data.draw(hub_graphs())
    budget = data.draw(st.sampled_from([engine._NORMALIZE_BUDGET, 2, 5, 9, 14, 20, 30]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_NORMALIZE_BUDGET", budget)
        hubs = engine._Hubs.compile(num_states, closure_table(by_letter), tuple(by_letter),
                                    relays, engine._Stages())
    expected = hub_tables_reference(num_states, by_letter, relays, budget)
    assert hub_tables(hubs) == (None if expected is None or expected[-1] is None else expected)
