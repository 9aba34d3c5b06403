"""Independent oracles and generators shared by the test modules.

Everything here is deliberately brute-force: enumeration-based minimum
description lengths, exact rational interval checks, and hand-rolled
counting, so the fast implementations are checked against code that
shares nothing with them.
"""

import math
import random

from autokolm.automaton import (
    EPSILON,
    LabeledAutomaton,
    enumerate_relation,
)
from autokolm.constructions import SelectionRule
from autokolm.errors import BudgetExceeded
from autokolm.modes import (
    BINARY,
    DescriptionMode,
    PairDescriptionMode,
    ValuednessCertificate,
    eps_cycle_check,
)

ALPHA = BINARY


def random_word(rng: random.Random, max_len: int, min_len: int = 0) -> str:
    n = rng.randint(min_len, max_len)
    return "".join(rng.choice("01") for _ in range(n))


def random_automaton(rng: random.Random, arity: int = 2, max_states: int = 5,
                     max_edges: int = 9, eps_rate: float = 0.35) -> LabeledAutomaton:
    states = rng.randint(1, max_states)
    n_edges = rng.randint(1, max_edges)
    edges = []
    for _ in range(n_edges):
        label = tuple(
            EPSILON if rng.random() < eps_rate else rng.randrange(2)
            for _ in range(arity))
        edges.append((rng.randrange(states), rng.randrange(states), label))
    return LabeledAutomaton(arity=arity, alphabets=(ALPHA,) * arity,
                            num_states=states, edges=tuple(edges))


def random_finite_mode(rng: random.Random, max_states: int = 5,
                       max_edges: int = 9, arity: int = 2):
    """Random automaton that passes the structural unboundedness check;
    a DescriptionMode for arity 2, a PairDescriptionMode for arity 3."""
    kind = DescriptionMode if arity == 2 else PairDescriptionMode
    while True:
        aut = random_automaton(rng, arity, max_states, max_edges)
        if eps_cycle_check(aut) is None:
            return kind(aut, ValuednessCertificate.unknown(), name="random")


def sweep_pure(aut: LabeledAutomaton, word: str):
    """Reference K: an uncompiled layer-by-layer fixpoint sweep.

    Every state may start at cost 0; before each object letter the
    epsilon-object edges are relaxed to a fixpoint, then the edges
    reading that letter advance one layer.  Weight is the number of
    non-epsilon description components on an edge.
    """
    if aut.num_states == 0:
        return math.inf
    obj = aut.arity - 1
    symbol = {s: i for i, s in enumerate(aut.alphabets[obj])}
    weighted = [(src, dst, label[obj],
                 sum(1 for t in range(obj) if label[t] is not EPSILON))
                for src, dst, label in aut.edges]
    dist = [0] * aut.num_states
    for ch in word:
        changed = True
        while changed:
            changed = False
            for src, dst, letter, w in weighted:
                if letter is EPSILON and dist[src] + w < dist[dst]:
                    dist[dst] = dist[src] + w
                    changed = True
        letter_here = symbol[ch]
        nd = [math.inf] * aut.num_states
        for src, dst, letter, w in weighted:
            if letter == letter_here and dist[src] + w < nd[dst]:
                nd[dst] = dist[src] + w
        dist = nd
    return min(dist)


def brute_force_k_table(aut: LabeledAutomaton, obj_max: int,
                        budget: int = 1_500_000) -> dict:
    """Minimum description length per object, by plain enumeration.

    The description cap (obj_max + 1) * states is exhaustive: a path
    spelling x with more description letters repeats a (state, object
    position) pair, and the cycle between can be cut without changing x.
    """
    desc_cap = (obj_max + 1) * aut.num_states
    table = {}
    for p, x in enumerate_relation(aut, (desc_cap, obj_max), budget=budget):
        if len(x) <= obj_max:
            table[x] = min(table.get(x, math.inf), len(p))
    return table


def compose_join_oracle(a1: LabeledAutomaton, a2: LabeledAutomaton,
                        cap: int, budget: int = 1_500_000) -> set:
    """Brute-force relation join of a1's last tape with a2's first tape,
    over an explicit middle word; every other tape is capped at `cap`.

    The middle cap grows until the join stabilizes; a removable-cycle
    argument guarantees the true join is reached eventually, and the
    caller treats a failure to stabilize as a budget problem.
    """
    prev = None
    for mid_cap in (6, 10, 14, 18):
        r1 = enumerate_relation(a1, (cap,) * (a1.arity - 1) + (mid_cap,),
                                budget=budget)
        r2 = enumerate_relation(a2, (mid_cap,) + (cap,) * (a2.arity - 1),
                                budget=budget)
        by_mid = {}
        for t in r1:
            by_mid.setdefault(t[-1], set()).add(t[:-1])
        join = set()
        for t in r2:
            for head in by_mid.get(t[0], ()):
                join.add(head + t[1:])
        if prev is not None and join == prev:
            return join
        prev = join
    raise BudgetExceeded("composition join did not stabilize", 18)


def layered_concat_quadratic(m: DescriptionMode, n_layers: int) -> LabeledAutomaton:
    """Reference layered concatenation with direct jumps: one (1, eps)
    edge from every layer-N state to every state of the final copy."""
    aut = m.automaton
    zero = aut.alphabets[0].index("0")
    one = aut.alphabets[0].index("1")
    n, N = aut.num_states, n_layers
    extra = N + 1
    edges = []
    for s, d, (desc, obj) in aut.edges:
        if desc is EPSILON:
            edges += [(c * n + s, c * n + d, (desc, obj)) for c in range(N + 2)]
        else:
            edges += [(c * n + s, (c + 1) * n + d, (desc, obj)) for c in range(N)]
            edges.append((extra * n + s, extra * n + d, (desc, obj)))
    for v in range(n):
        edges.append((N * n + v, v, (zero, EPSILON)))
        edges += [(N * n + v, extra * n + w, (one, EPSILON)) for w in range(n)]
    return LabeledAutomaton(arity=2, alphabets=aut.alphabets,
                            num_states=(N + 2) * n, edges=tuple(edges))


def wall_pair_realizable(c: int, x: str, y: str) -> bool:
    """Exact interval consistency: is (x, y) a prefix pair of expansions
    of frac(g) and frac(c*g) for some real g?

    g ranges over the closed dyadic cell of x; c*g must meet an integer
    shift of the closed cell of y.  All arithmetic is integer.
    """
    n = len(x)
    if len(y) != n:
        return False
    X = int(x, 2) if x else 0
    Y = int(y, 2) if y else 0
    for r in range(c + 1):
        lo = r * (1 << n) + Y
        if c * X <= lo + 1 and lo <= c * X + c:
            return True
    return False


def random_rule(rng: random.Random, max_states: int = 6) -> SelectionRule:
    states = rng.randint(1, max_states)
    transitions = tuple(
        (rng.randrange(states), rng.randrange(states)) for _ in range(states))
    accepting = frozenset(s for s in range(states) if rng.random() < 0.5)
    return SelectionRule(num_states=states, initial=rng.randrange(states),
                         accepting=accepting, transitions=transitions)


def offset_class_counts(bits: str, n: int, k: int) -> dict:
    """Manual sliding-block counts grouped by start position mod k."""
    groups = [dict() for _ in range(k)]
    for i in range(n - k + 1):
        block = bits[i:i + k]
        g = groups[i % k]
        g[block] = g.get(block, 0) + 1
    return groups


# Selection rules with known density class on random input, for the
# classifier-versus-simulation comparison.

def all_accepting_rule() -> SelectionRule:
    return SelectionRule(1, 0, frozenset({0}), ((0, 0),))


def none_accepting_rule() -> SelectionRule:
    return SelectionRule(1, 0, frozenset(), ((0, 0),))


def parity_rule() -> SelectionRule:
    return SelectionRule(2, 0, frozenset({0}), ((1, 1), (0, 0)))


def prefix_shorter_than_rule(limit: int) -> SelectionRule:
    """Accept prefixes of length < limit; afterwards a dead sink."""
    states = limit + 1
    transitions = tuple((min(s + 1, limit), min(s + 1, limit))
                        for s in range(states))
    return SelectionRule(states, 0, frozenset(range(limit)), transitions)


def suffix_rule(pattern: str) -> SelectionRule:
    """Accept prefixes ending with the given pattern (KMP-style DFA)."""
    m = len(pattern)
    states = m + 1

    def step(s, ch):
        text = pattern[:min(s, m)] + ch
        for length in range(min(len(text), m), -1, -1):
            if text.endswith(pattern[:length]):
                return length
        return 0

    transitions = tuple((step(s, "0"), step(s, "1")) for s in range(states))
    return SelectionRule(states, 0, frozenset({m}), transitions)


def ones_count_mod_rule(m: int, residue: int) -> SelectionRule:
    transitions = tuple((s, (s + 1) % m) for s in range(m))
    return SelectionRule(m, 0, frozenset({residue}), transitions)


def branch_rule(accept_left: bool, accept_right: bool) -> SelectionRule:
    """First bit picks one of two absorbing loops; acceptance per branch."""
    accepting = set()
    if accept_left:
        accepting.add(1)
    if accept_right:
        accepting.add(2)
    return SelectionRule(3, 0, frozenset(accepting), ((1, 2), (1, 1), (2, 2)))


def transient_accept_rule() -> SelectionRule:
    """Accepting states only before absorption; finite on any input."""
    return SelectionRule(3, 0, frozenset({0, 1}), ((1, 1), (2, 2), (2, 2)))
