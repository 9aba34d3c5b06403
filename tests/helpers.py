"""Independent oracles and generators shared by the test modules.

Everything here is deliberately brute-force: enumeration-based minimum
description lengths, exact rational interval checks, and hand-rolled
counting, so the fast implementations are checked against code that
shares nothing with them.
"""

import math
import random
from collections import deque
from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

import numpy as np
from hypothesis import strategies as st

from autokolm.automaton import (
    EPSILON,
    LabeledAutomaton,
    enumerate_relation,
)
from autokolm.complexity import complexity
from autokolm.constructions import SelectionRule, selected_counts, selection_marks
from autokolm.errors import BudgetExceeded, ContractError, FormatError, InputRejected
from autokolm.modes import (
    BINARY,
    DescriptionMode,
    PairDescriptionMode,
    ValuednessCertificate,
    eps_cycle_check,
)
from autokolm.normality import BlockHistogram, huffman_code, smoothed_counts

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
            EPSILON if rng.random() < eps_rate else ALPHA[rng.randrange(2)]
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


def superadditivity_check(mode: DescriptionMode, x: str, y: str) -> bool:
    """Does K(xy) >= K(x) + K(y) hold?  Unreachable counts as +infinity."""
    return complexity(mode, x + y) >= complexity(mode, x) + complexity(mode, y)


def check_word(aut: LabeledAutomaton, tape: int, word: str) -> None:
    """Raise InputRejected on the first symbol of word not in the tape's alphabet."""
    bad = word.translate(dict.fromkeys(map(ord, aut.alphabets[tape])))
    if bad:
        raise InputRejected(f"symbol {bad[0]!r} not in alphabet of tape {tape}")


def read_relation_contains(aut: LabeledAutomaton, words: Sequence[str]) -> bool:
    """Decide whether some directed path spells exactly the given words.

    Dynamic programming over (state, per-tape position) configurations
    with free start and end; the empty path witnesses the all-empty
    tuple whenever the automaton has at least one state.
    """
    if len(words) != aut.arity:
        raise ContractError(f"expected {aut.arity} words, got {len(words)}")
    for t, w in enumerate(words):
        check_word(aut, t, w)
    goal = tuple(map(len, words))
    if aut.num_states == 0:
        return False
    if goal == (0,) * aut.arity:
        return True

    adj = aut.out_edges()
    seen = set()
    work = deque()
    zero = (0,) * aut.arity
    for s in range(aut.num_states):
        seen.add((s, zero))
        work.append((s, zero))
    while work:
        state, pos = work.popleft()
        for dst, label in adj[state]:
            npos = _advance(words, pos, label)
            if npos is None:
                continue
            if npos == goal:
                return True
            cfg = (dst, npos)
            if cfg not in seen:
                seen.add(cfg)
                work.append(cfg)
    return False


def _advance(words, pos, label):
    """Next position vector after reading `label`, or None on mismatch."""
    out = []
    for t, comp in enumerate(label):
        p = pos[t]
        if comp is EPSILON:
            out.append(p)
        else:
            if p >= len(words[t]) or words[t][p] != comp:
                return None
            out.append(p + 1)
    return tuple(out)


@dataclass(frozen=True)
class WallPair:
    """Exact expansion prefixes of frac(p/q) and frac(c*p/q).

    When a value is dyadic it has two expansions; alt_x / alt_y hold the
    in-range truncation of the other representation when it differs.
    """

    x: str
    y: str
    x_dyadic: bool
    y_dyadic: bool
    alt_x: Optional[str]
    alt_y: Optional[str]

    @property
    def dyadic(self) -> bool:
        return self.x_dyadic or self.y_dyadic


def wall_oracle(c: int, p: int, q: int, length: int) -> WallPair:
    """Expansion prefixes by integer long division; no floating point."""
    if q == 0:
        raise ContractError("denominator must be nonzero")
    if not 0 <= p < q:
        raise ContractError("need 0 <= p < q")
    if length < 1:
        raise ContractError("need at least one digit")
    x, xd, ax = _expansion(p, q, length)
    y, yd, ay = _expansion((c * p) % q, q, length)
    return WallPair(x=x, y=y, x_dyadic=xd, y_dyadic=yd, alt_x=ax, alt_y=ay)


def _expansion(num: int, den: int, length: int):
    """Terminating-style digits of num/den plus the dual representation."""
    g = gcd(num, den) or 1
    num, den = num // g, den // g
    word = rational_bits_reference(num, den, length)
    e = den.bit_length() - 1
    dyadic = den == (1 << e)
    alt = None
    if dyadic:
        if num == 0:
            alt = "1" * length
        elif e - 1 < length:
            # Flip the final 1 of the terminating form, then all ones.
            j = e - 1
            alt = word[:j] + "0" + "1" * (length - j - 1)
    return word, dyadic, alt


def sweep_pure(aut: LabeledAutomaton, word: str):
    """Reference K: an uncompiled layer-by-layer fixpoint sweep."""
    return sweep_pure_curve(aut, word)[-1]


def sweep_pure_curve(aut: LabeledAutomaton, word: str) -> list:
    """Reference K of every prefix of `word`, lengths 0 to len(word).

    Every state may start at cost 0; before each object letter the
    epsilon-object edges are relaxed to a fixpoint, then the edges
    reading that letter advance one layer.  Weight is the number of
    non-epsilon description components on an edge.
    """
    if aut.num_states == 0:
        return [math.inf] * (len(word) + 1)
    obj = aut.arity - 1
    weighted = [(src, dst, label[obj],
                 sum(1 for t in range(obj) if label[t] is not EPSILON))
                for src, dst, label in aut.edges]
    dist = [0] * aut.num_states
    values = [0]
    for ch in word:
        changed = True
        while changed:
            changed = False
            for src, dst, letter, w in weighted:
                if letter is EPSILON and dist[src] + w < dist[dst]:
                    dist[dst] = dist[src] + w
                    changed = True
        nd = [math.inf] * aut.num_states
        for src, dst, letter, w in weighted:
            if letter == ch and dist[src] + w < nd[dst]:
                nd[dst] = dist[src] + w
        dist = nd
        values.append(min(dist))
    return values


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
        edges.append((N * n + v, v, ("0", EPSILON)))
        edges += [(N * n + v, extra * n + w, ("1", EPSILON)) for w in range(n)]
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


def selection_trace(rule: SelectionRule, bits: str, checkpoints) -> list:
    """Selected-bit counts after each checkpoint prefix length; a negative
    checkpoint raises ContractError."""
    return selected_counts(selection_marks(rule, bits), checkpoints)


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


def hub_tables_reference(num_states: int, by_letter, relays, budget: int):
    """Reference hub graph of closure edge arrays {letter: (srcs, dsts,
    costs)}: (ids, lead, full, part) of `hub_walk_reference` and scans of
    `scans_reference`, as `hub_tables` reads them off a compiled `_Hubs`,
    or None once the walk charges more than `budget` letters; `budget`
    also bounds the window tables of `scans`, which are None past it."""
    walk = hub_walk_reference(num_states, by_letter, relays, budget)
    if walk is None:
        return None
    ids, _, full, _ = walk
    pairs = {n: {w: {(s, d): c for s, d, c in edges} for w, edges in table.items()}
             for n, table in full}
    return (*walk, scans_reference(len(ids), pairs, len(by_letter), budget))


def hub_walk_reference(num_states: int, by_letter, relays, budget: int):
    """The hubs, `lead` and macro-edges of closure edge arrays {letter:
    (srcs, dsts, costs)}, by a walk one state and one chain letter at a
    time: (ids, lead, full, part) with full = [(length, {word: [(src hub,
    dst hub, cost)]})] and part = [(j, {prefix: [(src hub, cost)]})],
    sorted, or None once the walk charges more than `budget` letters.

    Kahn peeling gives `depth` and the live states; a hub is a live state
    whose out-degree is not 1, a relay, or the first state of a cycle of
    single-exit states that the walk from the lowest state reaches.  Each
    out-edge of a hub walks its chain to the next hub; each relay exit on
    the way (an edge into a relay) is one more macro-edge.
    """
    alphabet = list(by_letter)
    srcs, dst, cost = (np.concatenate(col).tolist() for col in zip(*by_letter.values()))
    letter = [a for a, (s, _, _) in enumerate(by_letter.values()) for _ in range(len(s))]
    exits = {}                                   # state -> [(letter, relay, cost)]
    out = [[] for _ in range(num_states)]        # state -> [(letter, dst, cost)]
    for s, a, d, c in zip(srcs, letter, dst, cost):
        if d in relays:
            exits.setdefault(s, []).append((a, d, c))
        else:
            out[s].append((a, d, c))
    indeg = [0] * num_states
    for edges in out:
        for _, d, _ in edges:
            indeg[d] += 1
    live = [True] * num_states
    frontier = [v for v in range(num_states) if indeg[v] == 0 and v not in relays]
    depth = 0
    while frontier:
        depth += 1
        nxt_frontier = []
        for v in frontier:
            live[v] = False
            for _, d, _ in out[v]:
                indeg[d] -= 1
                if indeg[d] == 0 and d not in relays:
                    nxt_frontier.append(d)
        frontier = sorted(set(nxt_frontier))
    hub = [live[v] and len(out[v]) != 1 or v in relays for v in range(num_states)]
    mark = [0] * num_states                      # 1: on this walk, 2: walked
    for v in range(num_states):
        walk = []
        while live[v] and not hub[v] and not mark[v]:
            mark[v] = 1
            walk.append(v)
            v = out[v][0][1]
        if mark[v] == 1:
            hub[v] = True
        for u in walk:
            mark[u] = 2
    ids = [s for s in range(num_states) if hub[s]]
    index = {s: i for i, s in enumerate(ids)}
    full, part = {}, {}
    for h in ids:
        src = index[h]
        made = [(alphabet[b], index[r], f) for b, r, f in exits.get(h, ())]
        budget -= len(made)
        for a, q, c in out[h]:
            word, costs, v, ways = alphabet[a], [c], q, []
            while not hub[v]:
                ways += [(len(word), b, r, f) for b, r, f in exits.get(v, ())]
                b, v2, w = out[v][0]
                word += alphabet[b]
                costs.append(costs[-1] + w)
                v = v2
            budget -= len(word)
            if budget < 0:
                return None
            for j in range(1, len(word)):
                ends = part.setdefault(j, {}).setdefault(word[:j], {})
                ends[src] = min(ends.get(src, math.inf), costs[j - 1])
            made.append((word, index[v], costs[-1]))
            for j, b, r, f in ways:
                budget -= j + 1
                made.append((word[:j] + alphabet[b], index[r], costs[j - 1] + f))
            if budget < 0:
                return None
        for word, dst_hub, paid in made:
            pairs = full.setdefault(len(word), {}).setdefault(word, {})
            if paid < pairs.get((src, dst_hub), math.inf):
                pairs[src, dst_hub] = paid
    span = max(full, default=1)
    return (ids, depth + span - 1,
            sorted((n, {w: sorted((s, d, c) for (s, d), c in pairs.items())
                        for w, pairs in table.items()}) for n, table in full.items()),
            sorted((j, {w: sorted(ends.items()) for w, ends in table.items()})
                   for j, table in part.items()))


def reach_sets(num_nodes: int, arcs) -> list:
    """reach[v]: the set of nodes that some path of arcs (s, d) leads to
    from v, v itself included."""
    out = {}
    for s, d in arcs:
        out.setdefault(s, set()).add(d)
    reach = []
    for v in range(num_nodes):
        seen, todo = {v}, [v]
        while todo:
            for d in out.get(todo.pop(), ()):
                if d not in seen:
                    seen.add(d)
                    todo.append(d)
        reach.append(seen)
    return reach


def components_reference(num_nodes: int, arcs) -> list:
    """comp[v]: the strongly connected component of v, as the sorted
    tuple of the nodes that v reaches and that reach v."""
    reach = reach_sets(num_nodes, arcs)
    return [tuple(sorted(u for u in reach[v] if v in reach[u])) for v in range(num_nodes)]


def scans_reference(k: int, full, base: int, budget: int):
    """The components of a hub graph full = {length: {word: {(src, dst):
    cost}}} as `hub_tables` reads them off `_Hubs.scans`: sorted (hubs,
    length inside, kind, [(word, src, dst, cost)] inside, [(length, src,
    word, dst, cost)] into it from other components), or None where
    `_scans` gives none.  Components come from `components_reference`.

    The kind is None without macro-edges inside; "one-hub" for one hub
    that nothing enters from other components; "rotation" for more hubs
    that nothing enters from other components when, with the hubs
    numbered 0.. in ascending order, each word's macro-edges run from hub
    (d + s) mod size to hub d for one s per word; "gather" when no two
    macro-edges of a word enter one hub; "rank-one" when those of each
    word enter one hub; else "dense".  Each kind's tables charge `budget`
    |alphabet|**length cells times 1, size + 1, 2 size, size + 1 and
    size**2, and each (length, src) into the component |alphabet|**length
    times size.
    """
    rows = [(n, w, s, d, c) for n, table in full.items()
            for w, pairs in table.items() for (s, d), c in pairs.items()]
    comp = components_reference(k, {(s, d) for _, _, s, d, _ in rows})
    out, charged = [], 0
    for members in sorted(set(comp)):
        size = len(members)
        inside = sorted((w, s, d, c) for n, w, s, d, c in rows
                        if comp[s] == comp[d] == members)
        lengths = {len(w) for w, *_ in inside}
        if len(lengths) > 1:
            return None
        length = lengths.pop() if lengths else 0
        into = sorted((n, s, w, d, c) for n, w, s, d, c in rows
                      if comp[d] == members and comp[s] != members)
        entries = {(w, d) for w, _, d, _ in inside}
        targets = {w: {d for v, _, d, _ in inside if v == w} for w, *_ in inside}
        turns = {w: {(members.index(s) - members.index(d)) % size for v, s, d, _ in inside
                     if v == w} for w, *_ in inside}
        kind = (None if not length else "one-hub" if size == 1 and not into else
                "rotation" if size > 1 and not into and all(
                    len(ts) == 1 for ts in turns.values()) else
                "gather" if size > 1 and len(entries) == len(inside) else
                "rank-one" if all(len(ds) == 1 for ds in targets.values()) else "dense")
        charged += base ** length * {None: 0, "one-hub": 1, "rotation": size + 1,
                                     "gather": 2 * size, "rank-one": size + 1,
                                     "dense": size * size}[kind]
        charged += sum(base ** n * size for n, _ in {(n, s) for n, s, *_ in into})
        out.append((members, length, kind, inside, into))
    return out if charged <= budget else None


def prune_reference(edges, dominant) -> list:
    """Reference dominance pruning of a letter's closure edges [(s, q, c),
    ...]: dominant[q] = [(q2, w), ...] lists the intra edges q2 -> q.
    (s, q) goes when (s, q2) is cheaper by at least w, or as cheap and
    first named after (s, q) by the edges; parallel edges keep the
    cheapest."""
    best = {}
    for s, q, c in edges:
        best[s, q] = min(best.get((s, q), math.inf), c)
    named = {pair: i for i, pair in enumerate(best)}

    def dominated(s, q, c):
        for q2, w in dominant.get(q, ()):
            c2 = best.get((s, q2))
            if c2 is not None and c2 + w <= c and (c2 < c or named[s, q2] > named[s, q]):
                return True
        return False
    return [(s, q, c) for (s, q), c in best.items() if not dominated(s, q, c)]


# --- reference ingestion: one Python step per integer, character or line ------

def champernowne_reference(n: int) -> str:
    """First n bits of Champernowne's binary sequence, one integer at a time."""
    parts = ["0"]
    total = 1
    i = 1
    while total < n:
        b = format(i, "b")
        parts.append(b)
        total += len(b)
        i += 1
    return "".join(parts)[:n]


def rational_bits_reference(p: int, q: int, n: int) -> str:
    """First n binary digits of frac(p/q) by long division, one digit at a time."""
    digits = []
    r = p
    for _ in range(n):
        r *= 2
        if r >= q:
            digits.append("1")
            r -= q
        else:
            digits.append("0")
    return "".join(digits)


def read_sequence_reference(text: str, origin: str = "<input>") -> str:
    """The 0/1 characters of text, one character at a time; whitespace skipped."""
    out = []
    for offset, ch in enumerate(text):
        if ch in "01":
            out.append(ch)
        elif ch not in " \t\n\r\v\f":
            raise FormatError(
                f"{origin}: unexpected byte {ch!r} at offset {offset}")
    return "".join(out)


def format_lines_reference(text: str):
    """(line number, directive, fields) of each directive line of a format file."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        out.append((lineno, fields[0], fields[1:]))
    return out


def parse_automaton_reference(text: str, max_states: int, max_edges: int):
    """(automaton, leftover lines) of the automaton text format, line by line."""
    arity = None
    alphabets = {}
    num_states = None
    raw_edges = []
    extra = []
    first = {}                                   # header line -> its line number
    for lineno, directive, args in format_lines_reference(text):
        if directive == "arity":
            _once_reference(first, "arity line", lineno)
            arity = _parse_int_reference(args, 1, lineno)[0]
        elif directive == "alphabet":
            if len(args) < 2:
                raise FormatError(f"line {lineno}: alphabet needs tape and symbols")
            tape = _parse_int_reference(args[:1], 1, lineno)[0]
            _once_reference(first, f"alphabet line for tape {tape}", lineno)
            alphabets[tape] = tuple(args[1:])
        elif directive == "states":
            _once_reference(first, "states line", lineno)
            num_states = _parse_int_reference(args, 1, lineno)[0]
            if num_states > max_states:
                raise FormatError(f"line {lineno}: state count {num_states} "
                                  f"exceeds the limit {max_states}")
        elif directive == "edge":
            if len(raw_edges) == max_edges:
                raise FormatError(f"line {lineno}: more than {max_edges} edges")
            raw_edges.append((lineno, args))
        else:
            extra.append((lineno, directive, args))
    if arity is None or num_states is None:
        raise FormatError("missing arity or states line")
    if len(alphabets) != arity or sorted(alphabets) != list(range(arity)):
        raise FormatError("need exactly one alphabet line per tape")
    alpha_tuple = tuple(alphabets[t] for t in range(arity))
    edges = []
    for lineno, args in raw_edges:
        if len(args) != 2 + arity:
            raise FormatError(f"line {lineno}: edge needs FROM TO and {arity} labels")
        try:
            src, dst = int(args[0]), int(args[1])
        except ValueError:
            raise FormatError(f"line {lineno}: edge endpoints must be integers") from None
        label = []
        for t, tok in enumerate(args[2:]):
            if tok == "-":
                label.append(EPSILON)
            elif tok in alpha_tuple[t]:
                label.append(tok)
            else:
                raise FormatError(
                    f"line {lineno}: symbol {tok!r} not in alphabet of tape {t}")
        edges.append((src, dst, tuple(label)))
    error = automaton_error_reference(arity, alpha_tuple, num_states, edges)
    if error is not None:
        raise FormatError(error)
    return LabeledAutomaton(arity=arity, alphabets=alpha_tuple,
                            num_states=num_states, edges=tuple(edges)), extra


def automaton_error_reference(arity, alphabets, num_states, edges):
    """The message LabeledAutomaton refuses these fields with, edge by edge;
    None if it accepts them."""
    if arity < 1:
        return "arity must be >= 1"
    if len(alphabets) != arity:
        return "one alphabet required per tape"
    for alpha in alphabets:
        if not alpha:
            return "every tape needs a nonempty alphabet"
        if any(not isinstance(s, str) or len(s) != 1 or s in "-#" or s.isspace()
               for s in alpha):
            return ("alphabet symbols must be single characters "
                    "other than '-', '#' and whitespace")
        if len(set(alpha)) != len(alpha):
            return "alphabet symbols must be distinct"
    if num_states < 0:
        return "negative state count"
    for src, dst, label in edges:
        if not (0 <= src < num_states and 0 <= dst < num_states):
            return f"edge endpoint out of range: {(src, dst)}"
        if len(label) != arity:
            return "edge label arity mismatch"
        for tape, comp in enumerate(label):
            if comp is not EPSILON and comp not in alphabets[tape]:
                return f"label letter {comp!r} outside alphabet of tape {tape}"
    return None


def parse_rule_reference(text: str) -> SelectionRule:
    """The selection rule text format, line by line."""
    num_states = None
    initial = None
    accepting = None
    trans = {}
    froms = []                                   # (line, FROM) of each trans line
    first = {}
    for lineno, directive, args in format_lines_reference(text):
        if directive == "states":
            _once_reference(first, "states line", lineno)
            num_states = _parse_int_reference(args, 1, lineno)[0]
        elif directive == "initial":
            _once_reference(first, "initial line", lineno)
            initial = _parse_int_reference(args, 1, lineno)[0]
        elif directive == "accepting":
            _once_reference(first, "accepting line", lineno)
            accepting = frozenset(_parse_int_reference(args, len(args), lineno))
        elif directive == "trans":
            if len(args) != 3:
                raise FormatError(f"line {lineno}: trans needs FROM LETTER TO")
            frm, to = _parse_int_reference([args[0], args[2]], 2, lineno)
            letter = args[1]
            if letter not in ("0", "1"):
                raise FormatError(f"line {lineno}: letter must be 0 or 1")
            key = (frm, int(letter))
            if key in trans:
                raise FormatError(f"line {lineno}: duplicate transition {key}")
            trans[key] = to
            froms.append((lineno, frm))
        else:
            raise FormatError(f"line {lineno}: unknown directive {directive!r}")
    if num_states is None or initial is None or accepting is None:
        raise FormatError("missing states, initial or accepting line")
    for lineno, frm in froms:
        if frm < 0 or frm >= num_states:
            raise FormatError(f"line {lineno}: transition from state {frm} "
                              f"outside the {num_states} states")
    table = []
    for s in range(num_states):
        if (s, 0) not in trans or (s, 1) not in trans:
            raise FormatError(f"state {s} is missing a transition")
        table.append((trans[(s, 0)], trans[(s, 1)]))
    try:
        return SelectionRule(num_states=num_states, initial=initial,
                             accepting=accepting, transitions=tuple(table))
    except ContractError as exc:
        raise FormatError(str(exc)) from exc


def _once_reference(first: dict, what: str, lineno: int):
    if what in first:
        raise FormatError(f"line {lineno}: second {what} (first on line {first[what]})")
    first[what] = lineno


def _parse_int_reference(args, n, lineno):
    if len(args) != n:
        raise FormatError(f"line {lineno}: expected {n} integer argument(s)")
    try:
        return [int(a) for a in args]
    except ValueError:
        raise FormatError(f"line {lineno}: expected integer") from None


def serialize_automaton_reference(aut: LabeledAutomaton) -> str:
    """The automaton text format, one edge line at a time."""
    lines = [f"arity {aut.arity}"]
    for t, alpha in enumerate(aut.alphabets):
        lines.append(f"alphabet {t} " + " ".join(alpha))
    lines.append(f"states {aut.num_states}")
    for src, dst, label in aut.edges:
        comps = " ".join("-" if c is EPSILON else c for c in label)
        lines.append(f"edge {src} {dst} {comps}")
    return "\n".join(lines) + "\n"


# Fields an edit may write into a format line: integers in and out of range
# (past int64 too), forms int() reads or refuses, foreign symbols and
# directive names.
EDIT_FIELDS = st.one_of(st.integers(-2, 7).map(str), st.sampled_from([
    str(2 ** 63), str(2 ** 70), "-" + str(2 ** 64), "+3", "1_0", "007", "1.5", "\u0663",
    "9" * 5000, "-", "--", "0", "1", "2", "a", "x", "edge", "edges", "Edge", "#",
    "arity", "states", "alphabet", "trans", "initial", "accepting", "certificate"]))


@st.composite
def edited_format_texts(draw, text: str) -> str:
    """text with a few line edits: comments, blank lines, tabs, fields
    replaced, dropped or added, lines dropped or repeated, and LF or CRLF
    line ends."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split()
        edit = draw(st.sampled_from(["comment", "comment-line", "blank", "tabs", "field",
                                     "field", "field", "drop-field", "add-field", "drop",
                                     "repeat", "directive"]))
        if edit == "comment":
            lines[i] += draw(st.sampled_from(["#", " # note", "\t#edge 0 0 - -"]))
        elif edit == "comment-line":
            lines.insert(i, draw(st.sampled_from(["# header", "   # indented", "#"])))
        elif edit == "blank":
            lines.insert(i, draw(st.sampled_from(["", "   ", "\t", " \f "])))
        elif edit == "tabs":
            lines[i] = "\t" + "\t \t".join(fields) + " "
        elif edit == "field" and fields:
            fields[draw(st.integers(0, len(fields) - 1))] = draw(EDIT_FIELDS)
            lines[i] = " ".join(fields)
        elif edit == "drop-field" and fields:
            del fields[draw(st.integers(0, len(fields) - 1))]
            lines[i] = " ".join(fields)
        elif edit == "add-field":
            fields.insert(draw(st.integers(0, len(fields))), draw(EDIT_FIELDS))
            lines[i] = " ".join(fields)
        elif edit == "directive" and fields:
            fields[0] = draw(st.sampled_from(["edges", "Edge", "edge0", "edge", "states"]))
            lines[i] = " ".join(fields)
        elif edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def outcome(parse, *args):
    """parse(*args), or the message of the FormatError it raises."""
    try:
        return parse(*args)
    except FormatError as exc:
        return f"FormatError: {exc}"


def average_code_length(code: dict, counts: dict) -> float:
    """The mean codeword length of a block code under block counts."""
    total = sum(counts.values())
    return sum(counts[b] * len(w) for b, w in code.items()) / total


def build_block_coder_reference(h: BlockHistogram) -> DescriptionMode:
    """The block coder built as a walk: each block in order walks its
    codeword down the trie, making the nodes it is the first to reach,
    then makes its emission chain back to the root."""
    code = huffman_code(smoothed_counts(h))
    edges = []
    children = {}
    next_state = 1  # 0 is the root
    for block in sorted(code):
        node = 0
        for bit in code[block]:
            child = children.get((node, bit))
            if child is None:
                child = children[(node, bit)] = next_state
                next_state += 1
                edges.append((node, child, (bit, EPSILON)))
            node = child
        for i, bit in enumerate(block):
            target = 0 if i == h.k - 1 else next_state
            if i < h.k - 1:
                next_state += 1
            edges.append((node, target, (EPSILON, bit)))
            node = target
    aut = LabeledAutomaton(arity=2, alphabets=(BINARY, BINARY),
                           num_states=next_state, edges=tuple(edges))
    cert = ValuednessCertificate.asserted(next_state * (h.k + 1), "block-coder")
    return DescriptionMode(aut, cert, name=f"coder(k={h.k})")


def eps_cycle_check_reference(aut: LabeledAutomaton):
    """eps_cycle_check over the whole silent subgraph, edge tuple by edge
    tuple: the first silent edge that writes an object letter and whose
    ends share a strongly connected component (by reach sets), then the
    breadth-first path from its target back to its source."""
    obj = aut.arity - 1
    silent = [e for e in aut.edges if e[2][:obj] == (EPSILON,) * obj]
    comp = components_reference(aut.num_states, [(s, d) for s, d, _ in silent])
    hits = [e for e in silent if e[2][obj] is not EPSILON and comp[e[0]] == comp[e[1]]]
    if not hits:
        return None
    edge, prev, queue = hits[0], {hits[0][1]: None}, deque([hits[0][1]])
    while edge[0] not in prev:
        v = queue.popleft()
        for e in silent:
            if e[0] == v and e[1] not in prev:
                prev[e[1]] = e
                queue.append(e[1])
    path, node = [], edge[0]
    while prev[node] is not None:
        path.append(prev[node])
        node = prev[node][0]
    return (edge, *reversed(path))


def chain_reference(a1: LabeledAutomaton, a2: LabeledAutomaton) -> LabeledAutomaton:
    """automaton.chain edge tuple by edge tuple: a1's epsilon-middle moves
    in each state of a2, a2's in each state of a1, then each edge of a1
    fused with the edges of a2 that read its middle letter."""
    n1, n2 = a1.num_states, a2.num_states
    pad1, pad2 = (EPSILON,) * (a2.arity - 1), (EPSILON,) * (a1.arity - 1)
    edges = []
    for s, d, lab in a1.edges:
        if lab[-1] is EPSILON:
            edges += [(s * n2 + l, d * n2 + l, lab[:-1] + pad1) for l in range(n2)]
    reading = {}
    for s, d, lab in a2.edges:
        if lab[0] is EPSILON:
            edges += [(k * n2 + s, k * n2 + d, pad2 + lab[1:]) for k in range(n1)]
        else:
            reading.setdefault(lab[0], []).append((s, d, lab[1:]))
    for s1, d1, lab1 in a1.edges:
        for s2, d2, tail in reading.get(lab1[-1], ()):
            edges.append((s1 * n2 + s2, d1 * n2 + d2, lab1[:-1] + tail))
    return LabeledAutomaton(a1.arity + a2.arity - 2, a1.alphabets[:-1] + a2.alphabets[1:],
                            n1 * n2, tuple(edges))


def layered_concat_reference(aut: LabeledAutomaton, n_layers: int) -> LabeledAutomaton:
    """The graph of modes.layered_concat, edge tuple by edge tuple."""
    n, N = aut.num_states, n_layers
    hub = (N + 2) * n
    edges = []
    for s, d, label in aut.edges:
        if label[0] is EPSILON:
            edges += [(c * n + s, c * n + d, label) for c in range(N + 2)]
        else:
            edges += [(c * n + s, (c + 1) * n + d, label) for c in range(N)]
            edges.append(((N + 1) * n + s, (N + 1) * n + d, label))
    for v in range(n):
        edges += [(N * n + v, v, ("0", EPSILON)), (N * n + v, hub, ("1", EPSILON)),
                  (hub, (N + 1) * n + v, (EPSILON, EPSILON))]
    return LabeledAutomaton(2, aut.alphabets, hub + 1 if n else 0, tuple(edges))


def _cheapest_reference(*columns):
    """The rows of the columns (keys, then a cost) with the least cost per
    distinct key, sorted by key, as int64 arrays."""
    *keys, cost = (col.tolist() for col in columns)
    best = {}
    for *key, c in zip(*keys, cost):
        key = tuple(key)
        best[key] = min(best.get(key, c), c)
    rows = sorted((*key, c) for key, c in best.items())
    return tuple(np.array(col, dtype=np.int64) for col in zip(*rows)) if rows else (
        (np.zeros(0, dtype=np.int64),) * len(columns))


def distances_reference(source: int, adj, hops) -> dict:
    """Dijkstra from `source` over the intra edges adj = (first, out, outdeg):
    the (dst, weight) rows first[v]:first[v + 1] of out leave v, and a state
    of out-degree 0 is reached but never queued.  Past the source, a relay's
    edges are its `hops`."""
    first, out, outdeg = adj
    dist = {source: 0}
    buckets = [[source]]
    c = 0
    while c < len(buckets):
        bucket = buckets[c]
        while bucket:
            v = bucket.pop()
            if dist[v] != c:
                continue
            for d, w in (hops[v] if v in hops and v != source
                         else out[first[v]:first[v + 1]].tolist()):
                if c + w < dist.get(d, math.inf):
                    dist[d] = c + w
                    if not outdeg[d]:
                        continue
                    while len(buckets) <= c + w:
                        buckets.append([])
                    buckets[c + w].append(d)
        c += 1
    return dist


def closure_into_reference(num_states: int, src, dst, letter, weight, relays, budget: int):
    """(entries, reach, dominant, reached) of `_closure_into` for the given
    relay states, by a Dijkstra from each source over every intra edge;
    raises BudgetExceeded once the closure edges that the entries stand
    for, charged before each is made, pass `budget`.  Entries are sorted
    by (t, s), reach by q and then in the order each Dijkstra reaches r,
    dominant by q and then q2, each as int64 arrays."""
    intra = letter < 0
    by_src = np.flatnonzero(intra)[np.argsort(src[intra], kind="stable")]
    out = np.column_stack((dst[by_src], weight[by_src]))
    isrc, (idst, iw) = src[by_src], out.T
    reads = np.bincount(src[~intra], minlength=num_states)
    entered = np.zeros(num_states, dtype=bool)
    entered[dst[~intra]] = True
    outdeg = np.bincount(isrc, minlength=num_states)
    relay = np.zeros(num_states, dtype=bool)
    relay[np.asarray(relays, dtype=np.int64)] = True
    first = isrc.searchsorted(np.arange(num_states + 1))
    adj = memoryview(first), memoryview(out), memoryview(outdeg)
    hops = dict.fromkeys(np.flatnonzero(relay).tolist(), ())
    hops = {r: [(v, c) for v, c in distances_reference(r, adj, hops).items()
                if v in hops and v != r] for r in hops}
    onward = outdeg.copy()
    onward[relay] = [len(ends) for ends in hops.values()]
    sources = (entered | relay) & (outdeg > 0)
    deep = np.zeros(num_states, dtype=bool)
    deep[isrc[onward[idst] > 0]] = True
    hop = sources[isrc] & ~deep[isrc]
    paths = [_cheapest_reference(isrc[hop], idst[hop], iw[hop])]
    charge = np.where(relay, 0, reads)
    charged = int(reads.sum() + charge[paths[0][1]].sum())
    if charged > budget:
        raise BudgetExceeded("intra-layer closure is too dense to sweep", budget)
    wanted = (reads > 0) | relay
    found = [], [], []
    for source in np.flatnonzero(sources & deep).tolist():
        dist = distances_reference(source, adj, hops)
        kept = [v for v in dist if wanted[v]]
        charged += int(charge[kept].sum()) - int(charge[source])
        if charged > budget:
            raise BudgetExceeded("intra-layer closure is too dense to sweep", budget)
        found[0].extend([source] * len(kept))
        found[1].extend(kept)
        found[2].extend(dist[v] for v in kept)
    paths.append(tuple(np.array(col, dtype=np.int64) for col in found))
    s, t, c = map(np.concatenate, zip(*paths))
    near = (s != t) & ~relay[t] & (reads[t] > 0)
    trivial = np.flatnonzero(reads)
    entries = [np.concatenate((col[near], own)) for col, own in
               zip((s, t, c), (trivial, trivial, np.zeros_like(trivial)))]
    order = np.lexsort(entries[:2])
    far = (s != t) & relay[t] & entered[s]
    order_far = np.argsort(s[far], kind="stable")
    dom = entered[isrc] & entered[idst] & (isrc != idst) & ~relay[isrc] & ~relay[idst]
    by_end = np.argsort(idst[dom], kind="stable")
    return (tuple(col[order] for col in entries),
            tuple(col[far][order_far] for col in (s, t, c)),
            tuple(col[dom][by_end] for col in (idst, isrc, iw)),
            np.flatnonzero(np.bincount(t[far], minlength=num_states)))


def matches_reference(keys, probes):
    """The indices of the entries equal to each probe in the sorted `keys`,
    concatenated, and their count per probe, by binary search."""
    first = np.searchsorted(keys, probes)
    count = np.searchsorted(keys, probes, side="right") - first
    return np.concatenate([np.arange(f, f + n) for f, n in zip(first.tolist(), count.tolist())]
                          or [np.zeros(0, dtype=np.int64)]).astype(np.int64), count
