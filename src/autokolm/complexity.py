"""Exact complexity of words under description modes.

K(x) is the minimum number of description letters on any path spelling
exactly x on the object tape.  The computation is a shortest-path sweep
over layers (state, object position): edges whose object component is
epsilon stay in a layer, matching edges advance it, and the edge weight
is the count of non-epsilon description components (0 or 1 for binary
modes, up to 2 for pair modes).
"""

from __future__ import annotations

import heapq
import math
import random
import weakref
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import List

import numpy as np

from .automaton import EPSILON, LabeledAutomaton, check_word
from .errors import BudgetExceeded, ContractError
from .modes import UNBOUNDED, DescriptionMode, PairDescriptionMode

UNREACHABLE = math.inf

# Where the prefix sums tail does not apply, the closure step is plain
# Python over a dict, with no tail, while every letter relaxes at most this
# many closure edges: above it the numpy scatter-min is faster per letter
# (measured crossover between 24 and 28 edges on carry automata and random
# graphs).  On closures this small the Python step also beats the hub loop
# tail.  Warm calls on Bernoulli(0.9) bits (2-vCPU host), 5 alternating
# runs of the min of 63 calls (1 at 48k bits), Python against the hub loop:
# union(identity, unary(3)) 8.6-12.7 against 44-52 us at 16 bits and
# 346-605 against 601-1,007 us at 1,024 bits; per bit on 48k bits, union
# 0.50-0.65 against 0.67-1.05 us, joint(identity, splitter) 0.41-0.57
# against 0.59-0.88 us, wall(3) 0.61-0.91 against 0.80-1.05 us.
_PYTHON_STEP_EDGES = 24
# Above it, the numpy step hands over to the hub loop tail while the hub
# loop's worst letter relaxes at most one macro-edge per
# _EDGES_PER_RELAXATION closure edges of the worst letter, plus
# _NUMPY_LETTER_EDGES for numpy's fixed cost per letter.  A hub loop
# relaxation costs about 75 ns and a numpy closure edge about 7 ns; a
# numpy letter also costs about 4 us whatever its edges, against under
# 1 us for a hub loop letter.  Warm in-process sweeps, hub and numpy
# alternating, 5 runs each, per letter (E closure edges, R relaxations):
#   wall(3), 48k Champernowne bits, E 4, R 4: hub 0.8-1.2 us, numpy 4.1-6.2 us;
#   reverse(coder4), 48k Champernowne bits, E 160, R 16: hub 1.7-2.5 us,
#     numpy 4.3-6.0 us;
#   layered(coder4, 2), 48k Bernoulli(0.9) bits, E 236, R 15 (the relay
#     and 3 chain hubs): hub 1.4-2.4 us, numpy 4.2-6.6 us;
#   layered(k=8 coder, 2), 20k Champernowne bits, E 6,788, R 27: hub
#     2.3-3.3 us, numpy 27-35 us;
#   compose(coder4, coder4), 20k Champernowne bits, E 3,728, R 45 (77 hubs):
#     hub 3.4-4.8 us, numpy 16-22 us;
#   reverse(k=8 coder), 20k Champernowne bits, E 33,792, R 256: hub 22-27 us,
#     numpy 238-246 us;
# and two hub graphs that no mode compiles to since pruning and relay hubs:
#   layered(coder4, 2) without relay hubs, 48k Bernoulli(0.9) bits,
#     E 1,827, R 257: hub 22-30 us, numpy 14-18 us;
#   compose(coder4, coder4) unpruned, 20k Champernowne bits, E 6,800,
#     R 2,960: hub 218-291 us, numpy 33-51 us.
_EDGES_PER_RELAXATION = 12
_NUMPY_LETTER_EDGES = 500
# Windows of the last span letters whose macro-edges a hub loop remembers;
# a binary object alphabet never fills it below span 17.
_WINDOW_MEMO = 1 << 16
_INF = 1 << 62
_NORMALIZE_BUDGET = 5_000_000
# Closure edges over all letters.  The closure is charged as its entries
# are made; the folded relay edges are charged on top of the edges left
# after pruning (`_CompiledSweep`), not on top of that first count.  The
# largest closure any mode in the tests or the benchmark needs is
# reverse(k=8 coder)'s 67,584; layered(k=8 coder, 2), whose hub is a
# relay, makes about 13,400 (about 11,000 after pruning, plus 2,600 folded).
_CLOSURE_BUDGET = 1_000_000


def _check_mode(mode):
    if mode.certificate.bound == UNBOUNDED:
        raise ContractError(
            f"mode {mode.name!r} is certified unbounded; complexity is undefined")


def complexity(mode: DescriptionMode | PairDescriptionMode, word: str):
    """Minimal description length of `word`, or math.inf when unreachable.

    `word` is read on the mode's object tape, its last; on a pair mode the
    value is the minimal |u|+|v| over pair descriptions (u, v).
    """
    _check_mode(mode)
    return _sweep(mode.automaton, word, [len(word)])[0]


pair_complexity = complexity


def superadditivity_check(mode: DescriptionMode, x: str, y: str) -> bool:
    """Does K(xy) >= K(x) + K(y) hold?  Unreachable counts as +infinity."""
    return complexity(mode, x + y) >= complexity(mode, x) + complexity(mode, y)


@dataclass(frozen=True)
class ComplexityCurve:
    """Complexity sampled along prefixes of a sequence."""

    samples: tuple               # ((n, value), ...) with value int or inf
    mode_id: str

    def to_csv(self) -> str:
        lines = ["n,complexity,ratio"]
        for n, k in self.samples:
            if k == UNREACHABLE:
                lines.append(f"{n},unreachable,")
            else:
                lines.append(f"{n},{k},{k / n:.6f}")
        return "\n".join(lines) + "\n"


def complexity_curve(mode: DescriptionMode, source: str, n_max: int,
                     step: int, verify: bool = False) -> ComplexityCurve:
    """Complexity of each prefix of length step, 2*step, ... <= n_max.

    One incremental sweep serves every sample.  With verify on (the tests
    turn it on), three sample points are recomputed from scratch and must
    agree.
    """
    _check_mode(mode)
    if step < 1:
        raise ContractError("step must be >= 1")
    if len(source) < min(n_max, step):
        raise ContractError("source shorter than the requested prefix")
    n_max = min(n_max, len(source))
    positions = list(range(step, n_max + 1, step))
    if not positions:
        return ComplexityCurve(samples=(), mode_id=mode.name)
    values = _sweep(mode.automaton, source[:positions[-1]], positions)
    samples = tuple(zip(positions, values))
    if verify:
        rng = random.Random(0x5EED)
        for n, k in rng.sample(samples, min(3, len(samples))):
            fresh = complexity(mode, source[:n])
            if fresh != k:
                raise RuntimeError(
                    f"incremental curve disagrees with fresh computation at n={n}: "
                    f"{k} vs {fresh}")
    return ComplexityCurve(samples=samples, mode_id=mode.name)


# --- the sweep ----------------------------------------------------------------

def _classify_edges(aut: LabeledAutomaton):
    """Split edges into intra-layer (epsilon object) and advancing groups,
    the latter by object letter."""
    obj = aut.arity - 1
    intra = []
    advance = {a: [] for a in aut.alphabets[obj]}
    for src, dst, label in aut.edges:
        w = obj - label[:obj].count(EPSILON)
        if label[obj] is EPSILON:
            intra.append((src, dst, w))
        else:
            advance[label[obj]].append((src, dst, w))
    return intra, advance


def _sweep(aut: LabeledAutomaton, word: str, positions: List[int]) -> list:
    """Values of K at the given prefix lengths (strictly ascending) of
    `word`, read on the object tape.

    The closure step runs from the start to the hub graph's `lead` (the
    whole word without a hub graph) in batches between positions, and one
    letter at a time through the last `span` letters up to `lead`, whose
    hub costs it keeps in a ring indexed by letter.  The tail answers the
    positions past `lead` from that ring.
    """
    check_word(aut, aut.arity - 1, word)
    if aut.num_states == 0:
        return [UNREACHABLE] * len(positions)
    eng = _compiled(aut)
    hubs = eng.hubs
    stops, lead, fill, ring = positions, positions[-1], (), None
    if hubs is not None:
        lead = min(hubs.lead, lead)
        fill = range(max(hubs.lead - hubs.span + 1, 0), lead + 1)
        stops = [*positions[:bisect_left(positions, fill.start)], *fill]
        ring = [None] * hubs.span
    dist, best, done, out = eng.start, 0, 0, []
    for t in stops:
        if t > done:
            dist, best = eng.step(eng.by_letter, dist, word[done:t])
            done = t
            if best == UNREACHABLE:
                break
        if t in fill:
            ring[t % hubs.span] = dist[hubs.ids].tolist()
        if t == positions[len(out)]:
            out.append(best)
    if best != UNREACHABLE and lead < positions[-1]:
        out += eng.tail(hubs, word, positions[len(out):], ring)
    return out + [UNREACHABLE] * (len(positions) - len(out))


class _CompiledSweep:
    """Per-automaton closure edges and the per-letter step that walks them.

    Intra-layer edges are pre-composed into the advancing edges via a
    closure of the epsilon-object subgraph from the states a sweep can be
    in (`_closure_into`), so each object letter relaxes one edge list.
    Trailing intra-layer moves never help (weights are nonnegative and
    the end state is free), so only source-side closure is needed.  The
    closure does not pass through relays, states of wide intra fan-in and
    fan-out such as the layered hub; each letter's edge list also carries
    the edges into the relays (`_fold_relays`), so a relay's cost after a
    letter is closure output like any other and feeds the next letter as
    a closure source.  Before the folding, a letter's edge into a state
    that an intra edge from another of its targets makes no cheaper is
    dropped (`_prune`); the glue edges between layered copies and the
    synchronised moves of a composition make many such edges.
    `_pick_step` chooses the closure step, plain Python over a dict of
    reachable states or a numpy scatter-min over the closure edges, and a
    tail, which sweeps the hub DP over macro-edges (`_Hubs`, the relays
    among its hubs) past its `lead` as prefix sums or as a loop, or None.
    """

    def __init__(self, aut: LabeledAutomaton):
        intra, advance = _classify_edges(aut)
        into, reach, dominant, relays = _closure_into(aut.num_states, intra, advance)
        by_letter = {a: [(s, q, c + w) for t, q, w in group for s, c in into[t]]
                     for a, group in advance.items()}
        if dominant:
            by_letter = {a: _prune(edges, dominant) for a, edges in by_letter.items()}
        if reach:
            charged = sum(map(len, by_letter.values()))
            for edges in by_letter.values():
                charged = _fold_relays(edges, reach, charged)
        self.step, self.tail, self.by_letter, self.hubs = _pick_step(
            aut.num_states, by_letter, relays)
        if self.step is _step_python:
            self.start = dict.fromkeys(range(aut.num_states), 0)
        else:
            self.start = np.zeros(aut.num_states, dtype=np.int64)


def _fold_relays(edges, reach, charged: int) -> int:
    """Append to a letter's closure edges (s, q, c) one edge (s, r, the
    least c + d) per relay r that some q reaches at intra cost d (`reach`
    of `_closure_into`); returns `charged` plus the edges appended, each
    charged to _CLOSURE_BUDGET as it is made."""
    folded = {}
    for s, q, c in edges:
        for r, d in reach.get(q, ()):
            key = s, r
            old = folded.get(key)
            if old is None:
                charged += 1
                if charged > _CLOSURE_BUDGET:
                    raise BudgetExceeded("intra-layer closure is too dense to sweep",
                                         _CLOSURE_BUDGET)
            elif old <= c + d:
                continue
            folded[key] = c + d
    edges += [(s, r, c) for (s, r), c in folded.items()]
    return charged


def _prune(edges, dominant) -> list:
    """A letter's closure edges without the dominated ones, and without
    all but the cheapest of parallel edges.

    (s, q, c) is dominated when the letter also has an edge (s, q2, c2)
    and dominant[q] lists an intra edge (q2, w) with c2 + w <= c.  Both q2
    and q are entered and neither is a relay, so the next letter's closure
    from q2 covers every way on from q at w more (folded relay edges
    included), and q2 is no dearer an end.  A dropped q2 is covered in
    turn by a cheaper state or by a kept one of the same cost: an equally
    cheap q2 (a zero-cost intra edge, maybe on a cycle of states that
    dominate each other) dominates only while it is kept, so one of such
    a cycle stays.
    """
    best = {}
    for s, q, c in edges:
        if c < best.get((s, q), _INF):
            best[s, q] = c
    dropped = set()
    for (s, q), c in best.items():
        for q2, w in dominant.get(q, ()):
            c2 = best.get((s, q2))
            if c2 is not None and c2 + w <= c and (c2 < c or (s, q2) not in dropped):
                dropped.add((s, q))
                break
    return [(s, q, c) for (s, q), c in best.items() if (s, q) not in dropped]


def _edge_arrays(by_letter):
    """Closure edge lists as (sources, targets, costs) int64 arrays per letter."""
    return {a: tuple(np.asarray(edges, dtype=np.int64).reshape(-1, 3).T.copy())
            for a, edges in by_letter.items()}


def _pick_step(num_states: int, by_letter, relays):
    """The closure step, the tail, the edges the step reads per letter,
    and the hub graph (or None) with the `relays` as hubs.

    The prefix sums tail whenever the hub graph has one hub, one
    macro-edge length and a window cost table.  Otherwise no tail and the
    Python step while every letter relaxes at most _PYTHON_STEP_EDGES
    closure edges; else the hub loop tail while its worst letter relaxes
    at most one macro-edge per _EDGES_PER_RELAXATION closure edges of the
    worst letter, counting numpy's fixed cost per letter as
    _NUMPY_LETTER_EDGES more edges; else no tail.  Every step but the
    Python one is numpy's.
    """
    widest = max(map(len, by_letter.values()), default=0)
    arrays = _edge_arrays(by_letter)
    python = widest <= _PYTHON_STEP_EDGES
    # A graph with one hub and one length relaxes one macro-edge per letter.
    limit = 1 if python else (widest + _NUMPY_LETTER_EDGES) / _EDGES_PER_RELAXATION
    hubs = _Hubs.compile(num_states, arrays, limit, relays)
    if hubs is not None and hubs.costs is not None:
        return _step_numpy, _sweep_sums, arrays, hubs
    if python:
        return _step_python, None, by_letter, None
    if hubs is None:
        return _step_numpy, None, arrays, None
    return _step_numpy, _sweep_hubs, arrays, hubs


def _step_python(by_letter, dist: dict, letters):
    """Relax edge lists over a dict of reachable states; returns (dist, min)."""
    for a in letters:
        nd = {}
        for s, q, w in by_letter[a]:
            c = dist.get(s)
            if c is not None:
                c += w
                if c < nd.get(q, _INF):
                    nd[q] = c
        if not nd:
            # No path spells this prefix; every longer prefix fails too.
            return nd, UNREACHABLE
        dist = nd
    return dist, min(dist.values())


def _step_numpy(by_letter, dist, letters):
    """Scatter-min over a cost per state (_INF if unreachable); returns (dist, min)."""
    dist = dist.copy()
    buf = np.empty_like(dist)
    for a in letters:
        srcs, dsts, ws = by_letter[a]
        buf.fill(_INF)
        np.minimum.at(buf, dsts, dist[srcs] + ws)
        dist, buf = buf, dist
        if dist.min() >= _INF:
            return dist, UNREACHABLE
    return dist, int(dist.min())


class _Hubs:
    """The closure graph cut into hubs joined by macro-edges.

    Peeling the states that no remaining closure edge enters (Kahn's
    algorithm) takes `depth` rounds; a state peeled in round r has no
    finite cost from letter r on.  The states left are live, and every
    closure edge out of a live state enters a live state.  A hub is a
    live state whose out-degree is not 1, plus one state on each cycle
    of out-degree-1 states.  From each out-edge of a hub, the out-degree-1
    states lead one letter at a time to the next hub: that path is a
    macro-edge with an object word w, a cost, and the cost of each proper
    prefix.  `full` holds, per length L, w -> [(src hub, dst hub, cost)];
    `part` holds, per 1 <= j < span, w[:j] -> [(src hub, prefix cost)];
    both keep the cheapest entry per hub pair.  Chains may merge, so one
    state can lie on many macro-edges.

    The edges into relays (`_fold_relays`) stay out of the peeling and the
    hub choice, and each relay is a hub that is never peeled.  A relay's
    cost at a letter is that of the cheapest path into it, which left a
    hub at most span letters earlier and took its last letter out of that
    hub or out of a state on one of its chains: each such relay exit after
    j letters of a macro-edge is one more macro-edge of length j + 1 into
    the relay, in `full` with the others.  The relay's own out-edges start
    macro-edges like any hub's.

    From letter `lead` = depth + span - 1 on, a path that ends inside a
    chain left its hub at most span - 1 letters earlier, at a letter no
    earlier than `depth`; a path that ends at a hub left the previous hub
    at most span letters earlier.  So hub costs follow from the hub costs
    of the last span letters, and K from those plus the prefix matches.

    One hub with one macro-edge length L also gets window tables indexed
    by the code of a length-L word: the letters' positions in the object
    alphabet (`rank`) read as digits in base |alphabet|, first letter
    most significant.  `missing` marks the words that are no macro-edge;
    `costs` holds the cost of the others (0 for the missing ones).  They
    exist only while |alphabet|**L stays within _NORMALIZE_BUDGET;
    otherwise both are None.
    """

    def __init__(self, ids, depth, full, part, alphabet):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.full = sorted(full.items())
        self.part = sorted(part.items())
        self.span = max(full, default=1)
        self.lead = depth + self.span - 1
        rank = {a: i for i, a in enumerate(alphabet)}
        self.costs, self.missing = _window_costs(len(ids), full, rank)
        if self.costs is not None:
            self.rank = {ord(a): i for a, i in rank.items()}
            self.powers = len(rank) ** np.arange(self.span, dtype=np.intp)

    @classmethod
    def compile(cls, num_states: int, by_letter, limit, relays):
        """The hub graph of the closure edges (`_edge_arrays`) with the
        `relays` as hubs, or None once a letter would relax more than
        `limit` macro-edges or the tables exceed the compile budget."""
        alphabet = list(by_letter)
        srcs, dst, cost = (np.concatenate(col) for col in zip(*by_letter.values()))
        letter = np.repeat(np.arange(len(alphabet)),
                           [len(edges[0]) for edges in by_letter.values()])
        exits = {}                               # state -> [(letter, relay, cost)]
        if relays:
            into = np.isin(dst, list(relays))
            for s, a, r, c in zip(*(col[into].tolist() for col in (srcs, letter, dst, cost))):
                exits.setdefault(s, []).append((a, r, c))
            srcs, dst, cost, letter = (col[~into] for col in (srcs, dst, cost, letter))
        order = np.argsort(srcs, kind="stable")
        dst, cost, letter = dst[order], cost[order], letter[order]
        outdeg = np.bincount(srcs, minlength=num_states)
        first = np.cumsum(outdeg) - outdeg       # out-edges of s: first[s]:first[s] + outdeg[s]
        indeg = np.bincount(dst, minlength=num_states)
        for r in relays:
            indeg[r] = dst.size + 1              # relays are never peeled
        live = np.ones(num_states, dtype=bool)
        frontier = np.flatnonzero(indeg == 0)
        depth = 0
        while frontier.size:
            depth += 1
            live[frontier] = False
            counts = outdeg[frontier]
            out = np.repeat(first[frontier] - (np.cumsum(counts) - counts), counts)
            out += np.arange(out.size)
            ends = dst[out]
            np.subtract.at(indeg, ends, 1)
            ends = np.sort(ends[indeg[ends] == 0])
            frontier = ends[np.diff(ends, prepend=-1) != 0]
        hub = (live & (outdeg != 1)).tolist()
        for r in relays:
            hub[r] = True
        live = live.tolist()
        # The out-edge of each single-exit state (past the end for a state without one).
        nxt, nletter, ncost = (np.append(col, 0)[first].tolist()
                               for col in (dst, letter, cost))
        mark = [0] * num_states                  # 1: on this walk, 2: walked
        for v in range(num_states):
            walk = []
            while live[v] and not hub[v] and not mark[v]:
                mark[v] = 1
                walk.append(v)
                v = nxt[v]
            if mark[v] == 1:                     # a cycle of single-exit states
                hub[v] = True
            for u in walk:
                mark[u] = 2

        ids = [s for s in range(num_states) if hub[s]]
        index = {s: i for i, s in enumerate(ids)}
        # state -> (word and prefix costs to the next hub, that hub, and the
        # relay exits on the way as (letters before them, letter, relay, cost))
        chains = {}
        full, part = {}, [{}]    # part[j] for 1 <= j < span
        widest = {}                              # length -> longest entry list
        relaxations = 0                          # sum of widest.values()
        budget = _NORMALIZE_BUDGET
        for h in ids:
            src = index[h]
            made = [(alphabet[b], index[r], f) for b, r, f in exits.get(h, ())]
            budget -= len(made)
            edges = slice(first[h], first[h] + outdeg[h])
            for a, q, c in zip(letter[edges].tolist(), dst[edges].tolist(),
                               cost[edges].tolist()):
                tail = chains.get(q)
                if tail is None:
                    rest, costs, v = "", [], q
                    while not hub[v]:
                        rest += alphabet[nletter[v]]
                        costs.append(ncost[v] + (costs[-1] if costs else 0))
                        v = nxt[v]
                    ways = []
                    if exits:
                        u = q                    # reached after j letters
                        for j in range(1, len(rest) + 1):
                            ways += [(j, b, r, f) for b, r, f in exits.get(u, ())]
                            u = nxt[u]
                    tail = chains[q] = rest, costs, index[v], ways
                rest, costs, dst_hub, ways = tail
                word = alphabet[a] + rest
                n = len(word)
                budget -= n
                if budget < 0:
                    return None
                while len(part) < n:
                    part.append({})
                paid = c                         # the cost of word[:j]
                for j in range(1, n):
                    ends = part[j].setdefault(word[:j], {})
                    if paid < ends.get(src, _INF):
                        ends[src] = paid
                    paid = c + costs[j - 1]
                made.append((word, dst_hub, paid))
                # A relay exit after j letters is a macro-edge of j + 1.
                for j, b, r, f in ways:
                    budget -= j + 1
                    made.append((word[:j] + alphabet[b], index[r],
                                 c + (costs[j - 2] if j > 1 else 0) + f))
                if budget < 0:
                    return None
            for word, dst_hub, paid in made:
                n = len(word)
                pairs = full.setdefault(n, {}).setdefault(word, {})
                if paid < pairs.get((src, dst_hub), _INF):
                    pairs[(src, dst_hub)] = paid
                    if len(pairs) > widest.get(n, 0):
                        widest[n] = len(pairs)
                        relaxations += 1
                        if relaxations > limit:
                            return None
        full = {n: {w: [(s, d, c) for (s, d), c in pairs.items()]
                    for w, pairs in table.items()} for n, table in full.items()}
        part = {j: {w: list(ends.items()) for w, ends in table.items()}
                for j, table in enumerate(part) if table}
        return cls(ids, depth, full, part, alphabet)


def _window_costs(hubs: int, full, rank):
    """The window tables `_Hubs.costs` and `_Hubs.missing`, or (None, None)."""
    if hubs != 1 or len(full) != 1:
        return None, None
    [(n, table)] = full.items()
    if len(rank) ** n > _NORMALIZE_BUDGET:
        return None, None
    costs = np.zeros(len(rank) ** n, dtype=np.int64)
    missing = np.ones(len(rank) ** n, dtype=bool)
    for word, [(_, _, c)] in table.items():
        code = 0
        for a in word:
            code = code * len(rank) + rank[a]
        costs[code], missing[code] = c, False
    return costs, missing


def _free_ends(part, word: str, t: int, best, hub_costs):
    """min(best, the cheapest path that ends inside a chain at letter t):
    hub_costs(u) lists the hub costs at letter u."""
    for j, table in part:
        ends = table.get(word[t - j:t])
        if ends:
            old = hub_costs(t - j)
            for s, c in ends:
                c += old[s]
                if c < best:
                    best = c
    return best


def _sweep_hubs(hubs: _Hubs, word: str, positions: List[int], ring) -> list:
    """Values of K at the positions past `lead` by the hub loop (see
    _Hubs), up to the first unreachable one.

    Each letter relaxes the macro-edges whose word ends there, per length,
    looked up once per distinct window of the last span letters (at most
    _WINDOW_MEMO windows are kept at a time).  Only the hub costs of the
    last span letters are kept, in the `ring` indexed by letter that
    `_sweep` filled up to `lead`: a letter's costs are complete before
    they take the slot of the letter span back.
    """
    span, lead, full = hubs.span, hubs.lead, hubs.full
    blank = [_INF] * len(hubs.ids)
    out = []
    samples = iter(positions)
    want = next(samples)
    last = lead                      # a letter at which some hub may be finite
    memo = {}                        # window -> [(length, macro-edges ending it)]
    for t in range(lead + 1, positions[-1] + 1):
        window = word[t - span:t]
        ends = memo.get(window)
        if ends is None:
            if len(memo) >= _WINDOW_MEMO:
                memo.clear()
            ends = memo[window] = [(n, edges) for n, table in full
                                   if (edges := table.get(window[span - n:]))]
        new = blank.copy()
        for n, edges in ends:
            old = ring[(t - n) % span]
            for s, d, c in edges:
                c += old[s]
                if c < new[d]:
                    new[d] = c
        ring[t % span] = new
        if new != blank:
            last = t
        elif t - last >= span:
            break                    # no state is reachable from here on
        if t == want:
            best = _free_ends(hubs.part, word, t, min(new), lambda u: ring[u % span])
            if best >= _INF:
                break
            out.append(best)
            want = next(samples, None)
    return out


def _sweep_sums(hubs: _Hubs, word: str, positions: List[int], ring) -> list:
    """Values of K at the positions past `lead` by prefix sums, for one hub
    with one macro-edge length L, up to the first unreachable one.

    The hub cost at letter t is its cost at t - L plus the cost of the
    window word[t - L:t]: one running sum per residue of t mod L, started
    from the last L hub costs up to `lead` in the `ring` that `_sweep`
    filled.  A window with no macro-edge cuts its residue from there on: a
    separate running "or" marks the cut sums, so _INF never enters a sum.
    K is then read at the positions only.
    """
    span, lead, stop = hubs.span, hubs.lead, positions[-1]
    # Row r, column i: the window that ends at letter lead + 1 + r * span + i.
    # The last row is padded with copies of the word's first letter.
    first, rows = lead + 1 - span, -(-(stop - lead) // span)
    text = word[first:stop] + word[0] * (rows * span - (stop - lead))
    codes = np.convolve(np.frombuffer(text.translate(hubs.rank).encode(
        "utf-32-le", "surrogatepass"), dtype=np.uint32), hubs.powers, "valid")
    sums, cut = hubs.costs[codes].reshape(rows, span), hubs.missing[codes].reshape(rows, span)
    sums.cumsum(axis=0, out=sums)
    np.logical_or.accumulate(cut, axis=0, out=cut)   # a window so far had no macro-edge
    base = [ring[t % span][0] for t in range(first, lead + 1)]
    sums += [0 if c >= _INF else c for c in base]
    cut |= [c >= _INF for c in base]
    sums[cut] = _INF
    sums = sums.ravel()                      # sums[t - lead - 1]: hub cost at letter t

    def hub_costs(u):
        return [int(sums[u - lead - 1])] if u > lead else ring[u % span]
    out = []
    for t in positions:
        best = _free_ends(hubs.part, word, t, hub_costs(t)[0], hub_costs)
        if best >= _INF:
            break
        out.append(best)
    return out


def _relays(adj, intra) -> list:
    """The states v whose intra in-degree times out-degree, len(adj[v]),
    exceeds their sum: closing through v would make more closure entries
    than it saves."""
    return [v for v, i in Counter(map(itemgetter(1), intra)).items()
            if i > 1 and i * len(adj[v]) > i + len(adj[v])]


def _distances(source: int, first, out) -> dict:
    """Dijkstra from `source` over its own edges `first`, then out[v] at each v."""
    dist = {source: 0}
    heap = []
    for d, w in first:
        if w < dist.get(d, math.inf):
            dist[d] = w
            heapq.heappush(heap, (w, d))
    while heap:
        c, v = heapq.heappop(heap)
        if c > dist[v]:
            continue
        for d, w in out[v]:
            nc = c + w
            if nc < dist.get(d, math.inf):
                dist[d] = nc
                heapq.heappush(heap, (nc, d))
    return dist


def _closure_into(num_states: int, intra, advance):
    """(into, reach, dominant, reached): into[t] = [(s, cost of the
    cheapest intra path s -> t that enters no relay), ...] for each state t
    that reads a letter (only (t, 0) if t is a relay), [] for the others;
    reach[q] = [(r, cost of the cheapest intra path q -> r), ...] over the
    relays r != q, for each entered state q that reaches one; dominant[q] =
    [(q2, w), ...] for each intra edge q2 -> q != q2 of weight w between
    two entered states that are not relays (`_prune`); reached, the set of
    relays in reach, which the sweep keeps as hubs (`_pick_step`).

    The sweep starts every state at cost 0 and costs are >= 0, so on the
    first letter a path through t is cheapest when it starts at t itself;
    from then on only states that some advancing edge enters hold a finite
    cost, and a relay (`_relays`) holds the cost of its cheapest intra path
    from one of them, which `_CompiledSweep` folds into the letter's edges.
    So the sources are the entered states and the relays (Dijkstra over
    the intra edges, not through a relay) and each reading state itself
    (cost 0): a path through relays is cut at its last one.  Each entry
    makes one closure edge per advancing edge out of t, charged to
    _CLOSURE_BUDGET as the entry is made.
    """
    reads = [0] * num_states
    entered = [False] * num_states
    for group in advance.values():
        for s, d, _ in group:
            reads[s] += 1
            entered[d] = True
    adj = [[] for _ in range(num_states)]
    for s, d, w in intra:
        adj[s].append((d, w))
    relays = _relays(adj, intra)
    closes, out = entered, adj                   # Dijkstra sources, edges past the source
    if relays:
        # Past its source, a Dijkstra crosses a relay only by its hops: the
        # intra paths that end at the next relays.
        is_relay = [False] * num_states
        closes, out = entered.copy(), adj.copy()
        for r in relays:
            is_relay[r] = closes[r] = True
            out[r] = []
        hops = [[(v, c) for v, c in _distances(r, adj[r], out).items()
                 if is_relay[v] and v != r] for r in relays]
        for r, ends in zip(relays, hops):
            out[r] = ends
    into = [[] for _ in range(num_states)]
    reach = {}
    reached = set()
    charged = 0
    for source in range(num_states):
        if closes[source] and adj[source]:
            dist = _distances(source, adj[source], out)
            if relays:
                # The relays it reaches are folded in, not entries.
                ends = [(r, c) for r, c in dist.items() if is_relay[r] and r != source]
                for r, _ in ends:
                    del dist[r]
                if ends and entered[source]:
                    reach[source] = ends
                    reached.update(r for r, _ in ends)
        else:
            dist = {source: 0}
        for t, c in dist.items():
            if reads[t]:
                into[t].append((source, c))
                charged += reads[t]
                if charged > _CLOSURE_BUDGET:
                    raise BudgetExceeded("intra-layer closure is too dense to sweep",
                                         _CLOSURE_BUDGET)
    dominant = {}
    barred = set(relays)         # dominance is never measured at or through a relay
    for s, d, w in intra:
        if entered[d] and entered[s] and s != d and s not in barred and d not in barred:
            dominant.setdefault(d, []).append((s, w))
    return into, reach, dominant, reached


# Compiled sweeps by id(automaton); each entry leaves with its automaton.
_sweep_cache: dict = {}


def _compiled(aut: LabeledAutomaton) -> _CompiledSweep:
    key = id(aut)
    eng = _sweep_cache.get(key)
    if eng is None:
        eng = _CompiledSweep(aut)
        _sweep_cache[key] = eng
        weakref.finalize(aut, _sweep_cache.pop, key, None)
    return eng
