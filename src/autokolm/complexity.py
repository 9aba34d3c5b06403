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
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .automaton import EPSILON, LabeledAutomaton, word_to_indices
from .errors import BudgetExceeded, ContractError
from .modes import UNBOUNDED, DescriptionMode, PairDescriptionMode

UNREACHABLE = math.inf

# A per-letter step that relaxes at most this many edges runs in plain
# Python; above it the numpy scatter-min is faster per letter (measured
# crossover between 24 and 28 edges on carry automata and random graphs).
_PYTHON_STEP_EDGES = 24
_INF = 1 << 62
_NORMALIZE_BUDGET = 5_000_000


def _check_mode(mode):
    if mode.certificate.bound == UNBOUNDED:
        raise ContractError(
            f"mode {mode.name!r} is certified unbounded; complexity is undefined")


def complexity(mode: DescriptionMode, word: str):
    """Minimal description length of `word`, or math.inf when unreachable."""
    _check_mode(mode)
    letters = word_to_indices(mode.automaton, 1, word)
    return _sweep(mode.automaton, letters, [len(letters)])[0]


def pair_complexity(mode: PairDescriptionMode, word: str):
    """Minimal |u|+|v| over pair descriptions (u,v) of `word`."""
    _check_mode(mode)
    letters = word_to_indices(mode.automaton, 2, word)
    return _sweep(mode.automaton, letters, [len(letters)])[0]


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
    letters = word_to_indices(mode.automaton, 1, source[:positions[-1]])
    values = _sweep(mode.automaton, letters, positions)
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
    """Split edges into intra-layer (epsilon object) and advancing groups;
    reads[s] counts the advancing edges out of s."""
    obj = aut.arity - 1
    intra = []
    advance = [[] for _ in aut.alphabets[obj]]
    reads = [0] * aut.num_states
    for src, dst, label in aut.edges:
        w = sum(1 for t in range(obj) if label[t] is not EPSILON)
        if label[obj] is EPSILON:
            intra.append((src, dst, w))
        else:
            advance[label[obj]].append((src, dst, w))
            reads[src] += 1
    return intra, advance, reads


def _sweep(aut: LabeledAutomaton, letters: Sequence[int],
           positions: List[int]) -> list:
    """Values of K at the given prefix lengths (strictly ascending)."""
    if aut.num_states == 0:
        return [UNREACHABLE] * len(positions)
    eng = _compiled(aut)
    if eng.step is _sweep_hubs:
        return _sweep_hubs(eng, letters, positions)
    dist, best = eng.start, 0
    out = []
    done = 0
    for n in positions:
        if n > done and best != UNREACHABLE:
            dist, best = eng.step(eng.by_letter, dist, letters[done:n])
            done = n
        out.append(best)
    return out


class _CompiledSweep:
    """Per-automaton closure edges and the per-letter step that walks them.

    Intra-layer edges are pre-composed into the advancing edges via an
    all-pairs closure of the epsilon-object subgraph, so each object
    letter relaxes one edge list.  Trailing intra-layer moves never help
    (weights are nonnegative and the end state is free), so only
    source-side closure is needed.  `_pick_step` chooses how a letter is
    swept: plain Python over a dict of reachable states, the hub DP over
    macro-edges (`_Hubs`), or a numpy scatter-min over the closure edges.
    """

    def __init__(self, aut: LabeledAutomaton):
        intra, advance, reads = _classify_edges(aut)
        closure_into = _closure_into(aut.num_states, intra, reads)
        by_letter = [[(s, q, c + w) for t, q, w in group for s, c in closure_into[t]]
                     for group in advance]
        self.step, self.hubs = _pick_step(aut.num_states, by_letter)
        if self.step is _step_python:
            self.by_letter = by_letter
            self.start = dict.fromkeys(range(aut.num_states), 0)
        else:
            self.by_letter = [
                tuple(np.asarray(edges, dtype=np.int64).reshape(-1, 3).T.copy())
                for edges in by_letter]
            self.start = np.zeros(aut.num_states, dtype=np.int64)


def _pick_step(num_states: int, by_letter):
    """The step and its hub graph (or None): Python while a letter relaxes
    at most _PYTHON_STEP_EDGES closure edges; else the hub DP if its worst
    letter relaxes that few macro-edges; else numpy over the closure edges."""
    if max(map(len, by_letter), default=0) <= _PYTHON_STEP_EDGES:
        return _step_python, None
    hubs = _Hubs.compile(num_states, by_letter, _PYTHON_STEP_EDGES)
    if hubs is None:
        return _step_numpy, None
    return _sweep_hubs, hubs


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

    From letter `lead` = depth + span - 1 on, a path that ends inside a
    chain left its hub at most span - 1 letters earlier, at a letter no
    earlier than `depth`; a path that ends at a hub left the previous hub
    at most span letters earlier.  So hub costs follow from the hub costs
    of the last span letters, and K from those plus the prefix matches.
    """

    def __init__(self, ids, depth, full, part, key):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.full = sorted(full.items())
        self.part = sorted(part.items())
        self.span = max(full, default=1)
        self.lead = depth + self.span - 1
        self.key = key

    @classmethod
    def compile(cls, num_states: int, by_letter, limit):
        """The hub graph, or None once a letter would relax more than
        `limit` macro-edges or the macro-edges exceed the compile budget."""
        out = [[] for _ in range(num_states)]    # out[s] = [(letter, q, cost)]
        indeg = [0] * num_states
        for a, edges in enumerate(by_letter):
            for s, q, c in edges:
                out[s].append((a, q, c))
                indeg[q] += 1
        live = [True] * num_states
        frontier = [q for q in range(num_states) if not indeg[q]]
        depth = 0
        while frontier:
            depth += 1
            peeled = frontier
            frontier = []
            for s in peeled:
                live[s] = False
                for _, q, _ in out[s]:
                    indeg[q] -= 1
                    if not indeg[q]:
                        frontier.append(q)
        hub = [live[s] and len(out[s]) != 1 for s in range(num_states)]
        mark = [0] * num_states                  # 1: on this walk, 2: walked
        for v in range(num_states):
            walk = []
            while live[v] and not hub[v] and not mark[v]:
                mark[v] = 1
                walk.append(v)
                _, v, _ = out[v][0]
            if mark[v] == 1:                     # a cycle of single-exit states
                hub[v] = True
            for u in walk:
                mark[u] = 2

        ids = [s for s in range(num_states) if hub[s]]
        index = {s: i for i, s in enumerate(ids)}
        key = bytes if len(by_letter) <= 256 else tuple
        full, part = {}, {}
        widest = {}                              # length -> longest entry list
        relaxations = 0                          # sum of widest.values()
        budget = _NORMALIZE_BUDGET
        for h in ids:
            src = index[h]
            for a, q, c in out[h]:
                word, costs = [a], [c]
                while not hub[q]:
                    (a, q, c), = out[q]
                    word.append(a)
                    costs.append(costs[-1] + c)
                budget -= len(word)
                if budget < 0:
                    return None
                for j in range(1, len(word)):
                    ends = part.setdefault(j, {}).setdefault(key(word[:j]), {})
                    if costs[j - 1] < ends.get(src, _INF):
                        ends[src] = costs[j - 1]
                n = len(word)
                pairs = full.setdefault(n, {}).setdefault(key(word), {})
                dst = index[q]
                if costs[-1] < pairs.get((src, dst), _INF):
                    pairs[(src, dst)] = costs[-1]
                    if len(pairs) > widest.get(n, 0):
                        widest[n] = len(pairs)
                        relaxations += 1
                        if relaxations > limit:
                            return None
        full = {n: {w: [(s, d, c) for (s, d), c in pairs.items()]
                    for w, pairs in table.items()} for n, table in full.items()}
        part = {j: {w: list(ends.items()) for w, ends in table.items()}
                for j, table in part.items()}
        return cls(ids, depth, full, part, key)


def _sweep_hubs(eng: _CompiledSweep, letters: Sequence[int],
                positions: List[int]) -> list:
    """Values of K by the hub DP (see _Hubs).

    The first `lead` letters take the numpy closure step one letter at a
    time, keeping the hub costs of the last `span` of them; each later
    letter relaxes the macro-edges whose word ends there, per length.
    Only the hub costs of the last span letters are kept, in a ring
    indexed by letter: a letter's costs are complete before they take
    the slot of the letter span back.
    """
    hubs = eng.hubs
    span, lead = hubs.span, hubs.lead
    ring = [None] * span
    out = []
    dist, best = eng.start, 0
    stop = positions[-1]
    for t in range(min(lead, stop) + 1):
        if t:
            dist, best = _step_numpy(eng.by_letter, dist, letters[t - 1:t])
            if best == UNREACHABLE:
                break
        if t > lead - span:
            ring[t % span] = dist[hubs.ids].tolist()
        if t == positions[len(out)]:
            out.append(best)
    if best != UNREACHABLE and stop > lead:
        seq = hubs.key(letters)
        full, part = hubs.full, hubs.part
        blank = [_INF] * len(hubs.ids)
        samples = iter(positions[len(out):])
        want = next(samples)
        last = lead                  # a letter at which some hub may be finite
        for t in range(lead + 1, stop + 1):
            new = blank.copy()
            for n, table in full:
                edges = table.get(seq[t - n:t])
                if edges:
                    old = ring[(t - n) % span]
                    for s, d, c in edges:
                        c += old[s]
                        if c < new[d]:
                            new[d] = c
            ring[t % span] = new
            if new != blank:
                last = t
            elif t - last >= span:
                break                # no state is reachable from here on
            if t == want:
                best = min(new)
                for j, table in part:
                    ends = table.get(seq[t - j:t])
                    if ends:
                        old = ring[(t - j) % span]
                        for s, c in ends:
                            c += old[s]
                            if c < best:
                                best = c
                if best >= _INF:
                    break
                out.append(best)
                want = next(samples, None)
    return out + [UNREACHABLE] * (len(positions) - len(out))


def _closure_into(num_states: int, intra, reads) -> list:
    """closure_into[t] = [(s, cost of cheapest intra path s -> t), ...] for
    each t with reads[t] > 0 advancing out-edges, [] for the others.  Each
    entry makes reads[t] closure edges, charged to _NORMALIZE_BUDGET at once."""
    adj = [[] for _ in range(num_states)]
    for s, d, w in intra:
        adj[s].append((d, w))
    into = [[] for _ in range(num_states)]
    charged = 0
    for source in range(num_states):
        dist = {source: 0}
        heap = [(0, source)]
        while heap:
            c, v = heapq.heappop(heap)
            if c > dist.get(v, math.inf):
                continue
            for d, w in adj[v]:
                nc = c + w
                if nc < dist.get(d, math.inf):
                    dist[d] = nc
                    heapq.heappush(heap, (nc, d))
        for t, c in dist.items():
            if reads[t]:
                into[t].append((source, c))
                charged += reads[t]
                if charged > _NORMALIZE_BUDGET:
                    raise BudgetExceeded("intra-layer closure is too dense to sweep",
                                         _NORMALIZE_BUDGET)
    return into


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
