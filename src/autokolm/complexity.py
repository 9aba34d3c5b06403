"""Exact complexity of words under description modes.

K(x) is the minimum number of description letters on any path spelling
exactly x on the object tape.  The computation is a shortest-path sweep
over layers (state, object position): edges whose object component is
epsilon stay in a layer, matching edges advance it, and the edge weight
is the count of non-epsilon description components (0 or 1 for binary
modes, up to 2 for pair modes).
"""

from __future__ import annotations

import math
import random
import time
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Callable, List

import numpy as np

from .automaton import LabeledAutomaton, components
from .errors import BudgetExceeded, ContractError, InputRejected
from .modes import UNBOUNDED, DescriptionMode, PairDescriptionMode

UNREACHABLE = math.inf

# One estimate routes every compiled sweep (`_pick_step`), from the
# compiled counts and unit costs in us: a closure edge relaxed by the
# Python step (a letter costs two more, for its dict), a call (the numpy
# step makes _NUMPY_STEP_CALLS per letter, the prefix sums tail its
# `_TAIL_CALLS` and each component those of its kind, `_Kind.price`,
# counted under cProfile), a closure edge scattered by the numpy step,
# and a cell the tail sweeps.  Warm calls, min of 9-41 runs (2-vCPU
# host): the Python step took 0.24-0.34 us per letter on identity (1
# edge), 0.34 on joint (2), 0.58 on wall(3) (4), 0.74-0.97 on wall(5) (6)
# and 1.5-2.2 on coder3 (16); the numpy step 3.2 on coder3, 7.6-11 on the
# k=8 coder (1,152 edges) and 84 on compose(coder5, coder5) (21,900); the
# tail's fixed cost 19-26 for identity (28 calls), 88 for joint (144) and
# 2.0-2.1 per gather.  So the Python step is the cheaper up to 29 edges
# per letter (measured crossover 24-40).  The ring, a letter the closure
# step takes alone before a hand-off, costs 1.1-2.0 us.  A prologue
# table's look-up costs 3 calls and spares the closure step's call, whose
# fixed part costs about one letter's calls on the numpy step (3.5 us on
# coder4, 3 a letter).  Hand-offs, letters past `lead` (break-even with
# window codes by doubling: where lines fit to warm calls with the
# hand-off forced to 0 and 2**30 cross, over a grid around the estimate,
# 5 Bernoulli(0.9) words, min of 21, 3 rounds): identity 61 (53), union
# 115 (103), wall(5) 466 (401), wall(3) 720 (722), joint 113 (107),
# unary(3) 38 (33), with prologue tables coder1-3 46/22/8 (50/29/10);
# after the numpy step, with tables coder4-8 and skewed coder4 1 (1),
# reverse(coder4) 10 (14), reverse(coder8) 1 (3), layered(coder4, 2) 23
# (26) and compose(coder4, coder4) 30 (42); with dense maps, see _DENSE.
_US_PER_RELAXATION, _US_PER_CALL, _US_PER_SCATTER, _US_PER_CELL = 0.1, 0.6, 0.004, 0.0005
_NUMPY_STEP_CALLS = 5
_TAIL_CALLS = {"chunk": 14, "gather": 3, "ring": 2, "prologue": 3}
_SCAN_ROW_CELLS = 6
_NORMALIZE_BUDGET = 5_000_000
# A cost of _INF or more is unreachable.  Every cost is at most _INF, and
# every sum of two is capped at _INF before a third term is added to it, so
# no value exceeds 3 * _INF < 2**63 and int64 never wraps.
_INF = 1 << 61
# A chunk of the prefix sums tail holds at most _CHUNK_CELLS cells, counted
# by the widest array it holds per letter: a cost row per hub, or a
# component's widest (`_Kind.width`).  So its memory does not grow with
# the word.  It also holds at most _CHUNK_LETTERS letters, so that its
# per-letter arrays (window codes, a hub's cost row) stay near 128 KiB,
# which malloc keeps in its heap: with 65,536-letter chunks they were
# fresh pages on every call, and the page faults took a third of a warm
# coder4 curve (48k Bernoulli(0.9) bits, step 3,000, min of 40, 2-vCPU
# host: 249 faults and 860-1,220 us per call, 0 and 580-810 us with the
# cap).
_CHUNK_CELLS = 1 << 16
_CHUNK_LETTERS = 1 << 14
# Window codes by doubling (`_windows`) cost 2 numpy calls a level, and
# one correlation less below about 512 windows (min of 7, 2-vCPU host: at
# span 8 5.7 against 2.2 us at 16 windows and 6.4 against 8.3 at 1,024;
# the two cross at 500-900 windows for spans 3 to 8).
_DOUBLING_WINDOWS = 512
# Closure edges over all letters.  The closure is charged from its entry
# counts (each entry into t makes one edge per letter-reading edge out of
# t) before any closure edge is made: the trivial and one-hop entries at
# once, then each Dijkstra's entries as it ends.  The folded relay edges
# are charged on top of the edges left after pruning (`_CompiledSweep`),
# not on top of that first count.  The largest closure any mode in the
# tests or the benchmark needs is reverse(k=8 coder)'s 67,584;
# layered(k=8 coder, 2), whose hub is a relay, makes about 13,400 (about
# 11,000 after pruning, plus 2,600 folded).
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
    """The edges as int64 arrays (src, dst, letter, weight): letter is the
    object letter's index in the object alphabet (-1 for epsilon), weight
    the count of non-epsilon description components."""
    return aut.src, aut.dst, aut.letters[-1], np.count_nonzero(aut.letters[:-1] >= 0, axis=0)


def _sweep(aut: LabeledAutomaton, word: str, positions: List[int]) -> list:
    """Values of K at the given prefix lengths (strictly ascending) of
    `word`, read on the object tape.

    The closure step runs in batches between positions, over the whole
    word unless it reaches `handoff` letters past the hub graph's `lead`:
    then it stops at `lead`.  The hub costs of the last `span` letters up
    to it, one row per letter, come from the prologue table (`_Hubs`) at
    the code of the word's first `lead` letters, or else from the closure
    step, one letter at a time (read from the Python step's dict as from
    the numpy step's array).  The tail answers the positions past `lead`
    from those rows, if one is reachable.  The word is read once, into
    its letters' ranks (`_Ranks`), which is also its alphabet check: a
    cold call makes it before it compiles the mode.  Every position past
    the word's first dead letter (`_CompiledSweep`) is unreachable.
    """
    eng = _sweep_cache.get(id(aut))
    rank = _Ranks(aut.alphabets[-1]) if eng is None else eng.rank
    letters = word.translate(rank)
    if (bad := letters.find(rank.other)) >= 0:
        raise InputRejected(f"symbol {word[bad]!r} not in alphabet of tape {aut.arity - 1}")
    eng, count = eng or _compiled(aut), len(positions)
    if eng.dead:
        end = min((i for i in map(letters.find, eng.dead) if i >= 0), default=len(word))
        positions = positions[:bisect_right(positions, end)]
    if not positions or aut.num_states == 0:
        return [UNREACHABLE] * count
    hubs = eng.hubs
    stops, lead, fill, last = positions, positions[-1], (), None
    if hubs is not None and lead - hubs.lead >= hubs.handoff:
        lead = hubs.lead
        if hubs.prologue is None:
            fill = range(lead - hubs.span + 1, lead + 1)
            stops = [*positions[:bisect_left(positions, fill.start)], *fill]
            last = np.empty((hubs.span, len(hubs.ids)), dtype=np.int64)
        else:
            code = 0
            for r in map(ord, letters[:lead]):
                code = code * len(hubs.alphabet) + r
            stops = positions[:bisect_right(positions, lead)]
            last = hubs.prologue[code] if hubs.reached[code] else None
    dist, best, done, out = eng.start, 0, 0, []
    for t in stops:
        if t > done:
            dist, best = eng.step(eng.by_letter, dist, word[done:t])
            done = t
            if best == UNREACHABLE:
                break
        if t in fill:
            last[t - fill.start] = (list(map(dist.get, hubs.keys, repeat(_INF)))
                                    if type(dist) is dict else dist[hubs.ids])
        if t == positions[len(out)]:
            out.append(best)
    if best != UNREACHABLE and lead < positions[-1] and last is not None:
        letters += letters[:1] * (hubs.period - 1)        # a last chunk's padding
        ranks = np.frombuffer(letters.encode(eng.rank.codec, "surrogatepass"), eng.rank.dtype)
        out += _sweep_sums(hubs, ranks, positions[len(out):], last)
    return out + [UNREACHABLE] * (count - len(out))


class _CompiledSweep:
    """Per-automaton closure edges and the per-letter step that walks them.

    The compile is one array pipeline from the automaton's edges to the
    hub tables, with no Python loop over states.  Intra-layer edges are
    pre-composed into the advancing edges via a closure of the
    epsilon-object subgraph from the states a sweep can be in
    (`_closure_into`, whose entries `_closure_edges` joins with the
    advancing edges), so each object letter relaxes one edge list.
    Trailing intra-layer moves never help (weights are nonnegative and the
    end state is free), so only source-side closure is needed.  The
    closure does not pass through relays, states of wide intra fan-in and
    fan-out such as the layered hub; each letter's edge list also carries
    the edges into the relays (`_fold_relays`), so a relay's cost after a
    letter is closure output like any other and feeds the next letter as
    a closure source.  Before the folding, a letter's edge into a state
    that an intra edge from another of its targets makes no cheaper is
    dropped (`_prune`); the glue edges between layered copies and the
    synchronised moves of a composition make many such edges.
    `_pick_step` chooses the closure step, plain Python over a dict of
    the closure edges' sources or a numpy scatter-min over the closure
    edges, and the hub graph (`_Hubs`) that the prefix sums tail
    (`_sweep_sums`) sweeps past its `lead` from `handoff` letters on, or
    None; `rank` reads words (`_Ranks`), `dead` holds the ranks, as
    characters, of the letters that no closure edge reads, and `stages`
    the seconds of each stage of the compile (`_Stages`).
    """

    def __init__(self, aut: LabeledAutomaton):
        stages = _Stages()
        self.rank = _Ranks(aut.alphabets[-1])
        edges = _classify_edges(aut)
        entries, reach, dominant, relays = _closure_into(aut.num_states, *edges)
        stages.lap("closure")
        by_letter = _closure_edges(entries, *edges, aut.alphabets[-1])
        stages.lap("closure edges")
        if dominant[0].size:
            near = _offsets(dominant[0], aut.num_states)
            by_letter = {a: _prune(closure, dominant, near) for a, closure in by_letter.items()}
        if reach[0].size:
            near = _offsets(reach[0], aut.num_states)
            charged = sum(srcs.size for srcs, _, _ in by_letter.values())
            for a, closure in by_letter.items():
                by_letter[a], charged = _fold_relays(closure, reach, near, charged)
        stages.lap("prune and fold")
        # A letter that no closure edge reads ends every word that reaches it.
        self.dead = [chr(r) for r, (srcs, _, _) in enumerate(by_letter.values()) if not srcs.size]
        self.step, self.by_letter, self.hubs = _pick_step(aut.num_states, by_letter, relays, stages)
        if self.step is _step_python:
            # The step reads the costs of the closure edges' sources only.
            self.start = dict.fromkeys((s for edges in self.by_letter.values()
                                        for s, _, _ in edges), 0)
        else:
            self.start = np.zeros(aut.num_states, dtype=np.int64)
        stages.lap("hub graph")
        self.stages = dict(stages)


class _Stages(dict):
    """Seconds per compile stage; a lap charges those since the last lap to
    the stage it names.  "hub graph" is `_pick_step` but for its "scans"
    (`_scans`) and "prologue" (`_prologue`)."""

    def __init__(self):
        super().__init__(dict.fromkeys(("closure", "closure edges", "prune and fold",
                                        "hub graph", "scans", "prologue"), 0.0))
        self.last = time.perf_counter()

    def lap(self, stage: str):
        now = time.perf_counter()
        self[stage], self.last = self[stage] + now - self.last, now


class _Ranks(dict):
    """`str.translate`'s table from each letter of the object alphabet to
    its rank, its index there, and from any other code point to |alphabet|
    (`other`); `codec` encodes ranks as the narrowest unsigned `dtype` that
    holds |alphabet|."""

    def __init__(self, alphabet):
        super().__init__(zip(map(ord, alphabet), range(len(alphabet))))
        self.other, self.dtype = chr(len(alphabet)), np.min_scalar_type(len(alphabet))
        self.codec = {1: "latin-1", 2: "utf-16-le", 4: "utf-32-le"}[self.dtype.itemsize]

    def __missing__(self, point):
        return len(self)


def _ranges(first, count):
    """The indices first[i]:first[i] + count[i] of every i, concatenated."""
    ends = count.cumsum()
    return (first - ends + count).repeat(count) + np.arange(ends[-1] if ends.size else 0)


def _offsets(keys, size: int = 0):
    """(count, first): the entries equal to v in the sorted int `keys` are
    first[v]:first[v] + count[v], for each v below size or the largest key."""
    count = np.bincount(keys, minlength=size)
    return count, count.cumsum() - count


def _matches(offsets, probes):
    """The indices of the entries equal to each probe in sorted keys of
    these `_offsets`, concatenated, and their count per probe."""
    count, first = offsets
    count = count[probes]
    return _ranges(first[probes], count), count


def _argsort(key, top: int):
    """An order that sorts the values 0..top of `key`, cast to the
    narrowest unsigned dtype that holds top: numpy radix-sorts keys of 16
    bits or less, stably, and wider ones fastest by its quicksort."""
    key = key.astype(np.min_scalar_type(top))
    return key.argsort(kind="stable" if key.itemsize <= 2 else None)


def _runs(key):
    """A mask of the first entry of each run of equal values in `key`."""
    first = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    return first


def _cheapest(*columns):
    """The rows of the columns (nonnegative keys, then a cost) with the
    least cost per distinct key, sorted by key."""
    *keys, cost = columns
    if not cost.size:                # 9 numpy calls, about 9 us, on nothing
        return columns
    key, top = keys[0], int(keys[0].max(initial=0))
    for k in keys[1:]:
        width = int(k.max(initial=0)) + 1
        if top >= (1 << 62) // width:
            key = np.unique(key, return_inverse=True)[1]      # the same order, numbered densely
            top = int(key.max(initial=0))
        key, top = key * width + k, top * width + width - 1
    order = _argsort(key, top)
    first = _runs(key[order]).nonzero()[0]
    return (*(k[order[first]] for k in keys), np.minimum.reduceat(cost[order], first))


def _closure_edges(entries, src, dst, letter, weight, alphabet):
    """Each letter's closure edges (sources, targets, costs) as int64
    arrays: (s, q, c + w) for each entry (s, t, c) of `_closure_into`
    and each advancing edge (t, q, w) reading the letter, in edge order."""
    into, at, paid = entries
    advance = (letter >= 0).nonzero()[0]
    read = letter[advance].astype(np.min_scalar_type(len(alphabet)))
    order = read.argsort(kind="stable")
    advance = advance[order]
    pick, count = _matches(_offsets(at), src[advance])    # each reading state has an entry
    srcs, dsts = into[pick], dst[advance].repeat(count)
    costs = paid[pick] + weight[advance].repeat(count)
    cut = np.append(0, count.cumsum())[read[order].searchsorted(np.arange(len(alphabet) + 1))]
    return {a: (srcs[i:k], dsts[i:k], costs[i:k])
            for a, i, k in zip(alphabet, cut.tolist(), cut[1:].tolist())}


def _fold_relays(edges, reach, near, charged: int):
    """A letter's closure edges (s, q, c) plus one edge (s, r, the least
    c + d) per relay r that some q reaches at intra cost d (`reach` of
    `_closure_into`, `near` the `_offsets` of its q), and `charged` plus
    the edges added, which are charged to _CLOSURE_BUDGET."""
    srcs, dsts, costs = edges
    _, relay, far = reach
    pick, count = _matches(near, dsts)
    folded = _cheapest(srcs.repeat(count), relay[pick], costs.repeat(count) + far[pick])
    charged += folded[0].size
    if charged > _CLOSURE_BUDGET:
        raise BudgetExceeded("intra-layer closure is too dense to sweep", _CLOSURE_BUDGET)
    return tuple(map(np.concatenate, zip(edges, folded))), charged


def _prune(edges, dominant, near):
    """A letter's closure edge arrays without the dominated edges, and
    without all but the cheapest of parallel edges, sorted by (source,
    target).

    (s, q, c) is dominated when the letter also has an edge (s, q2, c2)
    and `dominant` a row (q, q2, w), an intra edge q2 -> q of weight w
    (`near`: the `_offsets` of its q, over every q of the edges),
    with c2 + w <= c, and either c2 < c or the letter's edges first name
    (s, q2) after (s, q).  Both q2 and q are entered and neither is a
    relay, so the next letter's closure from q2 covers every way on from
    q at w more (folded relay edges included), and q2 is no dearer an end.
    Each drop is witnessed by an edge strictly earlier in the order of
    cost, then of naming from last to first, so every chain of drops ends
    at a kept edge: of a cycle of equally cheap states that dominate each
    other (zero-cost intra edges), the one named last stays.
    """
    srcs, dsts, costs = edges
    _, far, weight = dominant
    n = int(max(dsts.max(initial=0), far.max(initial=0))) + 1
    key, seen = _cheapest(srcs * n + dsts, np.arange(srcs.size))   # where (s, q) comes first
    _, costs = _cheapest(srcs * n + dsts, costs)
    pick, count = _matches(near, key % n)
    edge = np.arange(key.size).repeat(count)
    other = key[edge] - key[edge] % n + far[pick]
    at = np.minimum(key.searchsorted(other), key.size - 1)
    found = key[at] == other
    edge, at, weight = edge[found], at[found], weight[pick][found]
    covers = costs[at] + weight <= costs[edge]
    kept = np.ones(key.size, dtype=bool)
    kept[edge[covers & ((costs[at] < costs[edge]) | (seen[at] > seen[edge]))]] = False
    return key[kept] // n, key[kept] % n, costs[kept]


def _edge_lists(by_letter):
    """Closure edge arrays per letter as lists of (s, q, c)."""
    return {a: list(zip(*(col.tolist() for col in edges))) for a, edges in by_letter.items()}


def _pick_step(num_states: int, by_letter, relays, stages):
    """The closure step, the edges it reads per letter, and the hub graph
    (or None) with the `relays` as hubs that the prefix sums tail sweeps.

    One estimate chooses both: the Python step where it is estimated no
    dearer per letter than numpy's scatter-min on the letter with the
    most closure edges (`_step_us`), else the numpy step; and the hub
    graph where it compiles (`_Hubs.compile`) and the tail is estimated
    cheaper than that step, on the letter with the fewest closure edges
    but at least one (a letter without any ends every word that reads
    it), from some word length on (`_handoff`), else None.  The hub
    compile's time goes to `stages` (`_Stages`).
    """
    sizes = [srcs.size for srcs, _, _ in by_letter.values()]
    widest = max(sizes, default=0)
    python = _step_us(True, widest) <= _step_us(False, widest)
    hubs = _Hubs.compile(num_states, by_letter, relays, stages)
    if hubs is not None:
        hubs.handoff = _handoff(hubs, _step_us(python, min(filter(None, sizes), default=0)),
                                0 if python else _US_PER_CALL * _NUMPY_STEP_CALLS)
        if hubs.handoff is None:
            hubs = None
    if python:
        return _step_python, _edge_lists(by_letter), hubs
    return _step_numpy, by_letter, hubs


def _step_us(python: bool, edges: int) -> float:
    """The estimated cost in us of a letter of `edges` closure edges under
    the Python step (python true) or the numpy step."""
    if python:
        return _US_PER_RELAXATION * (edges + 2)
    return _US_PER_CALL * _NUMPY_STEP_CALLS + _US_PER_SCATTER * edges


def _handoff(hubs, step_us: float, call_us: float):
    """The fewest letters past `lead` from which the prefix sums tail is
    estimated cheaper than a closure step of `step_us` per letter and
    `call_us` per call, or None when it is on no word of up to 2**24
    letters.

    A chunk makes _TAIL_CALLS["chunk"] calls, a gather into k hubs
    "gather" and k cells a letter, and a component with macro-edges
    inside it those of its kind (`_Kind.price`), a scan's per level, one
    more than log2 of its rows; the `span` letters before `lead`, which
    the closure step then takes one at a time, "ring" each, or with a
    prologue table its look-up "prologue", against a closure step over
    `lead` letters more and its call.
    """
    calls, cells, scans = _TAIL_CALLS["chunk"], 0, []
    for _, k, length, table, gathers in hubs.scans:
        sweep_calls, sweep_cells, level_calls = table[0].price(k, table) if table else (0, 0, 0)
        calls += _TAIL_CALLS["gather"] * len(gathers) + sweep_calls
        cells += k * len(gathers) + sweep_cells
        if level_calls:
            scans.append((length, level_calls))

    def chunk_us(letters):
        level_calls = sum(((-(-letters // n) - 1).bit_length() + 1) * c for n, c in scans)
        return _US_PER_CALL * (calls + level_calls) + _US_PER_CELL * cells * letters

    # The tail's ring, or its table look-up against the closure step's first
    # `lead` letters and call.
    fixed, spared = _US_PER_CALL * _TAIL_CALLS["ring"] * hubs.span, 0
    if hubs.prologue is not None:
        fixed, spared = _US_PER_CALL * _TAIL_CALLS["prologue"], step_us * hubs.lead + call_us

    def cheaper(letters):
        full, rest = divmod(letters, hubs.chunk)
        tail = full * chunk_us(hubs.chunk) + (chunk_us(rest) if rest else 0)
        return tail + fixed < step_us * letters + spared
    top = 1
    while not cheaper(top):
        if top >= 1 << 24:
            return None
        top *= 2
    low = top // 2 + 1                           # top // 2 is dearer, or 0 (no tail at all)
    return low + bisect_left(range(low, top), True, key=cheaper)


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
    best = None
    for a in letters:
        srcs, dsts, ws = by_letter[a]
        buf.fill(_INF)
        np.minimum.at(buf, dsts, dist[srcs] + ws)
        dist, buf = buf, dist
        best = dist.min()
        if best >= _INF:
            return dist, UNREACHABLE
    return dist, int(dist.min() if best is None else best)


class _Hubs:
    """The closure graph cut into hubs joined by macro-edges.

    Peeling the states that no remaining closure edge enters (Kahn's
    algorithm) takes `depth` rounds; a state peeled in round r has no
    finite cost from letter r on.  The states left are live, and every
    closure edge out of a live state enters a live state.  A hub is a
    live state whose out-degree is not 1, plus one state on each cycle
    of out-degree-1 states: the first one that the walk from the lowest
    state leading into the cycle meets.  From each out-edge of a hub, the
    out-degree-1 states lead one letter at a time to the next hub: that
    path is a macro-edge with an object word w, a cost, and the cost of
    each proper prefix.  A word is held as its code: the letters' ranks,
    their positions in `alphabet`, read as digits in base |alphabet|,
    first letter most significant, so that the code of a word's last n
    letters is its code mod |alphabet|**n.  `part` holds,
    per 1 <= j < span, the code of w[:j] -> [(src hub, prefix cost)], the
    cheapest entry per hub.  Chains may merge, so one state can lie on
    many macro-edges.

    The edges into relays (`_fold_relays`) stay out of the peeling and the
    hub choice, and each relay is a hub that is never peeled.  A relay's
    cost at a letter is that of the cheapest path into it, which left a
    hub at most span letters earlier and took its last letter out of that
    hub or out of a state on one of its chains: each such relay exit after
    j letters of a macro-edge is one more macro-edge of length j + 1 into
    the relay.  The relay's own out-edges start macro-edges like any
    hub's.

    From letter `lead` = depth + span - 1 on, a path that ends inside a
    chain left its hub at most span - 1 letters earlier, at a letter no
    earlier than `depth`; a path that ends at a hub left the previous hub
    at most span letters earlier.  So hub costs follow from the hub costs
    of the last span letters, and K from those plus the prefix matches.

    The hubs and macro-edges form a graph whose strongly connected
    components `scans` lists in topological order with their window
    tables (`_scans`); a hub graph exists only where it has them.  The
    prefix sums tail sweeps `chunk` letters at a time (_CHUNK_CELLS,
    _CHUNK_LETTERS), each chunk padded to a multiple of `period`, the
    least common multiple of the macro-edge lengths inside components.  A
    call takes the tail when its word reaches `handoff` letters past
    `lead`, the break-even against the closure step that `_pick_step`
    estimates (`_handoff`); `keys` lists the hubs as ints, to read the
    Python step's dict of costs.

    A graph of one hub with depth <= 1, no relay and `lead` > 0 also has
    the prologue table and `reached` (`_prologue`), if its (span + 1)
    |alphabet|**span cells fit _NORMALIZE_BUDGET with the window table.
    """

    def __init__(self, ids, lead, span, part, alphabet, scans, prologue):
        self.ids, self.lead, self.span, self.part, self.scans = ids, lead, span, part, scans
        self.prologue, self.reached = prologue or (None, None)
        self.keys, self.handoff, self.alphabet = ids.tolist(), 0, alphabet
        self.period = math.lcm(*(length for _, _, length, _, _ in scans if length))
        widest = max([len(ids), *(table[0].width(k) for _, k, _, table, _ in scans if table)])
        self.chunk = max(min(_CHUNK_CELLS // max(widest, 1), _CHUNK_LETTERS), 1)

    @classmethod
    def compile(cls, num_states: int, by_letter, relays, stages):
        """The hub graph of the closure edge arrays with the `relays` as
        hubs, or None where it has no window tables (`_scans`) or its
        walk exceeds the compile budget.

        All hub out-edges walk their chains at once, one letter per round
        (`_macro_edges`), each carrying the code of its word.  The time of
        `_scans` and `_prologue` goes to their `stages`.
        """
        alphabet = list(by_letter)
        srcs, dst, cost = (np.concatenate(col) for col in zip(*by_letter.values()))
        letter = np.arange(len(alphabet)).repeat([e[0].size for e in by_letter.values()])
        relay = np.zeros(num_states, dtype=bool)
        relay[np.fromiter(relays, np.int64)] = True
        into = relay[dst]
        # The out-edges of s are first[s]:first[s] + outdeg[s]; its relay
        # exits (edges into relays) follow, xcount[s] of them.
        order = _argsort(srcs * 2 + into, 2 * num_states)
        dst, cost, letter = dst[order], cost[order], letter[order]
        xcount, first = _offsets(srcs, num_states)
        outdeg = np.bincount(srcs[~into], minlength=num_states)
        xcount -= outdeg
        indeg = np.bincount(dst, minlength=num_states)
        indeg[relay] = dst.size + 1              # relays are never peeled
        live = np.ones(num_states, dtype=bool)
        frontier = (indeg == 0).nonzero()[0]
        depth = 0
        while frontier.size:
            depth += 1
            live[frontier] = False
            ends = dst[_ranges(first[frontier], outdeg[frontier])]
            np.subtract.at(indeg, ends, 1)
            ends = ends[indeg[ends] == 0]
            ends.sort()
            frontier = ends[_runs(ends)]
        hub = live & (outdeg != 1) | relay
        # The out-edge of each single-exit state (past the end for a state without one).
        nxt, nletter, ncost = (np.append(col, 0)[first] for col in (dst, letter, cost))
        hub[_cycle_hubs(live & ~hub, nxt)] = True
        ids = hub.nonzero()[0]
        index = np.zeros(num_states, dtype=np.int64)
        index[ids] = np.arange(ids.size)
        # A hub's exits are macro-edges of one letter.  The budget is charged
        # for them up to the last hub with out-edges, as a walk of the hubs
        # in turn that checks the budget after each macro-edge would.
        starts, outs, xouts = first[ids], outdeg[ids], xcount[ids]
        busy = outs.nonzero()[0]
        charged = int(xouts[:busy[-1] + 1].sum()) if busy.size else 0
        out = _ranges(starts, outs)
        exits = _ranges(starts + outs, xouts)
        tables = _macro_edges(
            (letter[out], np.arange(ids.size).repeat(outs), dst[out], cost[out]),
            (letter[exits], np.arange(ids.size).repeat(xouts), index[dst[exits]], cost[exits]),
            (hub, index, nxt, nletter, ncost, (letter, dst, cost), first + outdeg, xcount),
            len(alphabet), charged)
        stages.lap("hub graph")
        scans = tables and _scans(ids.size, tables[0], len(alphabet))
        stages.lap("scans")
        if scans is None:
            return None
        full, part = tables
        span, base = int(full[0][-1]) if full[0].size else 1, len(alphabet)
        lead, prologue = depth + span - 1, None
        if ids.size == 1 and scans[0][2] and lead and depth <= 1 and not relay.any() and (
                (span + 2) * base ** span <= _NORMALIZE_BUDGET):     # one hub, one length
            stages.lap("hub graph")
            prologue = _prologue(span, lead, base, live & ~hub, nxt, nletter, ncost,
                                 (letter, dst, cost))
            stages.lap("prologue")
        return cls(ids, lead, span, _word_tables(part), alphabet, scans, prologue)


def _scans(k: int, full, base: int):
    """The strongly connected components of the hub graph on k hubs whose
    macro-edges `full` (`_macro_edges`) lists, over the distinct hub
    pairs, in the topological order in which `components` numbers them,
    each as (hubs, size, L, table, gathers) for `_sweep_sums`: `hubs`
    numbers its `size` hubs (a slice when they are consecutive), L is the
    length of its macro-edges inside it (0 if none, and the table None),
    the table is that of its kind (`_Kind`), and a gather (n, s, table)
    holds at [d, code] the cost of the macro-edge of length n from hub s
    of an earlier component to its d-th hub.  None when a component has
    macro-edges of two lengths inside it, or when the tables exceed
    _NORMALIZE_BUDGET cells.
    """
    lengths, code, src, dst, paid = full
    span = int(lengths[-1]) if lengths.size else 1
    comp, count, key = np.zeros(k, dtype=np.int64), k, lengths
    if k > 1:        # one hub's macro-edges are all inside it, in order of length
        pairs = src * k + dst
        pairs = pairs[_argsort(pairs, k * k)]
        pairs = pairs[_runs(pairs)]
        comp = components(k, pairs // k, pairs % k)
        count = int(comp.max()) + 1
        # The macro-edges by (component of dst, from an earlier component,
        # length, src): each component's inside rows, then its gathers' rows.
        target = comp[dst]
        key = ((target * 2 + (comp[src] != target)) * (span + 1) + lengths) * k + src
        order = _argsort(key, 2 * count * (span + 1) * k)
        key = key[order]
        lengths, code, src, dst, paid = (col[order] for col in full)
    blocks = key.searchsorted(np.arange(2 * count + 1) * ((span + 1) * k)).tolist()
    groups = [*_runs(key).nonzero()[0].tolist(), key.size]
    hubs = comp.astype(np.min_scalar_type(count)).argsort(kind="stable")
    size = np.bincount(comp, minlength=count)
    local = np.empty_like(hubs)
    local[hubs] = np.arange(k) - (size.cumsum() - size).repeat(size)
    dsts, srcs, ns = local[dst], src.tolist(), lengths.tolist()
    plan, charged, at = [], 0, 0
    for c, kc in enumerate(size.tolist()):
        members, at = hubs[at:at + kc], at + kc
        inside, entering, end = blocks[2 * c:2 * c + 3]
        if inside < entering and ns[inside] != ns[entering - 1]:
            return None                          # two lengths inside
        length = ns[inside] if inside < entering else 0
        cut = groups[bisect_left(groups, entering):bisect_left(groups, end) + 1]
        n, kind = base ** length, None
        if length:
            mine = slice(inside, entering)
            edges = local[src[mine]], dsts[mine], code[mine], paid[mine]
            kind = next(fit for fit in _COMPONENT_KINDS if fit.fits(kc, len(cut) > 1, *edges[:3]))
            charged += kind.charge(kc, n)
        charged += sum(base ** ns[i] * kc for i in cut[:-1])
        if charged > _NORMALIZE_BUDGET:
            return None
        table = kind and (kind, *kind.build(kc, n, *edges))
        gathers = [(ns[i], srcs[i], _table((kc, base ** ns[i]), _INF, (dsts[i:j], code[i:j]),
                                           paid[i:j])) for i, j in zip(cut, cut[1:])]
        if members[-1] - members[0] < kc:
            members = slice(int(members[0]), int(members[-1]) + 1)
        plan.append((members, kc, length, table, gathers))
    return plan


def _prologue(span: int, lead: int, base: int, chain, nxt, nletter, ncost, edges):
    """The hub costs at letters lead - span + 1 .. lead of a hub graph of
    one hub, macro-edges of length span and depth <= 1, as [code of the
    word's first lead letters, row, 1]; and per code, whether one is below
    _INF.  Every state starts at cost 0, and every closure edge (s, q, c)
    enters a live state, whose chain (the `chain` states, successor nxt)
    leads to the hub: so the hub cost at letter t <= span is the least c
    plus its chain's cost over the edges on x[0] whose chain spells x[1:t].
    """
    letter, dst, cost = edges
    at = np.where(chain, nxt, np.arange(chain.size))
    # Per state, its chain's length, the code of its word, base**length and its cost.
    length, code, scale = chain.astype(np.int64), nletter * chain, chain * (base - 1) + 1
    paid = ncost * chain
    for _ in range((span - 1).bit_length()):            # 2**rounds > span - 1 letters
        step = scale[at]
        code, scale, length = code * step + code[at], scale * step, length + length[at]
        paid, at = paid + paid[at], at[at]
    top = base ** span
    costs = np.full((span + 1) * top, _INF, dtype=np.int64)     # [t * top + code of x[:t]]
    costs[0] = 0                                                # letter 0, at depth 0
    cell = (length[dst] + 1) * top + letter * scale[dst] + code[dst]
    np.minimum.at(costs, cell, cost + paid[dst])
    rows = np.arange(lead - span + 1, lead + 1)
    table = costs[rows * top + np.arange(base ** lead)[:, None] // base ** (lead - rows)]
    return table[:, :, None], (table < _INF).any(axis=1).tolist()


def _cycle_hubs(chain, nxt):
    """For each cycle of the single-exit `chain` states (successor nxt),
    the first state of it on the walk from the lowest state that leads
    into it, by pointer jumping, which stops once every walk has left the
    chain states."""
    n = chain.size
    rounds = max(n - 1, 1).bit_length()              # 2**rounds >= n steps
    end = np.where(chain, nxt, np.arange(n))
    for _ in range(rounds):
        if not chain[end].any():
            return end[:0]
        end = end[end]
    lost = chain[end].nonzero()[0]                   # states that never reach a hub
    on_cycle = np.zeros(n, dtype=bool)
    on_cycle[end[lost]] = True
    entry = np.where(on_cycle | ~chain, np.arange(n), nxt)
    name, step = np.arange(n), np.where(on_cycle, nxt, np.arange(n))
    for _ in range(rounds):
        entry = entry[entry]                         # the first cycle state ahead
        name = np.minimum(name, name[step])          # the lowest state of the cycle
        step = step[step]
    _, lowest = np.unique(name[end[lost]], return_index=True)
    return entry[lost[lowest]]


def _macro_edges(rows, ends, graph, base: int, charged: int):
    """(full, part) of the hub graph, or None past _NORMALIZE_BUDGET
    letters charged or once a walk passes the longest length L with
    base**L <= _NORMALIZE_BUDGET, since `_scans` has no window table for
    a longer macro-edge.

    `rows` are the hub out-edges as arrays (letter, src hub, state, cost)
    and `ends` the relay exits of the hubs, macro-edges of one letter, as
    arrays (letter, src hub, dst hub, cost); a word is its code (`_Hubs`),
    and the code of one letter is its index.  Round j moves every walk
    that is after j letters at a chain state one letter on, its code
    times base plus the letter.  full = (lengths, codes, src hubs, dst
    hubs, costs) and part = (lengths, codes, src hubs, costs) hold the
    cheapest entry per key, sorted by key.  Each round charges the
    letters of its walks and relay exits, as a walk of one macro-edge at
    a time that checks the budget after each would in the end.
    """
    hub, index, nxt, nletter, ncost, edges, xfirst, xcount = graph
    words, src, at, paid = rows
    ends = [ends]                                # macro-edges of j letters
    full, part = [(np.zeros(0, dtype=np.int64),) * 5], []
    j, relaying = 1, xcount.any()
    while True:
        charged += at.size
        done = hub[at]
        if done.any():
            ends.append((words[done], src[done], index[at[done]], paid[done]))
            keep = ~done
            words, src, at, paid = words[keep], src[keep], at[keep], paid[keep]
        if at.size and base ** (j + 1) > _NORMALIZE_BUDGET:
            return None                          # a macro-edge of j + 1 letters or more
        part.append((words, src, paid))
        if relaying:
            # A relay exit after j letters is a macro-edge of j + 1.
            exits = _ranges(xfirst[at], xcount[at])
            walk = np.arange(at.size).repeat(xcount[at])
            charged += (j + 1) * walk.size
        if charged > _NORMALIZE_BUDGET:
            return None
        ends = [piece for piece in ends if piece[0].size]
        if ends:
            table = _cheapest(*map(np.concatenate, zip(*ends)))
            full.append((np.full(table[0].size, j), *table))
        if not at.size:
            lengths = np.arange(1, j + 1).repeat([words.size for words, _, _ in part])
            return (tuple(map(np.concatenate, zip(*full))),
                    _cheapest(lengths, *map(np.concatenate, zip(*part))))
        ends = [(words[walk] * base + edges[0][exits], src[walk], index[edges[1][exits]],
                 paid[walk] + edges[2][exits])] if relaying else []
        words, paid, at = words * base + nletter[at], paid + ncost[at], nxt[at]
        j += 1


def _word_tables(table):
    """[(length, {code: [entry, ...]}), ...] of a table (lengths, codes,
    *entry columns) sorted by (length, code)."""
    lengths, words, *cols = table
    entries = list(zip(*(col.tolist() for col in cols)))
    first = _runs(lengths) | _runs(words)            # the first entry of each word
    if first.all():                                  # a trained coder's, 254 slices fewer
        entries = [[entry] for entry in entries]
    else:
        cut = [*first.nonzero()[0].tolist(), words.size]
        entries = list(map(entries.__getitem__, map(slice, cut, cut[1:])))
    lengths, words = lengths[first], words[first]
    cut = [*_runs(lengths).nonzero()[0].tolist(), lengths.size]
    return [(n, dict(zip(words[i:k].tolist(), entries[i:k])))
            for n, i, k in zip(lengths[cut[:-1]].tolist(), cut, cut[1:])]


def _sweep_sums(hubs: _Hubs, ranks, positions: List[int], last) -> list:
    """Values of K at the positions past `lead` by scans over the hub
    graph's components (`_Hubs.scans`), up to the first unreachable one.

    The letters past `lead` are swept hubs.chunk at a time.  Each chunk
    computes the window code of its letters' last span letters, and then
    the hub costs of its letters component by component, in topological
    order, from the hub costs of the span letters before it (at first the
    rows `last` that `_sweep` filled).  Macro-edges from earlier components
    are gathers: the cost of hub s at letter t - n plus the window cost
    table of (n, s) at the code of word[t - n:t], which is the span
    letters' code mod base**n.  Inside a component of macro-edges of
    length L the hub costs follow a recurrence on t - L, one per residue
    of t mod L, which its kind's sweep solves (`_Kind`).  K at a position
    of the chunk is then the cheapest path that ends at a hub or inside a
    chain: `part` at the code of the last j letters, the window code
    there mod base**j.
    """
    span, lead, stop = hubs.span, hubs.lead, positions[-1]
    base = len(hubs.alphabet)
    past = last.T
    out, samples = [], iter(positions)
    want = next(samples)
    for first in range(lead + 1, stop + 1, hubs.chunk):
        size = min(hubs.chunk, stop + 1 - first)
        padded = size + -size % hubs.period
        # codes[i]: the code of the window that ends at letter first + i.  The
        # padding reads on, and past the word's end repeats its first letter.
        codes = _windows(ranks[first - span:first + padded - 1], base, span)
        # cost[h, span + i]: the cost of hub h at letter first + i.
        cost = np.empty((len(hubs.ids), span + padded), dtype=np.int64)
        cost[:, :span] = past
        windows = {base ** span: codes}

        def window(m):
            if m not in windows:
                windows[m] = codes % m
            return windows[m]
        for component in hubs.scans:
            _sweep_component(cost, *component, window, span)

        while want is not None and want < first + size:
            # recent[-1 - j]: the hub costs at letter want - j.
            recent = cost[:, want - first + 1:want - first + span + 1].T.tolist()
            best = min(recent[-1], default=_INF)
            if hubs.part:
                code = int(codes[want - first])
                for j, table in hubs.part:
                    for s, c in table.get(code % base ** j, ()):
                        best = min(best, recent[-1 - j][s] + c)
            if best >= _INF:
                return out
            out.append(best)
            want = next(samples, None)
        past = cost[:, size:size + span]
        if first + size <= stop and (past >= _INF).all():
            break                        # no hub is reachable from here on
    return out


def _windows(ranks, base: int, span: int):
    """The codes (`_Hubs`) of the windows of span letters in `ranks`, as
    intp.  Fewer than _DOUBLING_WINDOWS of more than two letters take one
    correlation with the powers of base; more double (Hillis & Steele,
    "Data parallel algorithms", 1986) in the narrowest dtype that holds
    base**span - 1: windows of 2m letters from two of m, and of span
    letters from one per set bit of span, the lowest bit's most significant."""
    n = ranks.size - span + 1
    if span > 2 and n < _DOUBLING_WINDOWS:
        return np.correlate(ranks, base ** np.arange(span - 1, -1, -1), "valid")
    level, codes, have, m = ranks.astype(np.min_scalar_type(base ** span - 1)), None, 0, 1
    while True:                          # level: the codes of the windows of m letters
        if span & m:
            piece, have = level[have:have + n], have + m
            codes = piece if codes is None else codes * base ** m + piece
        if have == span:
            return codes.astype(np.intp)
        level, m = level[:-m] * base ** m + level[m:], 2 * m


def _sweep_component(cost, members, k, length, table, gathers, window, span):
    """The rows `members` (k hubs) of a chunk's hub costs `cost` (see
    _sweep_sums) past its first span columns, from the columns before them
    (`before`, L of them, for its kind's sweep) and the rows of earlier
    components; window(m) gives the window codes mod m."""
    entering = None                      # [d, i]: the cheapest gather into hub d at i
    for n, s, gather in gathers:
        costs = gather.take(window(gather.shape[1]), axis=1) + cost[s, span - n:-n]
        entering = costs if entering is None else np.minimum(entering, costs, out=entering)
    if entering is not None:
        np.minimum(entering, _INF, out=entering)
    if not length:
        cost[members, span:] = _INF if entering is None else entering
        return
    table[0].sweep(cost, members, table, window, entering, cost[members, span - length:span], span)


def _sweep_one_hub(cost, members, table, window, entering, before, span):
    """The row `members` of `cost`, as `_sweep_component`, for one hub
    (`_ONE_HUB`): running sums per residue of the window costs."""
    _, costs, missing = table
    before = before[0].tolist()
    dead = [c >= _INF for c in before]
    if False not in dead:
        cost[members, span:] = _INF
        return
    codes = window(len(costs))
    sums = costs.take(codes, out=cost[members, span:][0], mode="clip")
    if len(before) > 1:
        sums = sums.reshape(-1, len(before))
    sums.cumsum(axis=0, out=sums)
    sums += [0 if c >= _INF else c for c in before]
    if missing is not None:
        cut = missing[codes].reshape(sums.shape)
        np.logical_or.accumulate(cut, axis=0, out=cut)   # a window so far had no macro-edge
        cut |= dead
        sums[cut] = _INF
    elif True in dead:
        sums.reshape(-1, len(before))[:, dead] = _INF


def _sweep_scan(cost, members, table, window, entering, before, span):
    """The rows `members` of `cost`, as `_sweep_component`, by a min-plus
    scan per residue (`_scan_hubs`) of the kind's `maps`, hubs last."""
    kind, *tables = table
    k, length = before.shape
    width = cost.shape[1] - span
    codes = window(len(tables[-1]))
    maps = [t.take(codes, axis=0).reshape(-1, length, *t.shape[1:]) for t in tables]
    costs = np.full((width, k), _INF) if entering is None else entering.T
    costs = costs.reshape(-1, length, k)
    then, apply = kind.maps
    np.minimum(apply([t[:1] for t in maps], before.T[None]), costs[:1], out=costs[:1])
    cost[members, span:] = _scan_hubs(maps, costs, then, apply).reshape(width, k).T


def _sweep_rotation(cost, members, table, window, entering, before, span):
    """The rows `members` of `cost`, as `_sweep_component`, for a rotation
    component of k hubs (`_ROTATION`).  Its k chains never merge: per
    residue, the chain from hub h before the chunk is at hub (h - S_j) mod
    k after row j, S_j the cumsum of the rows' shifts.  Its costs are
    running sums from before[h], cut at a missing macro-edge as the
    one-hub sums are, and hub d holds chain (d + S_j) mod k.
    """
    _, shift, costs = table
    k, length = before.shape
    width, n = cost.shape[1] - span, len(shift)
    codes = window(n)
    turns = shift.take(codes).reshape(-1, length)
    turns.cumsum(axis=0, out=turns)
    turns -= turns // k * k                     # mod k: numpy's // is vectorized, its % not
    turns = turns.reshape(-1)
    # rows[h, j, r]: chain h's cost at row j and residue r, then its
    # running sum.  The chain is at hub (h - t) mod k, t the letter's turn:
    # costs.flat[(h - t) * n + code], which take's mode "wrap" reduces mod
    # k * n.  Every array here has k rows of the chunk's letters.
    hubs = np.arange(k)[:, None]
    rows = costs.take(hubs * n + (codes - turns * n), mode="wrap").reshape(k, -1, length)
    cut = rows >= _INF
    missing = cut.any()
    if missing:
        rows[cut] = 0
    rows[:, 0] += before
    rows.cumsum(axis=1, out=rows)
    if missing:
        np.logical_or.accumulate(cut, axis=1, out=cut)  # a window so far had no macro-edge
        rows[cut] = _INF
    if (before >= _INF).any():
        np.minimum(rows, _INF, out=rows)                 # the dead chains
    # Hub d at letter i holds chain (d + t) mod k, read in the same way.
    cost[members, span:] = rows.take(hubs * width + (turns * width + np.arange(width)), mode="wrap")


def _sweep_rank_one(cost, members, table, window, entering, before, span):
    """The rows `members` of `cost`, as `_sweep_component`, for a rank-one
    component (`_RANK_ONE`).  Past a row of letters, every hub but the one
    its words enter holds only its gathers, so per residue the cost y_j
    of that hub at row j follows y_j = min(y_{j-1} + a_j, b_j)
    (`_first_order`): a_j is the cost out of the hub that row j - 1
    entered, and b_j the cheaper of the gathers into the hub and of the
    gathers of row j - 1 (`before` for the first row) plus the cost out
    of their hubs.
    """
    _, to, costs = table
    length, width = before.shape[1], cost.shape[1] - span
    n = to.size
    codes = window(n)
    dst = to.take(codes)
    # The cell in `cost` of the hub that each letter's word enters.
    cells = (np.arange(len(cost))[members].take(dst) * cost.shape[1]
             + np.arange(span, span + width))
    cost[members, span:] = _INF if entering is None else entering
    a = np.zeros(width, dtype=np.int64)
    costs.reshape(-1).take(dst[:-length] * n + codes[length:], out=a[length:])
    # Row j - 1's hubs hold their gathers, and the hubs before the chunk
    # their costs.
    through = costs.take(codes if entering is not None else codes[:length], axis=1)
    through[:, :length] += before
    if entering is None:
        b = np.full(width, _INF, dtype=np.int64)
        np.minimum(through.min(axis=0), _INF, out=b[:length])
    else:
        through[:, length:] += entering[:, :-length]
        b = np.minimum(through.min(axis=0), cost.take(cells))    # at most _INF, as the gathers
    cost.put(cells, _first_order(a.reshape(-1, length), b.reshape(-1, length)))


def _first_order(a, b):
    """y[0] = b[0] and y[r] = min(y[r - 1] + a[r], b[r]) down the rows r
    of the int64 arrays a and b, column by column, capped at _INF: a[0] is
    0, a and b are at most _INF, and a[r] >= _INF starts y afresh at b[r].

    With the sums s of a, y[r] = s[r] + the least b[i] - s[i] for i <= r:
    one cumsum and one running minimum.  A fresh start adds `top` to the
    sums, more than every finite b and the finite a together, and so more
    than every finite y; an unreachable b is clamped to top.  Every b - s
    after a fresh start is then below every one before it, and a path
    across it costs top or more, which reads as unreachable.  Where top
    times the rows could wrap int64 (costs near 2**47, which no mode here
    reaches), the rows are taken one at a time.
    """
    top = _INF
    fresh = a >= _INF
    if fresh.any():
        top = int(b.max(where=b < _INF, initial=0)) + int(a.sum(where=~fresh)) + 1
        if top * (len(a) + 2) >= _INF:
            y = b.copy()
            for r in range(1, len(a)):
                np.minimum(np.minimum(y[r - 1] + a[r], _INF), b[r], out=y[r])
            return y
        a, b = np.where(fresh, top, a), np.minimum(b, top)
    sums = a.cumsum(axis=0)
    least = b - sums
    np.minimum.accumulate(least, axis=0, out=least)
    least += sums
    if top < _INF:
        least[least >= top] = _INF
    return np.minimum(least, _INF, out=least)


def _min_plus(a, b):
    """The min-plus products a @ b, capped at _INF, of the matrices (or
    column vectors b) on the last two axes of a and b."""
    out = a[..., :, :1] + b[..., :1, :]
    for j in range(1, b.shape[-2]):
        np.minimum(out, a[..., :, j:j + 1] + b[..., j:j + 1, :], out=out)
    return np.minimum(out, _INF, out=out)


def _last_axis(a, index):
    """The flat indices into `a` of np.take_along_axis(a, index, -1), for an
    index of a's shape.  The row offsets are repeated to that shape, as a
    broadcast over a last axis of a few hubs runs many short loops."""
    k = a.shape[-1]
    return index + np.arange(0, a.size, k).repeat(k).reshape(a.shape)


def _gather_then(first, then):
    (g0, c0), (g1, c1) = first, then
    flat = _last_axis(g0, g1)
    return [g0.reshape(-1).take(flat), np.minimum(c1 + c0.reshape(-1).take(flat), _INF)]


def _gather_apply(maps, x):
    g, c = maps
    return np.minimum(x.reshape(-1).take(_last_axis(x, g)) + c, _INF)


def _table(shape, fill, index, values, dtype=np.int64):
    """An array of `shape` that holds `values` at `index` and `fill` elsewhere."""
    table = np.full(shape, fill, dtype=dtype)
    table[index] = values
    return table


@dataclass(eq=False)
class _Kind:
    """A kind of component (`_scans`) of k hubs, numbered in order, with
    macro-edges (src, dst, code, cost) of length L inside it: its arrays
    are indexed by code (n = |alphabet|**L) and hub, _INF where none is."""

    name: str
    fits: Callable      # (k, gathered, src, dst, code); gathered: a gather enters it
    charge: Callable    # (k, n): the cells of its arrays, but a mask of missing words
    build: Callable     # (k, n, src, dst, code, cost): its arrays
    price: Callable     # (k, table): calls a chunk, cells a letter, calls a scan level
    width: Callable     # (k): the cells a letter of its sweep's widest array
    sweep: Callable     # (cost, members, table, window, entering, before, span)
    maps: tuple = None  # (then, apply) of a scanned kind's maps (`_sweep_scan`)


# One hub that no gather enters: costs[code], the cost of each word that
# is a macro-edge (0 for the others), and missing[code], which marks the
# others (None when every word is one; the words are distinct).  Its
# running sums make 14 calls a chunk, 9 more with missing words.
_ONE_HUB = _Kind(
    "one-hub", fits=lambda k, gathered, *_: k == 1 and not gathered, charge=lambda k, n: n,
    build=lambda k, n, src, dst, code, cost: (
        _table(n, 0, code, cost), None if code.size == n else _table(n, True, code, False, bool)),
    price=lambda k, table: (14 + 9 * (table[2] is not None), 1, 0),
    width=lambda k: 1, sweep=_sweep_one_hub)
# More hubs that no gather enters, where each word's macro-edges enter hub
# d from hub (d + shift[code]) mod k, at costs[d, code]: the copy roots of
# a layered mode, and the joint.  Its sweep, 9 calls under cProfile and
# more array operators, costs 3.9 times a one-hub component's 14 (23
# against 6 us at 64 letters): 41 more (9 more with missing macro-edges),
# and k cells a letter plus one per call.
_ROTATION = _Kind(
    "rotation", fits=lambda k, gathered, src, dst, code: k > 1 and not gathered and (
        _runs(np.sort(code * k + (src - dst) % k)).sum() == _runs(np.sort(code)).sum()),
    charge=lambda k, n: (k + 1) * n,
    build=lambda k, n, src, dst, code, cost: (_table(n, 0, code, (src - dst) % k, np.intp),
                                              _table((k, n), _INF, (dst, code), cost)),
    price=lambda k, table: (14 + 41 + 9 * bool((table[2] >= _INF).any()), k + 41, 0),
    width=lambda k: k, sweep=_sweep_rotation)
# More hubs, no two macro-edges of a word into one: at [code, d] the hub
# that the one into hub d leaves, and its cost (a composition of coders).
# Its scan composes two maps in O(k) cells: 14 calls a chunk and 29 a
# level, and a letter k cells plus _SCAN_ROW_CELLS per row at each of a
# level's calls, twice over as its rows halve.
_GATHER = _Kind(
    "gather", fits=lambda k, _, src, dst, code: k > 1 and _runs(np.sort(code * k + dst)).all(),
    charge=lambda k, n: 2 * k * n,
    build=lambda k, n, src, dst, code, cost: (_table((n, k), 0, (code, dst), src, np.intp),
                                              _table((n, k), _INF, (code, dst), cost)),
    price=lambda k, table: (14, 2 * 29 * (k + _SCAN_ROW_CELLS), 29),
    width=lambda k: k, sweep=_sweep_scan, maps=(_gather_then, _gather_apply))
# The macro-edges of each word enter one hub, to[code], from hub s at
# costs[s, code]: a reversed coder, or one hub that gathers enter.  Its
# sweep makes 19 calls more than a one-hub component's 14 (9 more with
# missing macro-edges), and k cells a letter plus one per call.
_RANK_ONE = _Kind(
    "rank-one", fits=lambda k, _, src, dst, code: (
        _runs(np.sort(code * k + dst)).sum() == _runs(np.sort(code)).sum()),
    charge=lambda k, n: (k + 1) * n,
    build=lambda k, n, src, dst, code, cost: (_table(n, 0, code, dst, np.intp),
                                              _table((k, n), _INF, (src, code), cost)),
    price=lambda k, table: (14 + 19 + 9 * bool((table[2] >= _INF).any()), k + 19, 0),
    width=lambda k: k, sweep=_sweep_rank_one)
# Any other: costs[code, d, s] of the macro-edge from hub s into hub d.
# Priced as a gather scan with k**2 (k + 9) / 17 cells for k, fit to warm
# dense scans of k = 3 to 16 hubs, L = 1, 2 and 4, of 16 letters to a
# chunk (0.1-0.2 ms at k = 3 and 0.4-0.9 ms at k = 16 for 16 letters,
# 0.3-0.5 and 10-18 us per letter in a chunk); its min-plus products loop
# over the hubs, 4 more calls per hub a level, fit to the measured
# break-evens of four compositions of 4 to 8 hubs (hand-offs, letters past
# `lead`): compose(coder2, coder2) 80 (70-90), compose(coder2, coder4) 44
# (40-50), compose(coder3, reverse(coder2)) 176 (220-256) and
# reverse(compose(coder1, coder2)) 313 (290-320).
_DENSE = _Kind(
    "dense", fits=lambda *_: True, charge=lambda k, n: k * k * n,
    build=lambda k, n, src, dst, code, cost: (_table((n, k, k), _INF, (code, dst, src), cost),),
    price=lambda k, table: (14, 2 * 29 * (k * k * (k + 9) // 17 + _SCAN_ROW_CELLS), 29 + 4 * k),
    width=lambda k: k * k, sweep=_sweep_scan,
    maps=(lambda first, then: [_min_plus(then[0], first[0])],
          lambda maps, x: _min_plus(maps[0], x[..., None])[..., 0]))
_COMPONENT_KINDS = _ONE_HUB, _ROTATION, _GATHER, _RANK_ONE, _DENSE


def _scan_hubs(maps, costs, then, apply):
    """x[r] = min(apply(maps[r], x[r - 1]), costs[r]), with x[0] = costs[0],
    for the rows r on the first axis of the maps and of the hub costs: the
    rows are letters L apart, counted from the chunk's first letter, and
    each holds L residues.

    Pairs of rows fold into one row of half as many, which the recursion
    solves; the odd rows then hold their x and each even row takes one
    more step (Blelloch's scan: O(rows) compositions in O(log rows) calls).
    """
    rows = len(costs)
    if rows > 1:
        pairs = 2 * (rows // 2)
        odd_maps = [t[1::2] for t in maps]
        odd = _scan_hubs(then([t[0:pairs:2] for t in maps], odd_maps),
                         np.minimum(apply(odd_maps, costs[0:pairs:2]), costs[1::2]), then, apply)
        costs[1::2] = odd
        even = costs[2::2]
        np.minimum(apply([t[2::2] for t in maps], odd[:len(even)]), even, out=even)
    return costs


def _relays(outdeg, indeg):
    """The states v whose intra in-degree times out-degree exceeds their
    sum: closing through v would make more closure entries than it saves."""
    return ((indeg > 1) & (indeg * outdeg > indeg + outdeg)).nonzero()[0]


def _distances(source: int, adj, hops) -> dict:
    """Dijkstra from `source` over the core edges adj = (first, out, onward):
    the (dst, weight) rows first[v]:first[v + 1] of out leave v, and a state
    without edges onward is reached but never queued.  Past the source, a
    relay's edges are its `hops`.  Costs are small integers (an edge weighs
    at most the number of description tapes, a lifted one that times its
    tree path), so the queue is a list of buckets, one per cost."""
    first, out, onward = adj
    dist = {source: 0}
    get = dist.get
    buckets = [[source]]
    c = 0
    while c < len(buckets):
        bucket = buckets[c]
        while bucket:
            v = bucket.pop()
            if dist[v] != c:
                continue                         # reached more cheaply since
            for d, w in (hops[v] if v in hops and v != source
                         else out[first[v]:first[v + 1]].tolist()):
                if c + w < get(d, _INF):
                    dist[d] = c + w
                    if not onward[d]:
                        continue
                    while len(buckets) <= c + w:
                        buckets.append([])
                    buckets[c + w].append(d)
        buckets[c] = None                        # no later cost falls below c
        c += 1
    return dist


def _trees(stop, src, dst, weight):
    """(up, paid): each state's nearest ancestor among the `stop` states up
    the intra edges (src, dst, weight), one into each other state, and the
    cost of the path down from it, by pointer jumping (Hillis & Steele,
    1986).  A state below no stop (on or below a cycle) keeps a non-stop."""
    n = stop.size
    up, paid = np.arange(n), np.zeros(n, dtype=np.int64)
    into = ~stop[dst]
    tree = dst[into]
    up[tree], paid[tree] = src[into], weight[into]
    for _ in range(n.bit_length()):              # 2**rounds > n - 1 edges up
        if stop[up].all():
            break
        paid += paid[up]
        up = up[up]
    return up, paid


def _closure_into(num_states: int, src, dst, letter, weight):
    """(entries, reach, dominant, reached) of the edge arrays of
    `_classify_edges`.

    entries = (s, t, c) arrays sorted by (t, s): for each state t that
    reads a letter, c is the cost of the cheapest intra path s -> t that
    enters no relay (only s = t if t is a relay); reach = (q, r, c) arrays
    sorted by (q, r): c is the cost of the cheapest intra path from an
    entered state q to a relay r != q; dominant = (q, q2, w) arrays sorted
    by (q, q2), one per intra edge q2 -> q != q2 of weight w between two
    entered states that are not relays (`_prune`); reached, the relays in
    reach, which the sweep keeps as hubs (`_pick_step`).

    The sweep starts every state at cost 0 and costs are >= 0, so on the
    first letter a path through t is cheapest when it starts at t itself;
    from then on only states that some advancing edge enters hold a finite
    cost, and a relay (`_relays`) holds the cost of its cheapest intra path
    from one of them, which `_CompiledSweep` folds into the letter's edges.
    So the sources are each reading state itself (cost 0) and the entered
    states and the relays with intra out-edges: a path through relays is
    cut at its last one.  A path into a tree state, of intra in-degree 1
    and neither a source nor a relay, passes its stop (`_trees`).  So the
    sources search the core, the other states, over the intra edges into
    it, each lifted to leave its source's stop: a source whose core edges
    all end at states without edges on takes that one hop, the others run
    Dijkstra, not through a relay.  Each source and each state it reaches
    then pass their cost on to the reading states of their trees (a relay
    only as the source), through offsets.  Each entry makes one closure
    edge per advancing edge out of t; _CLOSURE_BUDGET is charged for those
    before any entry is made: the hops' at once, then each Dijkstra's.
    """
    intra = letter < 0
    isrc, idst, iw = src[intra], dst[intra], weight[intra]
    advance = ~intra
    reads = np.bincount(src[advance], minlength=num_states)
    entered = np.bincount(dst[advance], minlength=num_states) > 0
    outdeg, indeg = (np.bincount(col, minlength=num_states) for col in (isrc, idst))
    relay = np.zeros(num_states, dtype=bool)
    relay[np.asarray(_relays(outdeg, indeg), dtype=np.int64)] = True
    sources = (entered | relay) & (outdeg > 0)
    stop = (indeg != 1) | sources | relay
    up, paid = _trees(stop, isrc, idst, iw)
    # leaves[first[a]:first[a] + below[a]]: the reading tree states below stop a.
    leaves = (~stop & stop[up] & (reads > 0)).nonzero()[0]
    leaves = leaves[_argsort(up[leaves], num_states)]
    below, first = _offsets(up[leaves], num_states)
    # The closure edges of a path into a state: its trees' (grown) and its own.
    grown = np.bincount(up[leaves], reads[leaves], num_states).astype(np.int64)
    charge = (reads + grown) * ~relay
    # The core edges, by source, and their Dijkstra adjacency (`_distances`).
    core = (stop[idst] & stop[up[isrc]]).nonzero()[0]
    core = core[_argsort(up[isrc[core]], num_states)]
    csrc, cdst, cw = up[isrc[core]], idst[core], paid[isrc[core]] + iw[core]
    deep, hops = np.zeros(num_states, dtype=bool), {}     # deep: some core edge leads on
    if cdst.size:
        onward = np.bincount(csrc, minlength=num_states)
        adj = (memoryview(np.append(0, onward.cumsum())),
               memoryview(np.column_stack((cdst, cw))), memoryview(onward))
        onward[relay] = 0
        # Past its source, a Dijkstra crosses a relay only by its hops: the
        # core paths that end at the next relays.
        hops = dict.fromkeys(relay.nonzero()[0].tolist(), ())
        hops = {r: [(v, c) for v, c in _distances(r, adj, hops).items() if v in hops and v != r]
                for r in hops}
        onward[relay] = [len(ends) for ends in hops.values()]
        deep[csrc[onward[cdst] > 0]] = True
    hop = sources[csrc] & ~deep[csrc] & (csrc != cdst)
    own = (sources & ~deep).nonzero()[0]
    paths = [_cheapest(csrc[hop], cdst[hop], cw[hop]), (own, own, np.zeros_like(own))]
    charged = int(reads.sum() + charge[paths[0][1]].sum() + grown[own].sum())
    if charged > _CLOSURE_BUDGET:
        raise BudgetExceeded("intra-layer closure is too dense to sweep", _CLOSURE_BUDGET)
    # wanted[t]: entries (t or its trees read) or reach (t is a relay) keep paths to t.
    wanted, charge, grown = ((charge > 0) | relay).tobytes(), memoryview(charge), memoryview(grown)
    found = [], [], []
    for source in (sources & deep).nonzero()[0].tolist():
        dist = _distances(source, adj, hops)
        kept = list(compress(dist, map(wanted.__getitem__, dist)))
        charged += sum(map(charge.__getitem__, kept)) - charge[source] + grown[source]
        if charged > _CLOSURE_BUDGET:
            raise BudgetExceeded("intra-layer closure is too dense to sweep", _CLOSURE_BUDGET)
        found[0].extend(repeat(source, len(kept)))
        found[1].extend(kept)
        found[2].extend(map(dist.__getitem__, kept))
    paths.append(tuple(np.array(col, dtype=np.int64) for col in found))
    s, t, c = map(np.concatenate, zip(*paths))
    other, free = s != t, ~relay[t]
    grow = ~other | free                         # the paths whose trees are entered
    count = below[t[grow]]
    pick = leaves[_ranges(first[t[grow]], count)]
    near = other & free & (reads[t] > 0)
    trivial = reads.nonzero()[0]
    entries = [np.concatenate(cols) for cols in (
        (s[near], s[grow].repeat(count), trivial),
        (t[near], pick, trivial),
        (c[near], c[grow].repeat(count) + paid[pick], np.zeros_like(trivial)))]
    # Both come as runs already in order (the trivial entries, each tree's
    # leaves, each source's paths), which a stable sort (timsort) merges.
    order = (entries[1] * num_states + entries[0]).argsort(kind="stable")
    far = (other & ~free & entered[s]).nonzero()[0]
    far = far[(s[far] * num_states + t[far]).argsort(kind="stable")]
    plain = entered & ~relay
    dom = (plain[isrc] & plain[idst] & (isrc != idst)).nonzero()[0]
    dom = dom[np.lexsort((isrc[dom], idst[dom]))]
    return (tuple(col[order] for col in entries), tuple(col[far] for col in (s, t, c)),
            (idst[dom], isrc[dom], iw[dom]), np.bincount(t[far], minlength=num_states).nonzero()[0])


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
