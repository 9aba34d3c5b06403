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
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .automaton import EPSILON, LabeledAutomaton, word_to_indices
from .errors import BudgetExceeded, ContractError
from .modes import UNBOUNDED, DescriptionMode, PairDescriptionMode

UNREACHABLE = math.inf

# Closures with at most this many edges on every letter are swept in plain
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
                     step: int, verify: bool = True) -> ComplexityCurve:
    """Complexity of each prefix of length step, 2*step, ... <= n_max.

    One incremental sweep serves every sample; with verify on, three
    sample points are recomputed from scratch and must agree.
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
    """Split edges into intra-layer (epsilon object) and advancing groups."""
    obj = aut.arity - 1
    intra = []
    advance = [[] for _ in aut.alphabets[obj]]
    for src, dst, label in aut.edges:
        w = sum(1 for t in range(obj) if label[t] is not EPSILON)
        if label[obj] is EPSILON:
            intra.append((src, dst, w))
        else:
            advance[label[obj]].append((src, dst, w))
    return intra, advance


def _sweep(aut: LabeledAutomaton, letters: Sequence[int],
           positions: List[int]) -> list:
    """Values of K at the given prefix lengths (strictly ascending)."""
    if aut.num_states == 0:
        return [UNREACHABLE] * len(positions)
    eng = _compiled(aut)
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
    source-side closure is needed.  The step depends on the largest
    per-letter edge list: small ones are relaxed in plain Python over a
    dict of reachable states, larger ones by a numpy scatter-min.
    """

    def __init__(self, aut: LabeledAutomaton):
        intra, advance = _classify_edges(aut)
        closure_into = _closure_into(aut.num_states, intra)
        by_letter = []
        total = 0
        for group in advance:
            edges = [(s, q, c + w) for t, q, w in group for s, c in closure_into[t]]
            total += len(edges)
            if total > _NORMALIZE_BUDGET:
                raise BudgetExceeded(
                    "intra-layer closure is too dense to sweep",
                    _NORMALIZE_BUDGET)
            by_letter.append(edges)
        if max(map(len, by_letter), default=0) <= _PYTHON_STEP_EDGES:
            self.by_letter = by_letter
            self.start = dict.fromkeys(range(aut.num_states), 0)
            self.step = _step_python
        else:
            self.by_letter = [
                tuple(np.asarray(edges, dtype=np.int64).reshape(-1, 3).T.copy())
                for edges in by_letter]
            self.start = np.zeros(aut.num_states, dtype=np.int64)
            self.step = _step_numpy


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


def _closure_into(num_states: int, intra) -> list:
    """closure_into[t] = [(s, cost of cheapest intra path s -> t), ...]."""
    adj = [[] for _ in range(num_states)]
    for s, d, w in intra:
        adj[s].append((d, w))
    into = [[] for _ in range(num_states)]
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
            into[t].append((source, c))
    return into


_sweep_cache: dict = {}


def _compiled(aut: LabeledAutomaton) -> _CompiledSweep:
    key = id(aut)
    hit = _sweep_cache.get(key)
    if hit is None or hit[0] is not aut:
        hit = (aut, _CompiledSweep(aut))
        _sweep_cache[key] = hit
        if len(_sweep_cache) > 64:
            _sweep_cache.pop(next(iter(_sweep_cache)))
    return hit[1]
