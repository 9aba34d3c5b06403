"""Description modes: automata paired with a valuedness certificate.

A description mode is a binary-tape automaton whose relation is an
O(1)-valued function from descriptions (tape 0) to objects (tape 1).
Valuedness cannot be decided cheaply in general, so each mode carries a
certificate recording the bound and how it was established.  Pair modes
use two description tapes (0, 1) and an object tape (2).
"""

from __future__ import annotations

import dataclasses
import operator
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .automaton import (
    EPSILON,
    MAX_FILE_STATES,
    LabeledAutomaton,
    _parse_int,
    chain,
    components,
    enumerate_relation,
    parse_automaton_lines,
    reverse,
    serialize_automaton,
    strip_format_lines,
    swap_tapes,
)
from .errors import BudgetExceeded, ContractError, FormatError

UNBOUNDED = "unbounded"
UNKNOWN = "unknown"

BINARY = ("0", "1")

# Enumeration budget of valuedness_profile, in visited configurations.
_PROFILE_BUDGET = 4_000_000
# The `witness` of a valuedness_profile whose caller ran no eps_cycle_check.
_UNCHECKED = object()


@dataclass(frozen=True)
class ValuednessCertificate:
    """How we know (or don't) that descriptions have bounded fan-out.

    bound is a positive int, "unbounded", or "unknown".  witness holds
    the offending cycle (edge list) for unbounded certificates;
    length_bound records the exhausted L for brute-force certificates;
    construction names the operation for asserted ones.
    """

    bound: object
    method: str
    length_bound: Optional[int] = None
    construction: Optional[str] = None
    witness: Optional[tuple] = None

    @classmethod
    def asserted(cls, bound: int, construction: str) -> "ValuednessCertificate":
        return cls(bound=bound, method="asserted-by-construction",
                   construction=construction)

    @classmethod
    def brute_force(cls, bound: int, length_bound: int) -> "ValuednessCertificate":
        return cls(bound=bound, method="brute-force-up-to-L",
                   length_bound=length_bound)

    @classmethod
    def unbounded(cls, witness) -> "ValuednessCertificate":
        return cls(bound=UNBOUNDED, method="structural-infinite-witness",
                   witness=tuple(witness))

    @classmethod
    def unknown(cls) -> "ValuednessCertificate":
        return cls(bound=UNKNOWN, method="none")

    @property
    def is_finite(self) -> bool:
        return isinstance(self.bound, int)

    def describe(self) -> str:
        parts = [f"bound={self.bound}", f"method={self.method}"]
        if self.length_bound is not None:
            parts.append(f"L={self.length_bound}")
        if self.construction is not None:
            parts.append(f"construction={self.construction}")
        return " ".join(parts)


@dataclass(frozen=True)
class DescriptionMode:
    """Binary-tape mode: tape 0 is the description, tape 1 the object."""

    automaton: LabeledAutomaton
    certificate: ValuednessCertificate
    name: str = "mode"

    def __post_init__(self):
        if self.automaton.arity != 2:
            raise ContractError("description mode needs a 2-tape automaton")

    def with_certificate(self, cert: ValuednessCertificate) -> "DescriptionMode":
        return dataclasses.replace(self, certificate=cert)


@dataclass(frozen=True)
class PairDescriptionMode:
    """Ternary mode: tapes 0,1 are the description pair, tape 2 the object."""

    automaton: LabeledAutomaton
    certificate: ValuednessCertificate
    name: str = "pair-mode"

    def __post_init__(self):
        if self.automaton.arity != 3:
            raise ContractError("pair description mode needs a 3-tape automaton")


def _derived_certificate(construction: str, combine, *modes) -> ValuednessCertificate:
    """Asserted certificate with bound combine(*bounds) when every operand's
    bound is an int; unknown otherwise.  Derived constructions call this
    before building their graph, so it refuses an unbounded operand."""
    for m in modes:
        if m.certificate.bound == UNBOUNDED:
            raise ContractError(f"mode {m.name!r} has an unbounded certificate")
    bounds = [m.certificate.bound for m in modes]
    if all(isinstance(b, int) for b in bounds):
        return ValuednessCertificate.asserted(combine(*bounds), construction)
    return ValuednessCertificate.unknown()


# --- constructions ----------------------------------------------------------

def identity_mode(alphabet: Sequence[str] = BINARY) -> DescriptionMode:
    """One state with a self-loop (a, a) per letter; K(x) = |x|."""
    alpha = tuple(alphabet)
    edges = tuple((0, 0, (a, a)) for a in alpha)
    aut = LabeledAutomaton(arity=2, alphabets=(alpha, alpha),
                           num_states=1, edges=edges)
    return DescriptionMode(aut, ValuednessCertificate.asserted(1, "identity"),
                           name="identity")


def union(m1: DescriptionMode, m2: DescriptionMode) -> DescriptionMode:
    """Disjoint union of the two graphs; K is the pointwise minimum."""
    cert = _derived_certificate("union", operator.add, m1, m2)
    a1, a2 = m1.automaton, m2.automaton
    if a1.alphabets != a2.alphabets:
        raise ContractError("union requires equal alphabets per tape")
    shift = a1.num_states
    edges = a1.edges + tuple((s + shift, d + shift, lab) for s, d, lab in a2.edges)
    aut = LabeledAutomaton(arity=2, alphabets=a1.alphabets,
                           num_states=a1.num_states + a2.num_states, edges=edges)
    return DescriptionMode(aut, cert, name=f"union({m1.name},{m2.name})")


def compose(m1: DescriptionMode, m2: DescriptionMode) -> DescriptionMode:
    """Product-graph composition: (p,v) related iff some q chains p->q->v.

    The graph is the synchronized product of the two automata on the
    first's object tape and the second's description tape (see chain).
    """
    cert = _derived_certificate("compose", operator.mul, m1, m2)
    a1, a2 = m1.automaton, m2.automaton
    if a1.alphabets[1] != a2.alphabets[0]:
        raise ContractError(
            "compose requires first object alphabet == second description alphabet")
    return DescriptionMode(chain(a1, a2), cert, name=f"compose({m1.name},{m2.name})")


def append_symbol(m: DescriptionMode, s: str) -> DescriptionMode:
    """Add a sink reachable from every state by an (epsilon, s) edge.

    The result relates p to x and to x+s whenever m relates p to x, so
    the fan-out at most doubles.
    """
    cert = _derived_certificate("append-symbol", lambda b: 2 * b, m)
    aut = m.automaton
    if s not in aut.alphabets[1]:
        raise ContractError(f"symbol {s!r} not in object alphabet")
    sink = aut.num_states
    new_edges = tuple((v, sink, (EPSILON, s)) for v in range(aut.num_states))
    out = LabeledAutomaton(arity=2, alphabets=aut.alphabets,
                           num_states=aut.num_states + 1,
                           edges=aut.edges + new_edges)
    return DescriptionMode(out, cert, name=f"append({m.name},{s})")


def unary_compressor(c: int) -> DescriptionMode:
    """Cycle of c+1 states reading one 1 and then emitting c output 1s.

    With free start and end the relation is exactly the pairs
    (1^k, 1^l) with (k-1)*c <= l <= (k+1)*c.
    """
    if c < 1:
        raise ContractError("compression factor must be >= 1")
    edges = [(0, 1, ("1", EPSILON))]
    for i in range(1, c + 1):
        edges.append((i, (i + 1) % (c + 1), (EPSILON, "1")))
    aut = LabeledAutomaton(arity=2, alphabets=(BINARY, BINARY),
                           num_states=c + 1, edges=tuple(edges))
    return DescriptionMode(
        aut, ValuednessCertificate.asserted(2 * c + 1, "unary-compressor"),
        name=f"unary({c})")


def layered_concat(m: DescriptionMode, n_layers: int) -> DescriptionMode:
    """Track description length mod n_layers+1 through stacked copies of m.

    Copies 0..N of the base automaton form the layers; description-
    consuming edges step to the next layer, epsilon-description edges
    stay.  From layer N an extra description bit either returns to layer
    0 (bit 0) or enters a hub state (bit 1) with an (epsilon, epsilon)
    edge to every state of one final unrestricted copy, which is what
    lets a second string be described after the first at an overhead of
    one bit per N description bits.  The hub gives the relation of direct
    jumps to the final copy with 3n glue edges instead of n + n^2.
    """
    # Per description: one parse per starting phase, plus the all-in-the-
    # final-copy parse; each parse splits the input in one way, so the
    # base bound enters squared.
    cert = _derived_certificate("layered-concat", lambda b: (n_layers + 2) * b * b, m)
    if n_layers < 1:
        raise ContractError("need at least one layer")
    aut = m.automaton
    if set(aut.alphabets[0]) != set(BINARY):
        raise ContractError("layered concatenation needs a binary description alphabet")
    n = aut.num_states
    N = n_layers
    extra = N + 1  # index of the final copy
    hub = (N + 2) * n
    if hub + 1 > MAX_FILE_STATES:
        # No mode file could hold it; refuse before building its edges.
        raise BudgetExceeded(f"layered({m.name}, N={N}) would have {hub + 1} states",
                             MAX_FILE_STATES)

    def state(copy, v):
        return copy * n + v

    edges = []
    for s, d, (desc, obj) in aut.edges:
        if desc is EPSILON:
            for copy in range(N + 2):
                edges.append((state(copy, s), state(copy, d), (desc, obj)))
        else:
            for layer in range(N):
                edges.append((state(layer, s), state(layer + 1, d), (desc, obj)))
            edges.append((state(extra, s), state(extra, d), (desc, obj)))
    for v in range(n):
        edges.append((state(N, v), state(0, v), ("0", EPSILON)))
        edges.append((state(N, v), hub, ("1", EPSILON)))
        edges.append((hub, state(extra, v), (EPSILON, EPSILON)))
    # A state-less base keeps an empty relation: no hub then.
    out = LabeledAutomaton(arity=2, alphabets=aut.alphabets,
                           num_states=hub + 1 if n else 0, edges=tuple(edges))
    return DescriptionMode(out, cert, name=f"layered({m.name},N={N})")


def reverse_mode(m: DescriptionMode) -> DescriptionMode:
    """Reverse all edges; valuedness carries over since fan-out is unchanged,
    and an unbounded certificate's witness cycle is flipped with the edges."""
    cert = m.certificate
    if isinstance(cert.bound, int):
        cert = ValuednessCertificate.asserted(cert.bound, "reverse")
    elif cert.witness is not None:
        cert = ValuednessCertificate.unbounded(
            (d, s, label) for s, d, label in reversed(cert.witness))
    return DescriptionMode(reverse(m.automaton), cert, name=f"reverse({m.name})")


def inverse_mode(m: DescriptionMode) -> DescriptionMode:
    """Swap description and object tapes; the certificate resets to unknown."""
    return DescriptionMode(swap_tapes(m.automaton, 0, 1),
                           ValuednessCertificate.unknown(),
                           name=f"inverse({m.name})")


# --- valuedness checking ----------------------------------------------------

def eps_cycle_check(mode_or_aut):
    """Search for a cycle that emits object letters but consumes nothing.

    Such a cycle pumps unboundedly many objects out of one description,
    so finding one proves the relation is not O(1)-valued.  Returns None
    when no such cycle exists (necessary, not sufficient, for bounded
    valuedness) or the witness cycle as a tuple of edges.
    """
    aut = getattr(mode_or_aut, "automaton", mode_or_aut)
    obj_tape = aut.arity - 1
    no_description = (EPSILON,) * obj_tape
    silent = [e for e in aut.edges if e[2][:obj_tape] == no_description]
    src = np.array([s for s, _, _ in silent], dtype=np.int64)
    dst = np.array([d for _, d, _ in silent], dtype=np.int64)
    writes = np.array([label[obj_tape] is not EPSILON for _, _, label in silent], dtype=bool)
    comp = components(aut.num_states, src, dst)
    hits = np.flatnonzero(writes & (comp[src] == comp[dst]))
    if not hits.size:
        return None
    edge = silent[hits[0]]
    return (edge, *_silent_path(aut.num_states, silent, edge[1], edge[0]))


def _silent_path(num_states, silent_edges, start, goal):
    """Shortest edge path from start to goal inside the silent subgraph."""
    if start == goal:
        return []
    adj = [[] for _ in range(num_states)]
    for e in silent_edges:
        adj[e[0]].append(e)
    prev = {start: None}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for e in adj[v]:
            if e[1] not in prev:
                prev[e[1]] = e
                if e[1] == goal:
                    path = []
                    node = goal
                    while prev[node] is not None:
                        path.append(prev[node])
                        node = prev[node][0]
                    return list(reversed(path))
                queue.append(e[1])
    raise AssertionError("endpoints were in one SCC but no path found")


@dataclass(frozen=True)
class ValuednessProfile:
    """Result of brute-force fan-out measurement up to description length L."""

    max_fanout: object          # int, or "unbounded"
    certificate: ValuednessCertificate
    length_bound: int
    witness: Optional[tuple] = None

    @property
    def is_finite(self) -> bool:
        return isinstance(self.max_fanout, int)


def valuedness_profile(mode, length_bound: int, witness=_UNCHECKED) -> ValuednessProfile:
    """Exact maximum fan-out over descriptions of length <= length_bound.

    If an output-producing consuming-free cycle exists the fan-out is
    infinite and the profile reports "unbounded".  Otherwise cutting
    minimal cycles bounds object length by (total description length + 1)
    times the state count, so plain enumeration is exhaustive.  A caller
    that already ran `eps_cycle_check` on the mode passes its `witness`.
    """
    aut = getattr(mode, "automaton", mode)
    if witness is _UNCHECKED:
        witness = eps_cycle_check(aut)
    if witness is not None:
        return ValuednessProfile(UNBOUNDED,
                                 ValuednessCertificate.unbounded(witness),
                                 length_bound, witness=witness)
    desc_tapes = aut.arity - 1
    obj_cap = (length_bound * desc_tapes + 1) * max(aut.num_states, 1)
    caps = (length_bound,) * desc_tapes + (obj_cap,)
    tuples = enumerate_relation(aut, caps, budget=_PROFILE_BUDGET)
    fanout = {}
    for tup in tuples:
        key = tup[:-1]
        fanout[key] = fanout.get(key, 0) + 1
    best = max(fanout.values(), default=0)
    return ValuednessProfile(best,
                             ValuednessCertificate.brute_force(best, length_bound),
                             length_bound)


# --- mode text format -------------------------------------------------------

def serialize_mode(mode) -> str:
    """Automaton text plus one `certificate` line."""
    cert = mode.certificate
    line = f"certificate {cert.bound}"
    if cert.bound != UNKNOWN:
        line += f" {cert.method}"
        if cert.method == "brute-force-up-to-L" and cert.length_bound is not None:
            line += f" {cert.length_bound}"
        elif cert.method == "asserted-by-construction" and cert.construction:
            line += f" {cert.construction}"
    return serialize_automaton(mode.automaton) + line + "\n"


def parse_mode(text: str):
    """Parse a mode file; returns a DescriptionMode or PairDescriptionMode.

    A missing certificate line yields an unknown certificate; an
    unbounded one gets its witness re-derived structurally.  The one
    certificate line reads `unknown`, `unbounded [METHOD]` or `BOUND
    [METHOD [ARG]]`.
    """
    aut, extra = parse_automaton_lines(strip_format_lines(text))
    cert, first = ValuednessCertificate.unknown(), None
    for lineno, directive, args in extra:
        if directive != "certificate":
            raise FormatError(f"line {lineno}: unknown directive {directive!r}")
        if first is not None:
            raise FormatError(f"line {lineno}: second certificate line (first on line {first})")
        first = lineno
        if not args:
            raise FormatError(f"line {lineno}: empty certificate")
        bound_tok = args[0]
        most = {UNKNOWN: 1, UNBOUNDED: 2}.get(bound_tok, 3)
        if len(args) > most:
            raise FormatError(f"line {lineno}: unexpected certificate tokens "
                              f"{' '.join(args[most:])!r}")
        if bound_tok == UNKNOWN:
            cert = ValuednessCertificate.unknown()
        elif bound_tok == UNBOUNDED:
            witness = eps_cycle_check(aut)
            cert = (ValuednessCertificate.unbounded(witness)
                    if witness is not None else
                    ValuednessCertificate(bound=UNBOUNDED,
                                          method="structural-infinite-witness"))
        else:
            try:
                bound = int(bound_tok)
            except ValueError:
                raise FormatError(f"line {lineno}: bad certificate bound") from None
            method = args[1] if len(args) > 1 else "asserted-by-construction"
            if method == "brute-force-up-to-L":
                L = _parse_int(args[2:3], 1, lineno)[0] if len(args) > 2 else None
                if L is not None and L < 0:
                    raise FormatError(f"line {lineno}: negative certificate L")
                cert = ValuednessCertificate.brute_force(bound, L)
            else:
                construction = args[2] if len(args) > 2 else None
                cert = ValuednessCertificate(bound=bound, method=method,
                                             construction=construction)
    if cert.is_finite and cert.bound < 1 and aut.num_states:
        raise FormatError(f"certificate bound {cert.bound} is refuted: the empty "
                          "description relates to the empty object")
    if cert.is_finite and eps_cycle_check(aut) is not None:
        raise FormatError(f"certificate bound {cert.bound} is refuted by an "
                          "output-producing cycle that consumes no description")
    if aut.arity == 2:
        return DescriptionMode(aut, cert)
    if aut.arity == 3:
        return PairDescriptionMode(aut, cert)
    raise FormatError(f"unsupported arity {aut.arity} for a mode file")
