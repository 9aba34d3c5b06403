"""Two automaton families: carry automata for multiplication by an
integer, and selection-rule machinery (splitter, merge, joint, density
classification).

The carry automaton relates equal-length prefixes x, y of the binary
expansions of frac(g) and frac(c*g) for a common real g; its states are
the possible carries.  Selection rules are complete DFAs over {0,1}: a
bit is selected when the state reached on the preceding prefix accepts.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Optional, Tuple

from .automaton import EPSILON, LabeledAutomaton, _parse_int, chain, strip_format_lines
from .errors import ContractError, FormatError
from .modes import (
    BINARY,
    DescriptionMode,
    PairDescriptionMode,
    ValuednessCertificate,
    _derived_certificate,
    _scc_ids,
    valuedness_profile,
)
from .seqgen import rational_bits

_WALL_PROFILE_LEN = 10


# --- multiplication / division carry automata --------------------------------

@functools.lru_cache(maxsize=None)
def wall_mode(c: int) -> DescriptionMode:
    """Carry automaton for y = c * x over aligned binary expansions.

    States are carries r in 0..c; an edge r -> r' labeled (a, b) exists
    iff c*a + r' = 2*r + b.  The carry equals c*xi - eta for the tail
    values xi, eta of the two expansions, and tails reach 1 exactly on
    all-ones streams, so the carry c itself occurs whenever one side
    uses the non-terminating representation of a dyadic value.  Every
    carry is a legal start.  The certificate is measured by brute force
    at build time (the automaton is tiny).
    """
    if c < 2:
        raise ContractError("multiplier must be >= 2")
    edges = []
    for r in range(c + 1):
        for r2 in range(c + 1):
            for a in (0, 1):
                b = c * a + r2 - 2 * r
                if b in (0, 1):
                    edges.append((r, r2, (a, b)))
    aut = LabeledAutomaton(arity=2, alphabets=(BINARY, BINARY),
                           num_states=c + 1, edges=tuple(edges))
    probe = DescriptionMode(aut, ValuednessCertificate.unknown(),
                            name=f"wall({c})")
    profile = valuedness_profile(probe, _WALL_PROFILE_LEN)
    if not profile.is_finite:
        raise AssertionError("carry automaton profiled as unbounded")
    return probe.with_certificate(profile.certificate)


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
    word = rational_bits(num, den, length)
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


# --- selection rules ----------------------------------------------------------

@dataclass(frozen=True)
class SelectionRule:
    """Complete DFA over {0,1} with a designated start and accepting set."""

    num_states: int
    initial: int
    accepting: frozenset
    transitions: tuple          # transitions[state] = (on '0', on '1')

    def __post_init__(self):
        if not 0 <= self.initial < self.num_states:
            raise ContractError("initial state out of range")
        if not all(0 <= s < self.num_states for s in self.accepting):
            raise ContractError("accepting state out of range")
        if len(self.transitions) != self.num_states:
            raise ContractError("transition table must cover every state")
        for row in self.transitions:
            if len(row) != 2 or not all(0 <= t < self.num_states for t in row):
                raise ContractError("transitions must be total over {0,1}")

    def step(self, state: int, bit: str) -> int:
        return self.transitions[state][int(bit)]


def apply_selection(rule: SelectionRule, w: str) -> Tuple[str, str]:
    """Split w into (selected, non-selected) bits.

    Bit i is selected iff the state reached on w[:i] accepts, i.e. the
    prefix before it belongs to the rule's language.
    """
    u, v = [], []
    state = rule.initial
    for ch in w:
        (u if state in rule.accepting else v).append(ch)
        state = rule.step(state, ch)
    return "".join(u), "".join(v)


def merge(rule: SelectionRule, u: str, v: str) -> Optional[str]:
    """Reconstruct w from its selected/non-selected parts.

    Returns None when one part runs out while the rule still demands it;
    merge(rule, *apply_selection(rule, w)) always returns w.
    """
    out = []
    iu = iv = 0
    state = rule.initial
    while iu < len(u) or iv < len(v):
        if state in rule.accepting:
            if iu >= len(u):
                return None
            ch = u[iu]
            iu += 1
        else:
            if iv >= len(v):
                return None
            ch = v[iv]
            iv += 1
        out.append(ch)
        state = rule.step(state, ch)
    return "".join(out)


def splitter_mode(rule: SelectionRule) -> PairDescriptionMode:
    """Ternary relation {(u, v, w)}: w merges u and v under the rule.

    One graph state per DFA state; a transition on b becomes (b, -, b)
    from accepting states and (-, b, b) otherwise.  Start states are
    free, so parses number at most the state count.
    """
    edges = []
    for s in range(rule.num_states):
        accepting = s in rule.accepting
        for bit in (0, 1):
            d = rule.transitions[s][bit]
            label = (bit, EPSILON, bit) if accepting else (EPSILON, bit, bit)
            edges.append((s, d, label))
    aut = LabeledAutomaton(arity=3, alphabets=(BINARY, BINARY, BINARY),
                           num_states=rule.num_states, edges=tuple(edges))
    cert = ValuednessCertificate.asserted(rule.num_states, "splitter")
    return PairDescriptionMode(aut, cert, name="splitter")


def joint(q: DescriptionMode, r: PairDescriptionMode) -> PairDescriptionMode:
    """Chain a binary mode into the first description tape of a pair mode.

    The result relates (u', v, w) iff some u has (u', u) in q and
    (u, v, w) in r: the synchronized product on the shared tape (see
    automaton.chain), as for composition.
    """
    cert = _derived_certificate("joint", operator.mul, q, r)
    aq, ar = q.automaton, r.automaton
    if aq.alphabets[1] != ar.alphabets[0]:
        raise ContractError(
            "joint requires q's object alphabet == r's first description alphabet")
    return PairDescriptionMode(chain(aq, ar), cert, name=f"joint({q.name},{r.name})")


FINITE_ON_NORMAL = "finite-on-normal"
POSITIVE_DENSITY = "positive-density-on-normal"
MIXED = "mixed"


def classify_selection(rule: SelectionRule) -> str:
    """Predict selection density on normal input from terminal SCCs.

    A run on a normal sequence eventually settles inside one terminal
    strongly connected component of the reachable state graph.  If no
    terminal SCC accepts, selection stops; if every one accepts,
    selection keeps a positive density; otherwise the outcome depends on
    which component captures the run.
    """
    reachable = {rule.initial}
    stack = [rule.initial]
    while stack:
        s = stack.pop()
        for t in rule.transitions[s]:
            if t not in reachable:
                reachable.add(t)
                stack.append(t)
    arcs = [(s, t) for s in reachable for t in rule.transitions[s]]
    comp = _scc_ids(rule.num_states, arcs)
    terminal_has_accepting = {}
    leaves = set()
    for s in reachable:
        for t in rule.transitions[s]:
            if comp[s] != comp[t]:
                leaves.add(comp[s])
    for s in reachable:
        cid = comp[s]
        if cid in leaves:
            continue
        terminal_has_accepting.setdefault(cid, False)
        if s in rule.accepting:
            terminal_has_accepting[cid] = True
    flags = set(terminal_has_accepting.values())
    if flags == {True}:
        return POSITIVE_DENSITY
    if flags == {False}:
        return FINITE_ON_NORMAL
    return MIXED


def selection_trace(rule: SelectionRule, bits: str,
                    checkpoints: List[int]) -> List[Tuple[int, int]]:
    """Selected-bit counts after each checkpoint prefix length."""
    marks = sorted(set(checkpoints))
    out = []
    state = rule.initial
    selected = 0
    mi = 0
    for i, ch in enumerate(bits):
        while mi < len(marks) and marks[mi] == i:
            out.append((i, selected))
            mi += 1
        if state in rule.accepting:
            selected += 1
        state = rule.step(state, ch)
    while mi < len(marks) and marks[mi] <= len(bits):
        out.append((marks[mi], selected))
        mi += 1
    return out


# --- selection rule text format ----------------------------------------------
#
# states N / initial Q / accepting Q1 Q2 ... / trans FROM LETTER TO

def serialize_rule(rule: SelectionRule) -> str:
    lines = [f"states {rule.num_states}", f"initial {rule.initial}"]
    lines.append("accepting" + "".join(f" {s}" for s in sorted(rule.accepting)))
    for s, row in enumerate(rule.transitions):
        for bit, t in enumerate(row):
            lines.append(f"trans {s} {bit} {t}")
    return "\n".join(lines) + "\n"


def parse_rule(text: str) -> SelectionRule:
    num_states = None
    initial = None
    accepting = None
    trans: Dict[Tuple[int, int], int] = {}
    for lineno, directive, args in strip_format_lines(text):
        if directive == "states":
            num_states = _parse_int(args, 1, lineno)[0]
        elif directive == "initial":
            initial = _parse_int(args, 1, lineno)[0]
        elif directive == "accepting":
            accepting = frozenset(_parse_int(args, len(args), lineno))
        elif directive == "trans":
            if len(args) != 3:
                raise FormatError(f"line {lineno}: trans needs FROM LETTER TO")
            frm, to = _parse_int([args[0], args[2]], 2, lineno)
            letter = args[1]
            if letter not in ("0", "1"):
                raise FormatError(f"line {lineno}: letter must be 0 or 1")
            key = (frm, int(letter))
            if key in trans:
                raise FormatError(f"line {lineno}: duplicate transition {key}")
            trans[key] = to
        else:
            raise FormatError(f"line {lineno}: unknown directive {directive!r}")
    if num_states is None or initial is None or accepting is None:
        raise FormatError("missing states, initial or accepting line")
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
