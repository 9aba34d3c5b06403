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
from itertools import compress
from typing import Dict, Iterable, List, Optional, Tuple

from .automaton import EPSILON, LabeledAutomaton, _parse_int, chain, components, strip_format_lines
from .errors import ContractError, FormatError
from .modes import (
    BINARY,
    DescriptionMode,
    PairDescriptionMode,
    ValuednessCertificate,
    _derived_certificate,
    valuedness_profile,
)

_WALL_PROFILE_LEN = 10
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")       # selected <-> non-selected marks


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
                    edges.append((r, r2, (BINARY[a], BINARY[b])))
    aut = LabeledAutomaton(arity=2, alphabets=(BINARY, BINARY),
                           num_states=c + 1, edges=tuple(edges))
    probe = DescriptionMode(aut, ValuednessCertificate.unknown(),
                            name=f"wall({c})")
    profile = valuedness_profile(probe, _WALL_PROFILE_LEN)
    if not profile.is_finite:
        raise AssertionError("carry automaton profiled as unbounded")
    return probe.with_certificate(profile.certificate)


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


def selection_marks(rule: SelectionRule, w: str) -> bytearray:
    """One run of the rule over w: byte i is 1 iff bit i is selected, that
    is iff the state reached on w[:i] accepts (the prefix before it
    belongs to the rule's language).  A symbol other than 0 or 1 raises
    ContractError."""
    moves = [dict(zip("01", row)) for row in rule.transitions]
    accepts = [s in rule.accepting for s in range(rule.num_states)]
    marks = bytearray(len(w))
    state = rule.initial
    try:
        for i, ch in enumerate(w):
            marks[i] = accepts[state]
            state = moves[state][ch]
    except KeyError:
        raise ContractError(f"symbol {ch!r} at position {i} is not a bit") from None
    return marks


def split_selection(w: str, marks: bytes) -> Tuple[str, str]:
    """(selected, non-selected) bits of w by its `selection_marks`."""
    return ("".join(compress(w, marks)),
            "".join(compress(w, marks.translate(_FLIP))))


def selected_counts(marks: bytes, checkpoints: Iterable[int]) -> List[Tuple[int, int]]:
    """Selected-bit counts after each checkpoint prefix length of the word
    whose `selection_marks` these are; checkpoints past its end are
    dropped."""
    lengths = sorted(set(checkpoints))
    if lengths and lengths[0] < 0:
        raise ContractError("checkpoints must be nonnegative")
    out = []
    selected = done = 0
    for n in lengths:
        if n > len(marks):
            break
        selected += marks.count(1, done, n)
        done = n
        out.append((n, selected))
    return out


def apply_selection(rule: SelectionRule, w: str) -> Tuple[str, str]:
    """Split w into (selected, non-selected) bits (`selection_marks`)."""
    return split_selection(w, selection_marks(rule, w))


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
        for d, b in zip(rule.transitions[s], BINARY):
            label = (b, EPSILON, b) if accepting else (EPSILON, b, b)
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
    src = [s for s in reachable for _ in rule.transitions[s]]
    dst = [t for s in reachable for t in rule.transitions[s]]
    comp = components(rule.num_states, src, dst).tolist()
    leaves = {comp[s] for s, t in zip(src, dst) if comp[s] != comp[t]}
    accepts = {}                     # terminal component -> whether a state of it accepts
    for s in reachable:
        if comp[s] not in leaves:
            accepts[comp[s]] = accepts.get(comp[s], False) or s in rule.accepting
    flags = set(accepts.values())
    if flags == {True}:
        return POSITIVE_DENSITY
    if flags == {False}:
        return FINITE_ON_NORMAL
    return MIXED


def selection_trace(rule: SelectionRule, bits: str,
                    checkpoints: List[int]) -> List[Tuple[int, int]]:
    """Selected-bit counts after each checkpoint prefix length; a negative
    checkpoint raises ContractError."""
    return selected_counts(selection_marks(rule, bits), checkpoints)


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
    for lineno, line in enumerate(strip_format_lines(text), 1):
        if not line:
            continue
        directive, *args = line.split()
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
