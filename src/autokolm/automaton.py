"""Labeled-graph automata over any number of tapes.

An automaton here is a directed multigraph whose edges carry one
letter-or-epsilon per tape.  There are no initial or accepting states:
every directed path (including the empty path at any vertex) is a valid
run, and the tuple of words spelled along a path belongs to the
automaton's relation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceeded, ContractError, FormatError, InputRejected

# Epsilon label component: contributes no letter on its tape.
EPSILON = None

Label = tuple  # tuple[Optional[int], ...], one entry per tape

DEFAULT_ENUM_BUDGET = 2_000_000


@dataclass(frozen=True)
class LabeledAutomaton:
    """Immutable multi-tape labeled graph.

    alphabets holds one symbol tuple per tape; symbols are single
    characters so that plain strings can serve as words.  Edge labels
    store letter *indices* into the tape alphabet, or EPSILON (None).
    """

    arity: int
    alphabets: tuple            # tuple[tuple[str, ...], ...]
    num_states: int
    edges: tuple                # tuple[(src, dst, Label), ...]

    def __post_init__(self):
        if self.arity < 1:
            raise ContractError("arity must be >= 1")
        if len(self.alphabets) != self.arity:
            raise ContractError("one alphabet required per tape")
        for alpha in self.alphabets:
            if any(not isinstance(s, str) or len(s) != 1 for s in alpha):
                raise ContractError("alphabet symbols must be single characters")
            if len(set(alpha)) != len(alpha):
                raise ContractError("alphabet symbols must be distinct")
        if self.num_states < 0:
            raise ContractError("negative state count")
        for src, dst, label in self.edges:
            if not (0 <= src < self.num_states and 0 <= dst < self.num_states):
                raise ContractError(f"edge endpoint out of range: {(src, dst)}")
            if len(label) != self.arity:
                raise ContractError("edge label arity mismatch")
            for tape, comp in enumerate(label):
                if comp is EPSILON:
                    continue
                if not (0 <= comp < len(self.alphabets[tape])):
                    raise ContractError(
                        f"label letter {comp} outside alphabet of tape {tape}")

    def symbol(self, tape: int, letter: Optional[int]) -> str:
        return "-" if letter is EPSILON else self.alphabets[tape][letter]

    def out_edges(self) -> list:
        """Adjacency list: out_edges()[s] = [(dst, label), ...]."""
        adj = [[] for _ in range(self.num_states)]
        for src, dst, label in self.edges:
            adj[src].append((dst, label))
        return adj


def word_to_indices(aut: LabeledAutomaton, tape: int, word: str) -> tuple:
    """Translate a word into letter indices for the given tape."""
    table = {s: i for i, s in enumerate(aut.alphabets[tape])}
    try:
        return tuple(table[ch] for ch in word)
    except KeyError as exc:
        raise InputRejected(
            f"symbol {exc.args[0]!r} not in alphabet of tape {tape}") from None


def indices_to_word(aut: LabeledAutomaton, tape: int, indices: Iterable[int]) -> str:
    return "".join(aut.alphabets[tape][i] for i in indices)


def read_relation_contains(aut: LabeledAutomaton, words: Sequence[str]) -> bool:
    """Decide whether some directed path spells exactly the given words.

    Dynamic programming over (state, per-tape position) configurations
    with free start and end; the empty path witnesses the all-empty
    tuple whenever the automaton has at least one state.
    """
    if len(words) != aut.arity:
        raise ContractError(f"expected {aut.arity} words, got {len(words)}")
    targets = tuple(word_to_indices(aut, t, w) for t, w in enumerate(words))
    goal = tuple(len(t) for t in targets)
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
            npos = _advance(targets, pos, label)
            if npos is None:
                continue
            if npos == goal:
                return True
            cfg = (dst, npos)
            if cfg not in seen:
                seen.add(cfg)
                work.append(cfg)
    return False


def _advance(targets, pos, label):
    """Next position vector after reading `label`, or None on mismatch."""
    out = []
    for t, comp in enumerate(label):
        p = pos[t]
        if comp is EPSILON:
            out.append(p)
        else:
            if p >= len(targets[t]) or targets[t][p] != comp:
                return None
            out.append(p + 1)
    return tuple(out)


def enumerate_relation(aut: LabeledAutomaton, max_len,
                       budget: int = DEFAULT_ENUM_BUDGET) -> set:
    """All word tuples of the relation with per-tape lengths <= max_len.

    max_len is an int (same cap on every tape) or a per-tape sequence.
    Path search over (state, partial words) configurations; every
    visited configuration's word tuple is in the relation because start
    and end states are free.  Raises BudgetExceeded when the visited
    configuration count passes `budget`.
    """
    caps = _per_tape_caps(aut, max_len)
    if aut.num_states == 0:
        return set()
    empty = ("",) * aut.arity
    adj = aut.out_edges()
    seen = set()
    work = deque()
    for s in range(aut.num_states):
        cfg = (s, empty)
        seen.add(cfg)
        work.append(cfg)
    tuples = {empty}
    while work:
        state, words = work.popleft()
        for dst, label in adj[state]:
            nwords = []
            ok = True
            for t, comp in enumerate(label):
                w = words[t]
                if comp is EPSILON:
                    nwords.append(w)
                else:
                    if len(w) >= caps[t]:
                        ok = False
                        break
                    nwords.append(w + aut.alphabets[t][comp])
            if not ok:
                continue
            cfg = (dst, tuple(nwords))
            if cfg not in seen:
                if len(seen) >= budget:
                    raise BudgetExceeded(
                        "relation enumeration visited too many configurations",
                        budget)
                seen.add(cfg)
                work.append(cfg)
                tuples.add(cfg[1])
    return tuples


def _per_tape_caps(aut: LabeledAutomaton, max_len) -> tuple:
    if isinstance(max_len, int):
        caps = (max_len,) * aut.arity
    else:
        caps = tuple(max_len)
        if len(caps) != aut.arity:
            raise ContractError("one length cap required per tape")
    if any(c < 0 for c in caps):
        raise ContractError("length caps must be nonnegative")
    return caps


def reverse(aut: LabeledAutomaton) -> LabeledAutomaton:
    """Flip every edge; the relation becomes the tuple-wise word reversal."""
    return LabeledAutomaton(
        arity=aut.arity,
        alphabets=aut.alphabets,
        num_states=aut.num_states,
        edges=tuple((dst, src, label) for src, dst, label in aut.edges),
    )


def swap_tapes(aut: LabeledAutomaton, i: int, j: int) -> LabeledAutomaton:
    """Exchange tapes i and j in labels and alphabets."""
    if not (0 <= i < aut.arity and 0 <= j < aut.arity):
        raise ContractError(f"tape index out of range: {(i, j)}")
    alphabets = list(aut.alphabets)
    alphabets[i], alphabets[j] = alphabets[j], alphabets[i]

    def swap(label):
        lab = list(label)
        lab[i], lab[j] = lab[j], lab[i]
        return tuple(lab)

    return LabeledAutomaton(
        arity=aut.arity,
        alphabets=tuple(alphabets),
        num_states=aut.num_states,
        edges=tuple((s, d, swap(lab)) for s, d, lab in aut.edges),
    )


# --- text format ------------------------------------------------------------
#
# arity N
# alphabet <tape> <symbols...>
# states N
# edge FROM TO L0 L1 [L2]      each Li a symbol or `-` for epsilon
#
# `#` starts a comment; blank lines are ignored.

def serialize_automaton(aut: LabeledAutomaton) -> str:
    lines = [f"arity {aut.arity}"]
    for t, alpha in enumerate(aut.alphabets):
        lines.append(f"alphabet {t} " + " ".join(alpha))
    lines.append(f"states {aut.num_states}")
    for src, dst, label in aut.edges:
        comps = " ".join(aut.symbol(t, c) for t, c in enumerate(label))
        lines.append(f"edge {src} {dst} {comps}")
    return "\n".join(lines) + "\n"


def strip_format_lines(text: str):
    """Split a format file into (directive, fields) pairs, dropping comments."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        out.append((lineno, fields[0], fields[1:]))
    return out


def parse_automaton(text: str) -> LabeledAutomaton:
    """Parse the automaton text format; inverse of serialize_automaton."""
    aut, extra = parse_automaton_lines(strip_format_lines(text))
    if extra:
        lineno, directive, _ = extra[0]
        raise FormatError(f"line {lineno}: unknown directive {directive!r}")
    return aut


def parse_automaton_lines(lines):
    """Build an automaton from pre-split lines; returns (automaton, leftovers).

    Leftover lines (unknown directives) are handed back so wrappers can
    layer extra directives, e.g. a mode's certificate, on the same file.
    """
    arity = None
    alphabets = {}
    num_states = None
    raw_edges = []
    extra = []
    for lineno, directive, args in lines:
        if directive == "arity":
            arity = _parse_int(args, 1, lineno)[0]
        elif directive == "alphabet":
            if len(args) < 2:
                raise FormatError(f"line {lineno}: alphabet needs tape and symbols")
            tape = _parse_int(args[:1], 1, lineno)[0]
            alphabets[tape] = tuple(args[1:])
        elif directive == "states":
            num_states = _parse_int(args, 1, lineno)[0]
        elif directive == "edge":
            raw_edges.append((lineno, args))
        else:
            extra.append((lineno, directive, args))
    if arity is None or num_states is None:
        raise FormatError("missing arity or states line")
    if len(alphabets) != arity or sorted(alphabets) != list(range(arity)):
        raise FormatError("need exactly one alphabet line per tape")
    alpha_tuple = tuple(alphabets[t] for t in range(arity))
    tables = [{s: i for i, s in enumerate(a)} for a in alpha_tuple]
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
            elif tok in tables[t]:
                label.append(tables[t][tok])
            else:
                raise FormatError(
                    f"line {lineno}: symbol {tok!r} not in alphabet of tape {t}")
        edges.append((src, dst, tuple(label)))
    try:
        aut = LabeledAutomaton(arity=arity, alphabets=alpha_tuple,
                               num_states=num_states, edges=tuple(edges))
    except ContractError as exc:
        raise FormatError(str(exc)) from exc
    return aut, extra


def _parse_int(args, n, lineno):
    if len(args) != n:
        raise FormatError(f"line {lineno}: expected {n} integer argument(s)")
    try:
        return [int(a) for a in args]
    except ValueError:
        raise FormatError(f"line {lineno}: expected integer") from None
