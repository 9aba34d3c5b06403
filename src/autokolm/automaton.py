"""Labeled-graph automata over any number of tapes.

An automaton here is a directed multigraph whose edges carry one
letter-or-epsilon per tape.  There are no initial or accepting states:
every directed path (including the empty path at any vertex) is a valid
run, and the tuple of words spelled along a path belongs to the
automaton's relation.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from itertools import compress, count, islice

import numpy as np

from .errors import BudgetExceeded, ContractError, FormatError

# Epsilon label component: contributes no letter on its tape.
EPSILON = None

Label = tuple  # tuple[Optional[str], ...], one entry per tape

DEFAULT_ENUM_BUDGET = 2_000_000
_SRC, _DST, _LABEL = map(operator.itemgetter, range(3))

# Largest `states` count a file may declare: loading allocates per state, so a
# short file could exhaust memory.  The cap sits far above the modes built at
# the tests' and the benchmark's sizes (k=8 coder 2,303, layered 9,213).
MAX_FILE_STATES = 2 ** 22
# Largest number of edge lines a file may hold, counted as they are read and
# before any edge is built: each edge costs a tuple and, once compiled, a
# row of every closure array.  The cap sits far above the largest mode the
# tests and the benchmark build (layered(k=8 coder, 2), about 17,000 edges).
MAX_FILE_EDGES = 2 ** 23
_EDGE_CHUNK = 1 << 12       # edge lines split at a time; fields take 200 bytes a line


@dataclass(frozen=True)
class LabeledAutomaton:
    """Immutable multi-tape labeled graph.

    alphabets holds one symbol tuple per tape; symbols are single
    characters other than `-`, `#` and whitespace (which the text format
    reserves) so that plain strings can serve as words.  Each edge label
    component is a symbol of its tape's alphabet, or EPSILON (None).
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
            if not alpha:
                raise ContractError("every tape needs a nonempty alphabet")
            if any(not isinstance(s, str) or len(s) != 1 or s in "-#" or s.isspace()
                   for s in alpha):
                raise ContractError("alphabet symbols must be single characters "
                                    "other than '-', '#' and whitespace")
            if len(set(alpha)) != len(alpha):
                raise ContractError("alphabet symbols must be distinct")
        if self.num_states < 0:
            raise ContractError("negative state count")
        ends = [*map(_SRC, self.edges), *map(_DST, self.edges)]
        if (min(ends, default=0) < 0 or max(ends, default=0) >= self.num_states
                or any(map(self._label_error, set(map(_LABEL, self.edges))))):
            for src, dst, label in self.edges:      # report the first bad edge
                if not (0 <= src < self.num_states and 0 <= dst < self.num_states):
                    raise ContractError(f"edge endpoint out of range: {(src, dst)}")
                if error := self._label_error(label):
                    raise ContractError(error)

    def _label_error(self, label):
        if len(label) != self.arity:
            return "edge label arity mismatch"
        for tape, comp in enumerate(label):
            if comp is not EPSILON and comp not in self.alphabets[tape]:
                return f"label letter {comp!r} outside alphabet of tape {tape}"

    def out_edges(self) -> list:
        """Adjacency list: out_edges()[s] = [(dst, label), ...]."""
        adj = [[] for _ in range(self.num_states)]
        for src, dst, label in self.edges:
            adj[src].append((dst, label))
        return adj


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
                    nwords.append(w + comp)
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


def chain(a1: LabeledAutomaton, a2: LabeledAutomaton) -> LabeledAutomaton:
    """Synchronized product joining a1's last tape to a2's first tape.

    Relates (x..., z...) iff some m has (x..., m) in a1 and (m, z...) in
    a2; the joined tapes must share one alphabet.  An edge with an
    epsilon middle moves one coordinate of the state pair, and two edges
    reading the same middle letter fuse into one edge.
    """
    n1, n2 = a1.num_states, a2.num_states
    pad1, pad2 = (EPSILON,) * (a2.arity - 1), (EPSILON,) * (a1.arity - 1)
    edges = []
    for s, d, lab in a1.edges:
        if lab[-1] is EPSILON:
            outer = lab[:-1] + pad1
            edges += [(s * n2 + l, d * n2 + l, outer) for l in range(n2)]
    reading = {}
    for s, d, lab in a2.edges:
        if lab[0] is EPSILON:
            outer = pad2 + lab[1:]
            edges += [(k * n2 + s, k * n2 + d, outer) for k in range(n1)]
        else:
            reading.setdefault(lab[0], []).append((s, d, lab[1:]))
    for s1, d1, lab1 in a1.edges:
        for s2, d2, tail in reading.get(lab1[-1], ()):
            edges.append((s1 * n2 + s2, d1 * n2 + d2, lab1[:-1] + tail))
    return LabeledAutomaton(arity=a1.arity + a2.arity - 2, num_states=n1 * n2,
                            alphabets=a1.alphabets[:-1] + a2.alphabets[1:],
                            edges=tuple(edges))


def components(num_nodes: int, src, dst):
    """The strongly connected components of the graph on nodes
    0..num_nodes-1 with arcs src[i] -> dst[i]: an int64 array of each
    node's component number, the components numbered in a topological
    order (comp[s] <= comp[d] for every arc s -> d).

    Tarjan's depth-first search in Pearce's form, with one number per
    node: 0 before its visit, then its visit number, lowered to its lowlink
    (1..num_nodes), and once its component is found, num_nodes + 1 plus the
    number of components found before it.  So no open node's number
    reaches a done one's, and the components come out sinks first.
    """
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    order = np.argsort(src, kind="stable")
    targets = dst[order].tolist()
    first = np.searchsorted(src[order], np.arange(num_nodes + 1)).tolist()
    number, ahead = [0] * num_nodes, first[:-1]     # ahead[v]: v's next arc to search
    waiting = []             # searched nodes whose component is not found yet
    visits, done = 1, num_nodes + 1
    for root in range(num_nodes):
        if number[root]:
            continue
        number[root] = visits
        path, own = [root], [visits]             # the search path, its visit numbers
        visits += 1
        while path:
            v = path[-1]
            low, i, end = number[v], ahead[v], first[v + 1]
            while i < end:
                w = targets[i]
                i += 1
                seen = number[w]
                if not seen:
                    break
                if seen < low:
                    low = seen
            else:
                path.pop()
                if low == own.pop():             # v is the first node of its component
                    while waiting and number[waiting[-1]] >= low:
                        number[waiting.pop()] = done
                    number[v] = done
                    done += 1
                else:
                    number[v] = low
                    waiting.append(v)
                    number[path[-1]] = min(number[path[-1]], low)
                continue
            ahead[v], number[v], number[w] = i, low, visits
            path.append(w)
            own.append(visits)
            visits += 1
    return done - 1 - np.array(number, dtype=np.int64)


# --- text format ------------------------------------------------------------
#
# arity N
# alphabet <tape> <symbols...>
# states N
# edge FROM TO L0 L1 [L2]      each Li a symbol or `-` for epsilon
#
# `#` starts a comment; blank lines are ignored.

def serialize_automaton(aut: LabeledAutomaton) -> str:
    lines = [f"arity {aut.arity}", *(f"alphabet {t} " + " ".join(alpha)
                                     for t, alpha in enumerate(aut.alphabets)),
             f"states {aut.num_states}"]
    text = {label: " ".join("-" if c is EPSILON else c for c in label)
            for label in set(map(_LABEL, aut.edges))}
    lines += map("edge {} {} {}".format, map(_SRC, aut.edges), map(_DST, aut.edges),
                 map(text.__getitem__, map(_LABEL, aut.edges)))
    return "\n".join(lines) + "\n"


def strip_format_lines(text: str) -> list:
    """The lines of a format file, line n at index n - 1, each without its
    comment and outer whitespace: a blank line reads ''."""
    lines = text.splitlines()
    return list(map(str.strip, [line.split("#", 1)[0] for line in lines] if "#" in text else lines))


def parse_automaton(text: str) -> LabeledAutomaton:
    """Parse the automaton text format; inverse of serialize_automaton."""
    aut, extra = parse_automaton_lines(strip_format_lines(text))
    if extra:
        lineno, directive, _ = extra[0]
        raise FormatError(f"line {lineno}: unknown directive {directive!r}")
    return aut


def parse_automaton_lines(lines):
    """(automaton, leftovers) of strip_format_lines' output.  The leftovers, the
    unknown directives as (line number, directive, fields), let wrappers layer
    extra directives, e.g. a mode's certificate, on the same file."""
    is_edge = [line[:5].rstrip() == "edge" for line in lines]
    # As if read line by line: the first edge line past the cap fails first.
    over = next(islice(compress(count(1), is_edge), MAX_FILE_EDGES, None), None)
    arity, alphabets, num_states, extra = None, {}, None, []
    rest = compress(range(1, over or len(lines) + 1), map(operator.not_, is_edge))
    for lineno, (directive, *args) in ((n, lines[n - 1].split()) for n in rest if lines[n - 1]):
        if directive == "arity":
            arity = _parse_int(args, 1, lineno)[0]
        elif directive == "alphabet":
            if len(args) < 2:
                raise FormatError(f"line {lineno}: alphabet needs tape and symbols")
            tape = _parse_int(args[:1], 1, lineno)[0]
            alphabets[tape] = tuple(args[1:])
        elif directive == "states":
            num_states = _parse_int(args, 1, lineno)[0]
            if num_states > MAX_FILE_STATES:
                raise FormatError(f"line {lineno}: state count {num_states} "
                                  f"exceeds the limit {MAX_FILE_STATES}")
        else:
            extra.append((lineno, directive, args))
    if over is not None:
        raise FormatError(f"line {over}: more than {MAX_FILE_EDGES} edges")
    if arity is None or num_states is None:
        raise FormatError("missing arity or states line")
    if len(alphabets) != arity or sorted(alphabets) != list(range(arity)):
        raise FormatError("need exactly one alphabet line per tape")
    alpha_tuple = tuple(alphabets[t] for t in range(arity))
    try:
        aut = LabeledAutomaton(arity=arity, alphabets=alpha_tuple, num_states=num_states,
                               edges=_parse_edges(lines, is_edge, alpha_tuple))
    except ContractError as exc:
        raise FormatError(str(exc)) from exc
    return aut, extra


def _parse_edges(lines, is_edge, alphabets) -> tuple:
    """The (src, dst, label) of the lines `edge FROM TO L0 L1 ...`, split as
    one string _EDGE_CHUNK lines at a time.  No endpoint or label field can
    read `edge`, each line's first: so when the field count is right and
    the endpoint and label columns parse, each line holds width fields."""
    width, rows = 3 + len(alphabets), list(compress(lines, is_edge))
    edges, label, allowed = [], {}, [{"-", *alpha} for alpha in alphabets]
    for start in range(0, len(rows), _EDGE_CHUNK):
        chunk = rows[start:start + _EDGE_CHUNK]
        fields = " ".join(chunk).split()
        columns = [fields[t::width] for t in range(3, width)]
        if not (len(fields) == width * len(chunk)
                and all(set(col) <= ok for col, ok in zip(columns, allowed))):
            break
        try:
            src, dst = list(map(int, fields[1::width])), list(map(int, fields[2::width]))
        except ValueError:
            break
        for key in set(zip(*columns)) - label.keys():
            label[key] = tuple(EPSILON if c == "-" else c for c in key)
        same = dict(zip(src, src))          # a dst shares the int of an equal src
        edges += zip(src, map(same.get, dst, dst), map(label.__getitem__, zip(*columns)))
    else:
        return tuple(edges)
    for lineno in compress(count(1), is_edge):      # the first malformed line raises
        args = lines[lineno - 1].split()[1:]
        if len(args) != width - 1:
            raise FormatError(f"line {lineno}: edge needs FROM TO and {width - 3} labels")
        try:
            int(args[0]), int(args[1])
        except ValueError:
            raise FormatError(f"line {lineno}: edge endpoints must be integers") from None
        for t, tok in enumerate(args[2:]):
            if tok != "-" and tok not in alphabets[t]:
                raise FormatError(f"line {lineno}: symbol {tok!r} not in alphabet of tape {t}")


def _parse_int(args, n, lineno):
    if len(args) != n:
        raise FormatError(f"line {lineno}: expected {n} integer argument(s)")
    try:
        return [int(a) for a in args]
    except ValueError:
        raise FormatError(f"line {lineno}: expected integer") from None
