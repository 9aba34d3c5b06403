"""Labeled-graph automata over any number of tapes.

An automaton here is a directed multigraph whose edges carry one
letter-or-epsilon per tape.  There are no initial or accepting states:
every directed path (including the empty path at any vertex) is a valid
run, and the tuple of words spelled along a path belongs to the
automaton's relation.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from functools import cached_property
from itertools import compress, count, islice

import numpy as np

from .errors import BudgetExceeded, ContractError, FormatError

# Epsilon label component: contributes no letter on its tape.
EPSILON = None

Label = tuple  # tuple[Optional[str], ...], one entry per tape

DEFAULT_ENUM_BUDGET = 2_000_000

# Largest `states` count a file may declare: loading allocates per state, so a
# short file could exhaust memory.  The cap sits far above the modes built at
# the tests' and the benchmark's sizes (k=8 coder 2,303, layered 9,213).
MAX_FILE_STATES = 2 ** 22
# Largest number of edge lines a file may hold, counted as they are read and
# before any edge is built: each edge costs a row of the edge columns and,
# once compiled, a row of every closure array.  The cap sits far above the
# largest mode the tests and the benchmark build (layered(k=8 coder, 2),
# about 17,000 edges).
MAX_FILE_EDGES = 2 ** 23
_EDGE_CHUNK = 1 << 12       # edge lines read at a time; about 500 bytes a line
_POW10 = 10 ** np.arange(19, dtype=np.int64)


class LabeledAutomaton:
    """Immutable multi-tape labeled graph.

    alphabets holds one symbol tuple per tape; symbols are single
    characters other than `-`, `#` and whitespace (which the text format
    reserves) so that plain strings can serve as words.  Each edge label
    component is a symbol of its tape's alphabet, or EPSILON (None).

    The edges are stored as read-only int64 columns `src`, `dst` and
    `letters`, whose row t holds each edge's index into alphabets[t], -1
    for EPSILON.  `edges` are the (src, dst, label) tuples, in the same
    order, built once on demand; equality compares the columns.
    """

    def __init__(self, arity: int, alphabets: tuple, num_states: int, edges=()):
        self._store(arity, alphabets, num_states, edges)

    @classmethod
    def from_columns(cls, arity: int, alphabets: tuple, num_states: int, src, dst, letters):
        """The automaton of these edge columns, checked as `edges` are."""
        (aut := cls.__new__(cls))._store(arity, alphabets, num_states, (), (src, dst, letters))
        return aut

    def _store(self, arity, alphabets, num_states, edges, columns=None):
        if arity < 1:
            raise ContractError("arity must be >= 1")
        if len(alphabets) != arity:
            raise ContractError("one alphabet required per tape")
        for alpha in alphabets:
            if not alpha:
                raise ContractError("every tape needs a nonempty alphabet")
            if any(not isinstance(s, str) or len(s) != 1 or s in "-#" or s.isspace()
                   for s in alpha):
                raise ContractError("alphabet symbols must be single characters "
                                    "other than '-', '#' and whitespace")
            if len(set(alpha)) != len(alpha):
                raise ContractError("alphabet symbols must be distinct")
        if num_states < 0:
            raise ContractError("negative state count")
        src, dst, letters = columns or _edge_columns(arity, alphabets, num_states, edges)
        src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
        letters = np.asarray(letters, dtype=np.int64).reshape(arity, src.size)
        if src.size and np.maximum(src.view(np.uint64), dst.view(np.uint64)).max() >= num_states:
            i = ((src < 0) | (src >= num_states) | (dst < 0) | (dst >= num_states)).argmax()
            raise ContractError(f"edge endpoint out of range: {(int(src[i]), int(dst[i]))}")
        for column in (src, dst, letters):
            column.flags.writeable = False
        self.__dict__.update(arity=arity, alphabets=alphabets, num_states=num_states,
                             src=src, dst=dst, letters=letters)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _key(self):
        return (self.arity, self.alphabets, self.num_states, self.src.tobytes(),
                self.dst.tobytes(), self.letters.tobytes())

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is LabeledAutomaton else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"LabeledAutomaton(arity={self.arity}, alphabets={self.alphabets}, "
                f"num_states={self.num_states}, edges={self.edges})")

    @cached_property
    def edges(self) -> tuple:          # tuple[(src, dst, Label), ...]; one label, one tuple
        letters, bases = self.letters, [len(alpha) + 1 for alpha in self.alphabets]
        code = np.zeros(letters.shape[1], np.int64 if math.prod(bases) < 2 ** 63 else object)
        for base, row in zip(bases, letters):
            code = code * base + row + 1
        code = code.tolist()
        some = dict(zip(code, count()))                  # an edge of each label
        labels = dict(zip(some, zip(*(map((*alpha, EPSILON).__getitem__, row)   # -1 reads EPSILON
                                      for alpha, row in zip(self.alphabets,
                                                            letters[:, list(some.values())].tolist())))))
        return tuple(zip(self.src.tolist(), self.dst.tolist(), map(labels.__getitem__, code)))

    def out_edges(self) -> list:
        """Adjacency list: out_edges()[s] = [(dst, label), ...]."""
        adj = [[] for _ in range(self.num_states)]
        for src, dst, label in self.edges:
            adj[src].append((dst, label))
        return adj


def _edge_columns(arity, alphabets, num_states, edges):
    """The columns (src, dst, letters) of (src, dst, label) tuples; the
    first edge with a bad endpoint or label raises ContractError."""
    index, rows = [{EPSILON: -1, **dict(zip(alpha, count()))} for alpha in alphabets], []
    for s, d, label in edges:
        if not (0 <= s < num_states and 0 <= d < num_states):
            raise ContractError(f"edge endpoint out of range: {(s, d)}")
        if len(label) != arity:
            raise ContractError("edge label arity mismatch")
        for tape, comp in enumerate(label):
            if comp not in index[tape]:
                raise ContractError(f"label letter {comp!r} outside alphabet of tape {tape}")
        rows.append((s, d, *map(dict.__getitem__, index, label)))
    table = np.array(rows, np.int64).reshape(-1, 2 + arity).T
    return table[0], table[1], table[2:]


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
    return LabeledAutomaton.from_columns(aut.arity, aut.alphabets, aut.num_states,
                                         aut.dst, aut.src, aut.letters)


def swap_tapes(aut: LabeledAutomaton, i: int, j: int) -> LabeledAutomaton:
    """Exchange tapes i and j in labels and alphabets."""
    if not (0 <= i < aut.arity and 0 <= j < aut.arity):
        raise ContractError(f"tape index out of range: {(i, j)}")
    order = list(range(aut.arity))
    order[i], order[j] = j, i
    return LabeledAutomaton.from_columns(aut.arity, tuple(aut.alphabets[t] for t in order),
                                         aut.num_states, aut.src, aut.dst, aut.letters[order])


def chain(a1: LabeledAutomaton, a2: LabeledAutomaton) -> LabeledAutomaton:
    """Synchronized product joining a1's last tape to a2's first tape.

    Relates (x..., z...) iff some m has (x..., m) in a1 and (m, z...) in
    a2; the joined tapes must share one alphabet.  An edge with an
    epsilon middle moves one coordinate of the state pair, and two edges
    reading the same middle letter fuse into one edge.
    """
    n1, n2 = a1.num_states, a2.num_states
    last, first = a1.letters[-1], a2.letters[0]
    alone1, alone2 = np.flatnonzero(last < 0), np.flatnonzero(first < 0)
    # Each edge of a1 fuses with the edges of a2 that read its middle letter, in order.
    i, j = np.nonzero((last[:, None] == first) & (last[:, None] >= 0))
    ends = [np.concatenate([(e1[alone1, None] * n2 + np.arange(n2)).ravel(),
                            (np.arange(n1) * n2 + e2[alone2, None]).ravel(), e1[i] * n2 + e2[j]])
            for e1, e2 in ((a1.src, a2.src), (a1.dst, a2.dst))]
    letters = np.concatenate([
        np.concatenate([np.repeat(a1.letters[:-1, alone1], n2, axis=1),
                        np.full((a2.arity - 1, alone1.size * n2), -1)]),
        np.concatenate([np.full((a1.arity - 1, alone2.size * n1), -1),
                        np.repeat(a2.letters[1:, alone2], n1, axis=1)]),
        np.concatenate([a1.letters[:-1, i], a2.letters[1:, j]])], axis=1)
    return LabeledAutomaton.from_columns(a1.arity + a2.arity - 2, a1.alphabets[:-1] + a2.alphabets[1:],
                                         n1 * n2, *ends, letters)


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
    return "\n".join(lines) + "\n" + (_edge_lines(aut) if aut.src.size else "")


def _edge_lines(aut: LabeledAutomaton) -> str:
    """The lines `edge FROM TO L0 L1 ...`, each with its newline, as one
    array of character codes: spaces, then `edge`, the digits of each
    endpoint, a symbol (or `-`) per tape and the newline in their places."""
    wide = max(map(ord, "".join(map("".join, aut.alphabets)))) > 255
    value = np.stack([aut.src, aut.dst])
    digits = np.searchsorted(_POW10[1:], value, side="right") + 1
    size = 7 + 2 * aut.arity + digits[0] + digits[1]
    end = np.cumsum(size)
    out = np.full(int(end[-1]), ord(" "), np.uint32 if wide else np.uint8)
    out[(end - size)[:, None] + np.arange(4)] = list(b"edge")
    last = end - size + 4 + np.cumsum(digits, axis=0) + [[0], [1]]   # each number's last digit
    for j in range(int(digits.max())):
        more = digits > j
        out[(last - j)[more]] = ord("0") + value[more] // _POW10[j] % 10
    for t, alpha in enumerate(aut.alphabets):
        out[end - 2 * (aut.arity - t)] = np.array([*map(ord, alpha), ord("-")])[aut.letters[t]]
    out[end - 1] = ord("\n")
    return out.tobytes().decode("utf-32-le" if wide else "latin-1", "surrogatepass")


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
    is_edge = [line.startswith("edge ") or line[:5].rstrip() == "edge" for line in lines]
    # As if read line by line: the first edge line past the cap fails first.
    over = next(islice(compress(count(1), is_edge), MAX_FILE_EDGES, None), None)
    arity, alphabets, num_states, extra, seen = None, {}, None, [], {}
    rest = compress(range(1, over or len(lines) + 1), map(operator.not_, is_edge))
    for lineno, (directive, *args) in ((n, lines[n - 1].split()) for n in rest if lines[n - 1]):
        if directive == "arity":
            _first_line(seen, "arity line", lineno)
            arity = _parse_int(args, 1, lineno)[0]
        elif directive == "alphabet":
            if len(args) < 2:
                raise FormatError(f"line {lineno}: alphabet needs tape and symbols")
            tape = _parse_int(args[:1], 1, lineno)[0]
            _first_line(seen, f"alphabet line for tape {tape}", lineno)
            alphabets[tape] = tuple(args[1:])
        elif directive == "states":
            _first_line(seen, "states line", lineno)
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
        aut = _parse_edges(lines, is_edge, alpha_tuple, num_states)
    except ContractError as exc:
        raise FormatError(str(exc)) from exc
    return aut, extra


def _parse_edges(lines, is_edge, alphabets, num_states) -> LabeledAutomaton:
    """The automaton of the lines `edge FROM TO L0 L1 ...`, read _EDGE_CHUNK
    lines at a time into edge columns (`_edge_table`).  Where a chunk holds
    a line that those do not read, the lines are read one by one instead,
    and the first malformed one raises."""
    rows, arity = list(compress(lines, is_edge)), len(alphabets)
    tables = [_edge_table(rows[i:i + _EDGE_CHUNK], alphabets) for i in range(0, len(rows), _EDGE_CHUNK)]
    if not any(table is None for table in tables):
        table = np.concatenate([np.empty((2 + arity, 0), np.int64), *tables], axis=1)
        return LabeledAutomaton.from_columns(arity, alphabets, num_states, *table[:2], table[2:])
    edges = []
    for lineno in compress(count(1), is_edge):
        args = lines[lineno - 1].split()[1:]
        if len(args) != arity + 2:
            raise FormatError(f"line {lineno}: edge needs FROM TO and {arity} labels")
        try:
            src, dst = int(args[0]), int(args[1])
        except ValueError:
            raise FormatError(f"line {lineno}: edge endpoints must be integers") from None
        for t, tok in enumerate(args[2:]):
            if tok != "-" and tok not in alphabets[t]:
                raise FormatError(f"line {lineno}: symbol {tok!r} not in alphabet of tape {t}")
        edges.append((src, dst, tuple(EPSILON if tok == "-" else tok for tok in args[2:])))
    return LabeledAutomaton(arity, alphabets, num_states, edges)


def _edge_table(rows, alphabets):
    """The rows src, dst and each tape's letter of these edge lines, read
    from their character codes; None unless they are ASCII without tabs and
    each holds `edge`, endpoints of 1-18 digits and a symbol or `-` a tape."""
    symbols, width = "".join(map("".join, alphabets)), 3 + len(alphabets)
    text = "\n" + "\n".join(rows) + "\n"
    if not (text + symbols).isascii() or len(symbols) != sum(map(len, alphabets)):
        return None
    codes = np.frombuffer(text.encode("ascii"), np.uint8)
    space = codes <= ord(" ")
    turn = np.flatnonzero(space[1:] != space[:-1]) + 1      # a field starts, then ends
    first, size = turn[0::2], turn[1::2] - turn[0::2]
    if (size.size != width * len(rows) or np.count_nonzero(codes < ord(" ")) != len(rows) + 1
            or (codes[first[::width] - 1] != ord("\n")).any()):
        return None
    first, size = first.reshape(-1, width), size.reshape(-1, width)
    letter = np.full((len(alphabets), 256), -2)
    letter[:, ord("-")] = -1
    for t, alpha in enumerate(alphabets):
        letter[t, list(map(ord, alpha))] = range(len(alpha))
    table = np.empty((width - 1, len(rows)), np.int64)
    table[2:] = letter[np.arange(len(alphabets))[:, None], codes[first[:, 3:].T]]
    if (size[:, 3:] != 1).any() or (table[2:] < -1).any() or size[:, 1:3].max() > 18:
        return None
    at = (first + size)[:, 1:3, None] + np.arange(-size[:, 1:3].max(), 0)  # right-aligned
    digit = np.where(at >= first[:, 1:3, None], codes[at] - ord("0"), 0)
    table[:2] = (digit @ _POW10[at.shape[2] - 1::-1]).T
    return None if (digit > 9).any() else table


def _first_line(seen: dict, what: str, lineno: int):
    """Record line `lineno` as the `what` (a header line that a format file
    holds once) in `seen`; a second one is a FormatError."""
    if what in seen:
        raise FormatError(f"line {lineno}: second {what} (first on line {seen[what]})")
    seen[what] = lineno


def _parse_int(args, n, lineno):
    if len(args) != n:
        raise FormatError(f"line {lineno}: expected {n} integer argument(s)")
    try:
        return [int(a) for a in args]
    except ValueError:
        raise FormatError(f"line {lineno}: expected integer") from None
