"""Empirical normality statistics over binary prefixes.

Block histograms (aligned or sliding) feed the derived views:
discrepancy against the uniform block law, empirical block entropy, the
max-frequency ratio, and a Huffman block code realized as a description
mode.  A sequence with skewed block statistics trains a code whose
average length stays below the block size, which makes its prefixes
compressible; near-uniform statistics push the ratio toward one.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .automaton import EPSILON, LabeledAutomaton
from .complexity import UNREACHABLE, complexity
from .errors import BudgetExceeded, ContractError
from .modes import BINARY, DescriptionMode, ValuednessCertificate

_MAX_HISTOGRAM_K = 24
_MAX_CODER_K = 12


@dataclass(frozen=True)
class BlockHistogram:
    """Counts of k-blocks over a prefix of length n."""

    k: int
    mode: str                 # "aligned" | "sliding"
    n: int
    counts: dict              # block string -> occurrence count

    @property
    def total(self) -> int:
        return self.n // self.k if self.mode == "aligned" else self.n - self.k + 1


def block_histogram(bits: str, n: int, k: int, mode: str) -> BlockHistogram:
    """Exact k-block counts over the first n bits, from their window codes."""
    if mode not in ("aligned", "sliding"):
        raise ContractError(f"unknown histogram mode {mode!r}")
    return _histogram(_windows(bits, n, k), n, k, mode)


def _windows(bits: str, n: int, k: int):
    """The code of each k-bit window of the first n bits, as int64."""
    if k < 1 or n < k:
        raise ContractError("need n >= k >= 1")
    if k > _MAX_HISTOGRAM_K:
        raise BudgetExceeded("histogram table would be too large", 1 << _MAX_HISTOGRAM_K)
    if len(bits) < n:
        raise ContractError(f"sequence holds {len(bits)} bits, {n} requested")
    bit = np.frombuffer(bits[:n].encode("ascii"), dtype=np.uint8) - ord("0")
    if bit.max(initial=0) > 1:
        raise ContractError("sequence must be binary")
    codes = bit.astype(np.int64)
    for j in range(1, k):
        codes = (codes[:-1] << 1) | bit[j:]
    return codes


def _histogram(codes, n: int, k: int, mode: str) -> BlockHistogram:
    """The histogram of the first n bits from their sliding window codes:
    every k-th of them for an aligned one."""
    if mode == "aligned":
        codes = codes[::k][:n // k]
    count = np.bincount(codes)
    seen = np.flatnonzero(count)
    return BlockHistogram(k=k, mode=mode, n=n, counts=dict(zip(
        map(f"{{:0{k}b}}".format, seen.tolist()), count[seen].tolist())))


def discrepancy(h: BlockHistogram) -> float:
    """Max deviation of block frequencies from 2^-k; absent blocks count."""
    if h.total <= 0:
        raise ContractError("histogram is empty")
    uniform = 2.0 ** -h.k
    worst = max(abs(c / h.total - uniform) for c in h.counts.values())
    if len(h.counts) < 2 ** h.k:
        worst = max(worst, uniform)
    return worst


def empirical_entropy(h: BlockHistogram) -> float:
    """Shannon entropy of the empirical block distribution, in bits."""
    if h.total <= 0:
        raise ContractError("histogram is empty")
    t = h.total
    return -sum((c / t) * math.log2(c / t) for c in h.counts.values())


def ps_ratio(h: BlockHistogram) -> float:
    """Largest block frequency scaled by 2^k (1 means perfectly uniform)."""
    if h.total <= 0:
        raise ContractError("histogram is empty")
    return max(h.counts.values()) / h.total * 2 ** h.k


# --- block coding -----------------------------------------------------------

def smoothed_counts(h: BlockHistogram) -> Dict[str, int]:
    """Histogram counts with every absent block lifted to count one."""
    return {b: max(h.counts.get(b, 0), 1) for b in map(f"{{:0{h.k}b}}".format, range(2 ** h.k))}


def huffman_code(counts: Dict[str, int]) -> Dict[str, str]:
    """Canonical Huffman codewords; ties merge the lexicographically
    smallest block first, so the code is reproducible."""
    if not counts:
        raise ContractError("cannot code an empty alphabet")
    if len(counts) == 1:
        return {next(iter(counts)): "0"}
    # Subtrees hold disjoint block sets, so the min-block component breaks
    # weight ties deterministically and the tree itself is never compared.
    heap = [(c, b, b) for b, c in counts.items()]
    heapq.heapify(heap)
    while len(heap) > 1:
        w1, m1, t1 = heapq.heappop(heap)
        w2, m2, t2 = heapq.heappop(heap)
        heapq.heappush(heap, (w1 + w2, min(m1, m2), (t1, t2)))
    code: Dict[str, str] = {}

    def walk(tree, prefix):
        if isinstance(tree, str):
            code[tree] = prefix or "0"
            return
        walk(tree[0], prefix + "0")
        walk(tree[1], prefix + "1")

    walk(heap[0][2], "")
    return code


def build_block_coder(h: BlockHistogram) -> DescriptionMode:
    """Huffman block code as a description mode.

    The code trie consumes description bits toward a leaf; the leaf then
    emits its k-block letter by letter on the way back to the root.
    Absent blocks are smoothed to count one so every k-block stays
    reachable.  Built as edge columns, block by block in block order:
    first the trie nodes that the block's codeword is the first to reach,
    top down, then its k - 1 emission states.  A trie node is known by its
    codeword prefix read as a binary number after a leading 1.
    """
    if h.mode != "aligned":
        raise ContractError("block coder training needs an aligned histogram")
    if h.k > _MAX_CODER_K:
        raise BudgetExceeded("coder automaton would be too large", 1 << _MAX_CODER_K)
    k, counts = h.k, smoothed_counts(h)
    words = list(map(huffman_code(counts).__getitem__, counts))      # in block order
    size = np.fromiter(map(len, words), np.int64, len(words))
    blocks, ends = np.arange(size.size), np.cumsum(size)
    reach = np.arange(size.max()) < size[:, None]          # [block, depth - 1]
    prefix = np.zeros(reach.shape, np.int64 if size.max() < 62 else object)
    prefix[reach] = np.frombuffer("".join(words).encode("ascii"), np.uint8) - ord("0")
    bit = prefix[reach]
    prefix[:, 0] += 2
    for d in range(1, prefix.shape[1]):
        prefix[:, d] += 2 * prefix[:, d - 1]
    _, first, node = np.unique(prefix[reach], return_index=True, return_inverse=True)
    new = np.bincount(first, minlength=bit.size) > 0
    made = np.cumsum(new)                    # trie nodes made up to each codeword bit
    block = np.repeat(blocks, size)
    state = ((k - 1) * block + made)[first][node.ravel()]
    emit = ((k - 1) * blocks + made[ends - 1] + 1)[:, None] + np.arange(k - 1)
    trie_at = np.arange(bit.size) + k * block            # each block's edges, then the next's
    chain_at = (ends + k * blocks)[:, None] + np.arange(k)
    table = np.full((4, bit.size + k * size.size), -1, dtype=np.int64)
    table[0, trie_at[1:]] = state[:-1]                    # each trie edge from its parent
    table[0, trie_at[ends - size]] = 0
    table[1, trie_at], table[2, trie_at] = state, bit
    table[0, chain_at[:, 0]], table[0, chain_at[:, 1:]] = state[ends - 1], emit
    table[1, chain_at[:, :-1]], table[1, chain_at[:, -1]] = emit, 0
    table[3, chain_at] = blocks[:, None] >> np.arange(k - 1, -1, -1) & 1
    num_states = 1 + (k - 1) * size.size + int(made[-1])
    keep = np.ones(table.shape[1], dtype=bool)
    keep[trie_at[~new]] = False
    src, dst, *letters = table[:, keep]
    aut = LabeledAutomaton.from_columns(2, (BINARY, BINARY), num_states, src, dst, letters)
    # Fan-out per description: the parse is deterministic per start state
    # and the free end adds at most k+1 truncation points per start.
    cert = ValuednessCertificate.asserted(num_states * (k + 1), "block-coder")
    return DescriptionMode(aut, cert, name=f"coder(k={k})")


# --- combined report ----------------------------------------------------------

@dataclass(frozen=True)
class NormalityRow:
    k: int
    aligned_disc: float
    sliding_disc: float
    entropy: float
    ps_ratio: float
    coder_ratio: float


def normality_report(bits: str, n: int, k_max: int) -> List[NormalityRow]:
    """Per-k statistics plus the compression ratio of a coder trained on
    the first half of the prefix and applied to the whole prefix."""
    if not 1 <= k_max <= _MAX_CODER_K:
        raise ContractError(f"k_max must lie in 1..{_MAX_CODER_K}")
    rows, ones, codes = [], _windows(bits, n, 1), np.zeros(n + 1, dtype=np.int64)
    for k in range(1, k_max + 1):
        if n // 2 < k:                      # the training half holds no k-block
            raise ContractError("need n >= k >= 1")
        codes = (codes[:-1] << 1) | ones[k - 1:]          # the k-bit window codes
        h_al, h_sl = _histogram(codes, n, k, "aligned"), _histogram(codes, n, k, "sliding")
        coder = build_block_coder(_histogram(codes, n // 2, k, "aligned"))
        kx = complexity(coder, bits[:n])
        ratio = math.inf if kx == UNREACHABLE else kx / n
        rows.append(NormalityRow(
            k=k,
            aligned_disc=discrepancy(h_al),
            sliding_disc=discrepancy(h_sl),
            entropy=empirical_entropy(h_al),
            ps_ratio=ps_ratio(h_sl),
            coder_ratio=ratio,
        ))
    return rows


def report_to_csv(rows: List[NormalityRow]) -> str:
    lines = ["k,aligned_disc,sliding_disc,entropy,ps_ratio,coder_ratio"]
    for r in rows:
        lines.append(f"{r.k},{r.aligned_disc:.6f},{r.sliding_disc:.6f},"
                     f"{r.entropy:.6f},{r.ps_ratio:.6f},{r.coder_ratio:.6f}")
    return "\n".join(lines) + "\n"
