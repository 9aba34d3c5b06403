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
    """Exact k-block counts over the first n bits, one streaming pass."""
    if mode not in ("aligned", "sliding"):
        raise ContractError(f"unknown histogram mode {mode!r}")
    if k < 1 or n < k:
        raise ContractError("need n >= k >= 1")
    if k > _MAX_HISTOGRAM_K:
        raise BudgetExceeded("histogram table would be too large", 1 << _MAX_HISTOGRAM_K)
    if len(bits) < n:
        raise ContractError(f"sequence holds {len(bits)} bits, {n} requested")
    arr = np.frombuffer(bits[:n].encode("ascii"), dtype=np.uint8) - ord("0")
    if arr.max(initial=0) > 1:
        raise ContractError("sequence must be binary")
    width = n - k + 1
    codes = np.zeros(width, dtype=np.int64)
    for j in range(k):
        codes = (codes << 1) | arr[j:j + width]
    if mode == "aligned":
        codes = codes[::k][:n // k]
    binc = np.bincount(codes, minlength=0)
    counts = {format(v, f"0{k}b"): int(c)
              for v, c in enumerate(binc) if c > 0}
    return BlockHistogram(k=k, mode=mode, n=n, counts=counts)


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
    return {format(v, f"0{h.k}b"): max(h.counts.get(format(v, f"0{h.k}b"), 0), 1)
            for v in range(2 ** h.k)}


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


def average_code_length(code: Dict[str, str], counts: Dict[str, int]) -> float:
    total = sum(counts.values())
    return sum(counts[b] * len(w) for b, w in code.items()) / total


def build_block_coder(h: BlockHistogram) -> DescriptionMode:
    """Huffman block code as a description mode.

    The code trie consumes description bits toward a leaf; the leaf then
    emits its k-block letter by letter on the way back to the root.
    Absent blocks are smoothed to count one so every k-block stays
    reachable.
    """
    if h.mode != "aligned":
        raise ContractError("block coder training needs an aligned histogram")
    if h.k > _MAX_CODER_K:
        raise BudgetExceeded("coder automaton would be too large", 1 << _MAX_CODER_K)
    counts = smoothed_counts(h)
    code = huffman_code(counts)
    zero, one = BINARY.index("0"), BINARY.index("1")
    bit_idx = {"0": zero, "1": one}

    edges = []
    children: Dict[tuple, int] = {}
    next_state = 1  # 0 is the root
    for block in sorted(code):
        word = code[block]
        node = 0
        for bit in word:
            key = (node, bit)
            child = children.get(key)
            if child is None:
                child = next_state
                next_state += 1
                children[key] = child
                edges.append((node, child, (bit_idx[bit], EPSILON)))
            node = child
        # Emission chain: k object letters from the leaf back to the root.
        for i, bit in enumerate(block):
            target = 0 if i == h.k - 1 else next_state
            if i < h.k - 1:
                next_state += 1
            edges.append((node, target, (EPSILON, bit_idx[bit])))
            node = target
    aut = LabeledAutomaton(arity=2, alphabets=(BINARY, BINARY),
                           num_states=next_state, edges=tuple(edges))
    # Fan-out per description: the parse is deterministic per start state
    # and the free end adds at most k+1 truncation points per start.
    bound = next_state * (h.k + 1)
    cert = ValuednessCertificate.asserted(bound, "block-coder")
    return DescriptionMode(aut, cert, name=f"coder(k={h.k})")


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
    rows = []
    for k in range(1, k_max + 1):
        h_al = block_histogram(bits, n, k, "aligned")
        h_sl = block_histogram(bits, n, k, "sliding")
        train = block_histogram(bits, n // 2, k, "aligned")
        coder = build_block_coder(train)
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
