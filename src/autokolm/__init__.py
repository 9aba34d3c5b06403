"""Finite-state description modes, exact automatic complexity, and
empirical normality statistics for binary sequences."""

from .automaton import (
    EPSILON,
    LabeledAutomaton,
    enumerate_relation,
    parse_automaton,
    reverse,
    serialize_automaton,
    swap_tapes,
)
from .complexity import (
    UNREACHABLE,
    ComplexityCurve,
    complexity,
    complexity_curve,
    pair_complexity,
)
from .constructions import (
    SelectionRule,
    apply_selection,
    classify_selection,
    joint,
    merge,
    parse_rule,
    serialize_rule,
    splitter_mode,
    wall_mode,
)
from .errors import BudgetExceeded, ContractError, FormatError, InputRejected
from .modes import (
    DescriptionMode,
    PairDescriptionMode,
    ValuednessCertificate,
    append_symbol,
    compose,
    eps_cycle_check,
    identity_mode,
    inverse_mode,
    layered_concat,
    parse_mode,
    reverse_mode,
    serialize_mode,
    unary_compressor,
    union,
    valuedness_profile,
)
from .normality import (
    BlockHistogram,
    block_histogram,
    build_block_coder,
    discrepancy,
    empirical_entropy,
    huffman_code,
    normality_report,
    ps_ratio,
)
from .seqgen import (
    bernoulli_bits,
    champernowne_bits,
    rational_bits,
    read_sequence_file,
)

__all__ = [name for name in dir() if not name.startswith("_")]
