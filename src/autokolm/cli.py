"""Command-line front end.

Every command is deterministic given its arguments and input files and
emits CSV or plain text for offline plotting.  Exit codes: 0 success,
2 argument error, 1 runtime error; errors print one line to stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import constructions, modes, normality, seqgen
from .complexity import UNREACHABLE, complexity, complexity_curve
from .errors import BudgetExceeded, ContractError, FormatError, InputRejected
from .modes import parse_mode, serialize_mode, valuedness_profile


def _write(path, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _read_ascii(path) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: non-ASCII byte at offset {exc.start}") from None


def _load_mode(path):
    return parse_mode(_read_ascii(path))


def _load_rule(path):
    return constructions.parse_rule(_read_ascii(path))


# --- commands -----------------------------------------------------------------

def cmd_gen(args) -> int:
    if args.kind == "champernowne":
        bits = seqgen.champernowne_bits(args.bits)
    elif args.kind == "rational":
        if args.param is None or "/" not in args.param:
            raise ContractError("rational source needs a P/Q argument")
        p, q = args.param.split("/", 1)
        bits = seqgen.rational_bits(int(p), int(q), args.bits)
    else:  # bernoulli; argparse refuses any other kind
        if args.param is None:
            raise ContractError("bernoulli source needs a probability argument")
        bits = seqgen.bernoulli_bits(float(args.param), args.seed, args.bits)
    _write(args.out, bits + "\n")
    return 0


def cmd_stats(args) -> int:
    bits = seqgen.read_sequence_file(args.input)
    h = normality.block_histogram(bits, args.n, args.k, args.mode)
    row = (f"{h.k},{h.mode},{h.n},{normality.discrepancy(h):.6f},"
           f"{normality.empirical_entropy(h):.6f},{normality.ps_ratio(h):.6f}")
    _write(args.out, "k,mode,n,discrepancy,entropy,ps_ratio\n" + row + "\n")
    return 0


def cmd_report(args) -> int:
    bits = seqgen.read_sequence_file(args.input)
    rows = normality.normality_report(bits, args.n, args.kmax)
    _write(args.out, normality.report_to_csv(rows))
    return 0


def cmd_mode(args) -> int:
    kind = args.constructor
    if kind == "identity":
        mode = modes.identity_mode()
    elif kind == "unary":
        if args.c is None:
            raise ContractError("unary needs --c")
        mode = modes.unary_compressor(args.c)
    elif kind == "wall":
        if args.c is None:
            raise ContractError("wall needs --c")
        mode = constructions.wall_mode(args.c)
    elif kind == "union":
        mode = modes.union(*map(_load_mode, _two_operands(args)))
    elif kind == "compose":
        mode = modes.compose(*map(_load_mode, _two_operands(args)))
    elif kind == "reverse":
        mode = modes.reverse_mode(_load_mode(_one_operand(args)))
    elif kind == "invert":
        mode = modes.inverse_mode(_load_mode(_one_operand(args)))
    elif kind == "layered":
        if args.layers is None:
            raise ContractError("layered needs --layers")
        mode = modes.layered_concat(_load_mode(_one_operand(args)), args.layers)
    else:  # build-coder; argparse refuses any other constructor
        if args.k is None or args.train is None or args.n is None:
            raise ContractError("build-coder needs --k, --train and --n")
        bits = seqgen.read_sequence_file(args.train)
        hist = normality.block_histogram(bits, args.n, args.k, "aligned")
        mode = normality.build_block_coder(hist)
    _write(args.out, serialize_mode(mode))
    return 0


def _one_operand(args):
    if len(args.operands) != 1:
        raise ContractError("this constructor takes one mode file")
    return args.operands[0]


def _two_operands(args):
    if len(args.operands) != 2:
        raise ContractError("this constructor takes two mode files")
    return args.operands


def cmd_complexity(args) -> int:
    mode = _load_mode(args.mode)
    if args.word is None and args.input is None:
        raise ContractError("need --word or --input")
    if args.curve is not None:
        if args.input is None:
            raise ContractError("--curve needs --input")
        bits = seqgen.read_sequence_file(args.input)
        n_max = args.n if args.n is not None else len(bits)
        curve = complexity_curve(mode, bits, n_max, args.curve)
        _write(args.out, curve.to_csv())
        return 0
    word = args.word
    if word is None:
        bits = seqgen.read_sequence_file(args.input)
        word = bits[: args.n] if args.n is not None else bits
    value = complexity(mode, word)
    _write(args.out, ("unreachable" if value == UNREACHABLE else str(value)) + "\n")
    return 0


def cmd_check_mode(args) -> int:
    mode = _load_mode(args.mode)
    lines = [f"stored-certificate: {mode.certificate.describe()}"]
    profile = valuedness_profile(mode, args.max_len)
    if profile.witness is not None:
        lines.append("eps-cycle: unbounded")
        lines.append("witness: " + " ".join(f"{s}->{d}" for s, d, _ in profile.witness))
    else:
        lines.append("eps-cycle: pass")
        lines.append(f"profile: max-fanout={profile.max_fanout} L={args.max_len}")
        lines.append(f"profiled-certificate: {profile.certificate.describe()}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_select(args) -> int:
    rule = _load_rule(args.rule)
    bits = seqgen.read_sequence_file(args.input)[: args.n]
    selected, rest = constructions.apply_selection(rule, bits)
    verdict = constructions.classify_selection(rule)
    if args.out_selected:
        _write(args.out_selected, selected + "\n")
    if args.out_rest:
        _write(args.out_rest, rest + "\n")
    if args.out_density:
        step = max(1, len(bits) // 100)
        marks = list(range(step, len(bits) + 1, step))
        trace = constructions.selection_trace(rule, bits, marks)
        lines = ["n,selected,density"]
        for n, count in trace:
            lines.append(f"{n},{count},{count / n:.6f}")
        _write(args.out_density, "\n".join(lines) + "\n")
    sys.stdout.write(f"classification: {verdict}\n")
    return 0


# --- argument parsing -----------------------------------------------------------

def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="autokolm",
        description="Finite-state description modes and normality statistics.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a binary sequence file")
    p.add_argument("kind", choices=["champernowne", "rational", "bernoulli"])
    p.add_argument("param", nargs="?", help="P/Q for rational, probability for bernoulli")
    p.add_argument("--bits", type=nonnegative_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("stats", help="block histogram statistics for one k")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["aligned", "sliding"], default="aligned")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("report", help="per-k normality report with coder ratios")
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("mode", help="build a description mode file")
    p.add_argument("constructor",
                   choices=["identity", "unary", "wall", "union", "compose",
                            "reverse", "invert", "layered", "build-coder"])
    p.add_argument("operands", nargs="*", help="input mode files")
    p.add_argument("--c", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--train")
    p.add_argument("--n", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mode)

    p = sub.add_parser("complexity", help="complexity of a word or prefix curve")
    p.add_argument("--mode", required=True, help="mode file")
    p.add_argument("--word")
    p.add_argument("--input")
    p.add_argument("--curve", type=int, help="sample step for a prefix curve")
    p.add_argument("--n", type=nonnegative_int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("check-mode", help="certificate report for a mode file")
    p.add_argument("--mode", required=True)
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check_mode)

    p = sub.add_parser("select", help="apply a selection rule to a sequence")
    p.add_argument("--rule", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=nonnegative_int, required=True)
    p.add_argument("--out-selected")
    p.add_argument("--out-rest")
    p.add_argument("--out-density")
    p.set_defaults(func=cmd_select)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ContractError, InputRejected) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, BudgetExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # Unparsable argument values (bad ints, bad fractions).
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
