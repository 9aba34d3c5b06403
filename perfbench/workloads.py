"""The benchmark's workloads and the round each of them repeats.

A round builds everything from the seeded inputs (set-up), then makes
the timed calls into autokolm: cold `complexity` calls, `complexity_curve`
with default arguments, a library `normality_report`, a few
`pair_complexity` calls and a fixed list of CLI commands, each in its own
process.  The first round's outputs are checked against independent
bounds and against the library; every later round must reproduce them
(see `check`).  A traced round also repeats each call warm on the same
mode object and runs each curve with `verify=False`, which gives compile
and verify costs per layer.

NOTES.md explains why each workload exists and which metric each layer
should move.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import autokolm as ak
from autokolm import normality
from autokolm.constructions import SelectionRule

from tracing import LAYERS, Recorder

BERNOULLI_P = 0.9
CHAMP_MAX_OFFSET = 1 << 20   # the Champernowne window starts below this bit
REPORT_KMAX = 8
CHECK_MODE_MAX_LEN = 3
WORD_BITS = 64               # CLI `complexity --word` and pair_complexity words
PAIR_CALLS = 16
REFERENCE_CURVE_MAX_BITS = 4096   # calls up to this length are re-derived by a curve
SETUPS_PER_ROUND = 5         # setup_s is the mean over all set-ups of the run
CLI_TIMEOUT_S = 120
# Selects every other bit; joint(identity, splitter(rule)) then describes
# any w by its two halves, so pair_complexity(w) == len(w) exactly.
PARITY_RULE = SelectionRule(2, 0, frozenset({0}), ((1, 1), (0, 0)))
CLI_COMMANDS = ("gen", "build_coder", "check_mode", "complexity_word",
                "complexity_input", "report", "select")
CLI_FILES = ("coder_cli.aut", "sel.txt", "rest.txt")   # written by the CLI list
# Spans whose per-round totals feed the per-layer metrics.
LAYER_SPANS = (
    "seqgen.generate", "seqgen.read_file", "normality.histogram",
    "normality.coder_build", "modes.construct", "modes.eps_cycle_check",
    "modes.valuedness_profile", "automaton.serialize", "automaton.parse",
    "complexity.complexity", "complexity.complexity_warm", "complexity.curve",
    "complexity.curve_noverify", "constructions.build", "cli.import",
) + tuple(f"cli.{c}" for c in CLI_COMMANDS)


@dataclass(frozen=True)
class Workload:
    name: str
    source: str          # "champernowne" (window at a seeded offset) or "bernoulli"
    bits: int            # input length; coders train on its first half
    coder_ks: tuple      # block lengths of the coders trained on the input
    long_modes: tuple    # one cold complexity over the whole input per mode
    short_modes: tuple   # per_class seeded words of each length in short_lens
    short_lens: tuple
    per_class: int
    curve_modes: tuple   # complexity_curve, default arguments, curve_bits long
    curve_bits: int
    curve_step: int
    report_bits: int     # library normality_report and CLI `report`
    cli_k: int           # coder the CLI builds, checks and runs
    cli_bits: int        # prefix for CLI `complexity --input` and `select`
    round_s: float       # nominal round length on a 2-core Xeon; sets the round count


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="champ-coder8", source="champernowne", bits=64_000,
            coder_ks=(8,), long_modes=("coder8",),
            short_modes=(), short_lens=(), per_class=0,
            curve_modes=("coder8",), curve_bits=64_000, curve_step=4_000,
            report_bits=16_000, cli_k=8, cli_bits=4_096, round_s=8.0),
        Workload(
            name="skewed-modes", source="bernoulli", bits=48_000,
            coder_ks=(4,), long_modes=("identity", "union", "coder4", "layered"),
            short_modes=(), short_lens=(), per_class=0,
            curve_modes=("coder4",), curve_bits=48_000, curve_step=3_000,
            report_bits=16_000, cli_k=4, cli_bits=4_096, round_s=6.5),
        Workload(
            name="short-calls", source="champernowne", bits=1 << 16,
            coder_ks=(4, 8), long_modes=(),
            short_modes=("identity", "union", "coder4", "coder8"),
            short_lens=(16, 64, 256, 1024), per_class=63,
            curve_modes=("identity", "union", "coder4", "coder8"),
            curve_bits=1024, curve_step=128,
            report_bits=8_192, cli_k=8, cli_bits=4_096, round_s=8.0),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Everything the seed decides: the sequence and the word positions."""

    seed: int
    offset: int          # Champernowne window start; 0 for Bernoulli input
    calls: tuple         # (mode, start, length) of each timed complexity call
    curves: tuple        # (mode, start) of each timed curve
    pair_starts: tuple
    word_start: int      # CLI `complexity --word`


def make_inputs(w: Workload, seed: int) -> Inputs:
    rng = random.Random(f"{w.name}/{seed}")
    offset = rng.randrange(CHAMP_MAX_OFFSET) if w.source == "champernowne" else 0
    calls = [(m, 0, w.bits) for m in w.long_modes]
    calls += [(m, rng.randrange(w.bits - n + 1), n)
              for m in w.short_modes for n in w.short_lens
              for _ in range(w.per_class)]
    curves = tuple((m, rng.randrange(w.bits - w.curve_bits + 1))
                   for m in w.curve_modes)
    pairs = tuple(rng.randrange(w.bits - WORD_BITS + 1) for _ in range(PAIR_CALLS))
    return Inputs(seed, offset, tuple(calls), curves, pairs,
                  rng.randrange(w.bits - WORD_BITS + 1))


def codeword_bound(code: dict, word: str, k: int) -> int:
    """Summed codeword lengths of the aligned k-blocks of word."""
    return sum(len(code[word[i:i + k]]) for i in range(0, len(word) - k + 1, k))


def quantile(values, q: int) -> float:
    """The q-th percentile (inclusive method), any sample count >= 1."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Bench:
    """One run of one workload: rounds of set-up, timed calls and checks."""

    def __init__(self, w: Workload, seed: int, root: Path, workdir: Path):
        self.w = w
        self.inputs = make_inputs(w, seed)
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.rec = Recorder()
        self.rounds: list[dict] = []     # one dict of end-to-end timings per round
        self.layer_rounds: list[dict] = []   # per-layer metrics of traced rounds
        self.counts: dict = {}
        self.first_outputs = None
        self.planned_rounds = 0

    # --- set-up -------------------------------------------------------------

    def _generate(self) -> str:
        w, inp = self.w, self.inputs
        if w.source == "champernowne":
            # Always the same length, so set-up cost does not depend on the seed.
            bits = ak.champernowne_bits(CHAMP_MAX_OFFSET + w.bits)
            return bits[inp.offset:inp.offset + w.bits]
        return ak.bernoulli_bits(BERNOULLI_P, inp.seed, w.bits)

    def setup(self):
        """Inputs, files, coders and modes; None if any step failed."""
        rec, w = self.rec, self.w
        with rec.phase("setup"):
            seq, _ = rec.call("seqgen.generate", self._generate)
            if seq is None:
                return None
            (self.workdir / "seq.txt").write_text(seq + "\n", encoding="ascii")
            back, _ = rec.call("seqgen.read_file", ak.read_sequence_file,
                               self.workdir / "seq.txt")
            rec.check("seqgen.read_file", back == seq)
            st = {"seq": seq, "modes": {}, "hists": {}}
            modes = st["modes"]
            for k in w.coder_ks:
                hist, _ = rec.call("normality.histogram", ak.block_histogram,
                                   seq, w.bits // 2, k, "aligned")
                coder, _ = rec.call("normality.coder_build", ak.build_block_coder, hist)
                if coder is None:
                    return None
                modes[f"coder{k}"] = coder
                st["hists"][k] = hist
            identity, _ = rec.call("modes.construct", ak.identity_mode)
            modes["identity"] = identity
            modes["union"], _ = rec.call(
                "modes.construct",
                lambda: ak.union(ak.identity_mode(), ak.unary_compressor(3)))
            if "layered" in w.long_modes + w.short_modes:
                modes["layered"], _ = rec.call("modes.construct", ak.layered_concat,
                                               modes["coder4"], 2)
            rule_text, _ = rec.call("constructions.serialize_rule",
                                    ak.serialize_rule, PARITY_RULE)
            (self.workdir / "parity.rule").write_text(rule_text, encoding="ascii")
            st["rule"], _ = rec.call("constructions.build", ak.parse_rule, rule_text)
            splitter, _ = rec.call("constructions.build", ak.splitter_mode, st["rule"])
            st["joint"], _ = rec.call("constructions.build", ak.joint, identity, splitter)
            if None in modes.values() or st["joint"] is None:
                return None
            call_modes = {m for m, _, _ in self.inputs.calls}
            for name in sorted(call_modes | {f"coder{w.cli_k}"}):
                text, _ = rec.call("automaton.serialize", ak.serialize_mode, modes[name])
                parsed, _ = rec.call("automaton.parse", ak.parse_mode, text)
                rec.check("automaton.parse",
                          parsed is not None
                          and parsed.automaton == modes[name].automaton
                          and parsed.certificate.bound == modes[name].certificate.bound,
                          f"{name} mode text round trip")
                if name == f"coder{w.cli_k}":
                    (self.workdir / "coder.aut").write_text(text, encoding="ascii")
                    st["cli_coder"] = parsed
        self.counts = {
            "coder_states": max(modes[f"coder{k}"].automaton.num_states
                                for k in w.coder_ks),
            "states": sum(modes[m].automaton.num_states for m in call_modes),
            "edges": sum(len(modes[m].automaton.edges) for m in call_modes),
            "per_mode": {m: {"states": modes[m].automaton.num_states,
                             "edges": len(modes[m].automaton.edges)}
                         for m in sorted(call_modes)},
        }
        return st

    # --- the timed calls ------------------------------------------------------

    def _cli(self, *args) -> str:
        """Run one autokolm command in its own process; its stdout."""
        proc = subprocess.run([sys.executable, "-m", "autokolm", *args],
                              cwd=self.workdir, env=self.env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()}")
        return proc.stdout

    def cli_commands(self, st) -> dict:
        w, inp = self.w, self.inputs
        word = st["seq"][inp.word_start:inp.word_start + WORD_BITS]
        gen = (["gen", "champernowne"] if w.source == "champernowne" else
               ["gen", "bernoulli", str(BERNOULLI_P), "--seed", str(inp.seed)])
        return {
            "gen": gen + ["--bits", str(w.cli_bits)],
            "build_coder": ["mode", "build-coder", "--k", str(w.cli_k), "--train",
                            "seq.txt", "--n", str(w.bits // 2), "--out", "coder_cli.aut"],
            "check_mode": ["check-mode", "--mode", "coder.aut",
                           "--max-len", str(CHECK_MODE_MAX_LEN)],
            "complexity_word": ["complexity", "--mode", "coder.aut", "--word", word],
            "complexity_input": ["complexity", "--mode", "coder.aut", "--input",
                                 "seq.txt", "--n", str(w.cli_bits)],
            "report": ["report", "--input", "seq.txt", "--n", str(w.report_bits),
                       "--kmax", str(REPORT_KMAX)],
            "select": ["select", "--rule", "parity.rule", "--input", "seq.txt",
                       "--n", str(w.cli_bits), "--out-selected", "sel.txt",
                       "--out-rest", "rest.txt"],
        }

    def timed(self, st, warm_curves: bool = False) -> dict:
        """The calls behind the end-to-end metrics, in a fixed order.

        With warm_curves (traced rounds), each curve mode compiles its
        sweep before the timed curves, so that the default curve and its
        verify=False repeat in `traced_extras` both run on a compiled
        mode.  It comes after the cold calls, which must compile.
        """
        rec, w, seq, modes = self.rec, self.w, st["seq"], st["modes"]
        t = {"calls": [], "curves": [], "pairs": [], "cli": {}}
        with rec.phase("calls"):
            for mode, start, n in self.inputs.calls:
                k, dt = rec.call("complexity.complexity", ak.complexity,
                                 modes[mode], seq[start:start + n])
                t["calls"].append((mode, start, n, k, dt))
        if warm_curves:
            with rec.phase("curve_warmup"):
                for mode, start in self.inputs.curves:
                    rec.call("complexity.curve_warmup", ak.complexity_curve, modes[mode],
                             seq[start:start + 1], 1, 1, verify=False)
        with rec.phase("curves"):
            for mode, start in self.inputs.curves:
                curve, dt = rec.call("complexity.curve", ak.complexity_curve, modes[mode],
                                     seq[start:start + w.curve_bits], w.curve_bits,
                                     w.curve_step)
                t["curves"].append((mode, start, curve, dt))
        with rec.phase("report"):
            t["report"] = rec.call("normality.report", ak.normality_report,
                                   seq, w.report_bits, REPORT_KMAX)
        with rec.phase("pairs"):
            for start in self.inputs.pair_starts:
                t["pairs"].append(rec.call("complexity.pair", ak.pair_complexity,
                                           st["joint"], seq[start:start + WORD_BITS]))
        with rec.phase("cli"):
            for name in CLI_FILES:
                (self.workdir / name).unlink(missing_ok=True)
            for name, args in self.cli_commands(st).items():
                t["cli"][name] = rec.call(f"cli.{name}", self._cli, *args)
        return t

    # --- output checks ----------------------------------------------------------

    def check(self, st, t):
        """Check every output of the round; mismatches count as failures.

        The first round's outputs are checked against independent bounds
        and the library; every later round makes the same calls on the
        same inputs, so its outputs must equal the first round's.
        """
        outputs = self._outputs(t)
        if self.first_outputs is None:
            self._check_first(st, t)
            self.first_outputs = outputs
            return
        with self.rec.phase("checks"):
            for key, value in outputs.items():
                self.rec.check(f"{key}.repeat", value == self.first_outputs[key])

    def _outputs(self, t) -> dict:
        """Every output of a round, keyed by the layer that produced it."""
        read = (lambda name: (self.workdir / name).read_text(encoding="ascii")
                if (self.workdir / name).exists() else None)
        return {
            "complexity.calls": [c[3] for c in t["calls"]],
            "complexity.curves": [c[2] and c[2].samples for c in t["curves"]],
            "complexity.pairs": [k for k, _ in t["pairs"]],
            "normality.report": t["report"][0],
            "cli.outputs": {name: out for name, (out, _) in t["cli"].items()},
            "cli.files": [read(name) for name in CLI_FILES],
        }

    def _check_first(self, st, t):
        rec, w, seq, modes = self.rec, self.w, st["seq"], st["modes"]
        known, codes = {}, {}
        with rec.phase("checks"):
            for mode, start, n, k, _ in t["calls"]:
                if k is None:
                    continue
                known[(mode, start, n)] = k
                word = seq[start:start + n]
                if mode == "identity":
                    rec.check("complexity.identity", k == n, f"K={k} n={n}")
                elif mode == "union":
                    rec.check("complexity.union", k <= n, f"K={k} n={n}")
                elif mode == "layered":
                    # Starting in the unrestricted final copy runs the base coder.
                    base = known.get(("coder4", start, n))
                    rec.check("complexity.layered", base is not None and k <= base,
                              f"K={k} base={base}")
                elif mode.startswith("coder") and n % int(mode[5:]) == 0:
                    kb = int(mode[5:])
                    if kb not in codes:
                        codes[kb], _ = rec.call("normality.huffman_code", ak.huffman_code,
                                                normality.smoothed_counts(st["hists"][kb]))
                    bound = codes[kb] and codeword_bound(codes[kb], word, kb)
                    rec.check("complexity.coder_bound", bound is not None and k <= bound,
                              f"K={k} bound={bound}")
                if n <= REFERENCE_CURVE_MAX_BITS:
                    curve, _ = rec.call("complexity.reference_curve", ak.complexity_curve,
                                        modes[mode], word, n, n, verify=False)
                    if curve is not None:
                        rec.check("complexity.short_call", curve.samples[-1] == (n, k),
                                  f"{mode} n={n}: K={k} curve={curve.samples[-1]}")
            for mode, start, curve, _ in t["curves"]:
                if curve is None:
                    continue
                values = [v for _, v in curve.samples]
                rec.check("complexity.curve_monotone",
                          all(a <= b for a, b in zip(values, values[1:])))
                ref = known.get((mode, start, w.curve_bits))
                if ref is None:
                    ref, _ = rec.call("complexity.reference", ak.complexity, modes[mode],
                                      seq[start:start + w.curve_bits])
                if ref is not None:
                    rec.check("complexity.curve_last",
                              curve.samples[-1] == (w.curve_bits, ref),
                              f"{mode}: {curve.samples[-1]} vs K={ref}")
            for k, _ in t["pairs"]:
                if k is not None:
                    rec.check("complexity.pair", k == WORD_BITS, f"K={k}")
            self._check_cli(st, t)

    def _check_cli(self, st, t):
        """Each CLI output must equal the library's result on the same input."""
        rec, w, seq, inp = self.rec, self.w, st["seq"], self.inputs
        out = {name: value for name, (value, _) in t["cli"].items()}
        coder = st["cli_coder"]
        if out["gen"] is not None:
            ref, _ = rec.call("seqgen.reference", self._generate_cli_reference)
            rec.check("cli.gen", out["gen"] == f"{ref}\n")
        if out["build_coder"] is not None:
            built = (self.workdir / "coder_cli.aut").read_text(encoding="ascii")
            rec.check("cli.build_coder",
                      built == (self.workdir / "coder.aut").read_text(encoding="ascii"))
        if out["check_mode"] is not None:
            self._check_check_mode(out["check_mode"], coder)
        word = seq[inp.word_start:inp.word_start + WORD_BITS]
        for name, text in (("complexity_word", word),
                           ("complexity_input", seq[:w.cli_bits])):
            if out[name] is not None:
                ref, _ = rec.call("complexity.reference", ak.complexity, coder, text)
                rec.check(f"cli.{name}", out[name] == f"{ref}\n",
                          f"{out[name].strip()} vs {ref}")
        rows = t["report"][0]
        if out["report"] is not None and rows is not None:
            rec.check("cli.report", out["report"] == normality.report_to_csv(rows))
        if out["select"] is not None:
            parts, _ = rec.call("constructions.apply_selection", ak.apply_selection,
                                st["rule"], seq[:w.cli_bits])
            verdict, _ = rec.call("constructions.classify_selection",
                                  ak.classify_selection, st["rule"])
            sel = (self.workdir / "sel.txt").read_text(encoding="ascii")
            rest = (self.workdir / "rest.txt").read_text(encoding="ascii")
            rec.check("cli.select",
                      parts is not None and (sel, rest) == (parts[0] + "\n", parts[1] + "\n")
                      and out["select"] == f"classification: {verdict}\n")

    def _generate_cli_reference(self) -> str:
        if self.w.source == "champernowne":
            return ak.champernowne_bits(self.w.cli_bits)
        return ak.bernoulli_bits(BERNOULLI_P, self.inputs.seed, self.w.cli_bits)

    def _check_check_mode(self, text: str, mode):
        rec = self.rec
        fields = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
        witness, _ = rec.call("modes.eps_cycle_check", ak.eps_cycle_check, mode)
        profile, _ = rec.call("modes.valuedness_profile", ak.valuedness_profile,
                              mode, CHECK_MODE_MAX_LEN)
        stats = dict(item.split("=", 1) for item in fields.get("profile", "").split())
        rec.check("cli.check_mode",
                  witness is None and profile is not None
                  and fields.get("stored-certificate") == mode.certificate.describe()
                  and fields.get("eps-cycle") == "pass"
                  and stats == {"max-fanout": str(profile.max_fanout),
                                "L": str(CHECK_MODE_MAX_LEN)}
                  and fields.get("profiled-certificate")
                  == profile.certificate.describe(),
                  text.strip())

    # --- traced rounds --------------------------------------------------------

    def traced_extras(self, st, t):
        """Warm repeats, verify=False curves and check-mode's library calls."""
        rec, w, seq, modes = self.rec, self.w, st["seq"], st["modes"]
        with rec.phase("traced"):
            for mode, start, n, k, _ in t["calls"]:
                warm, _ = rec.call("complexity.complexity_warm", ak.complexity,
                                   modes[mode], seq[start:start + n])
                if k is not None and warm is not None:
                    rec.check("complexity.complexity_warm", warm == k)
            for mode, start, _, _ in t["curves"]:
                rec.call("complexity.curve_noverify", ak.complexity_curve, modes[mode],
                         seq[start:start + w.curve_bits], w.curve_bits, w.curve_step,
                         verify=False)
            # The library half of `check-mode`, on the mode file the CLI loads.
            rec.call("modes.eps_cycle_check", ak.eps_cycle_check, st["cli_coder"])
            rec.call("modes.valuedness_profile", ak.valuedness_profile, st["cli_coder"],
                     CHECK_MODE_MAX_LEN)
            rec.call("cli.import", subprocess.run,
                     [sys.executable, "-c", "import autokolm.cli"], env=self.env,
                     capture_output=True, check=True, timeout=CLI_TIMEOUT_S)

    def _layer_round(self, rid: int, t) -> dict:
        """Raw per-layer timings of one traced round."""
        rec = self.rec
        return {
            "totals": {name: rec.total(rid, name) for name in LAYER_SPANS},
            "self": rec.self_times(rid),
            "pairs": [dt for _, dt in t["pairs"]],
        }

    # --- the run ------------------------------------------------------------------

    def run(self, rounds: int, trace: bool):
        """The rounds; with trace on, every second one is traced.

        Every round makes the same calls on the same inputs, so each call's
        times can be averaged over the rounds (see `_mean`).  Set-up takes
        only tens of milliseconds, so each round sets up several times and
        goes on with the last.
        """
        if trace:
            rounds = max(2, rounds)
        self.planned_rounds = rounds
        for rid in range(rounds):
            traced = trace and rid % 2 == 1
            self.rec.round_id, self.rec.tracing = rid, traced
            t, setups = None, []   # the last round's outputs are freed before set-up
            start = time.perf_counter()
            with self.rec.phase("round"):
                for _ in range(SETUPS_PER_ROUND):
                    # Each set-up starts on a heap without the state before
                    # it; the round goes on with the last one.
                    st = None
                    gc.collect()
                    setup_start = time.perf_counter()
                    st = self.setup()
                    setups.append(time.perf_counter() - setup_start)
                if st is None:
                    continue
                t = self.timed(st, warm_curves=traced)
                self.check(st, t)
                if traced:
                    self.traced_extras(st, t)
            self.rec.tracing = False
            self.rounds.append({
                "traced": traced,
                "wall_s": time.perf_counter() - start,
                "setups": setups,
                "calls": [c[4] for c in t["calls"]],
                "curves": [c[3] for c in t["curves"]],
                "report": t["report"][1],
                "cli": {name: dt for name, (_, dt) in t["cli"].items()},
            })
            if traced:
                self.layer_rounds.append(self._layer_round(rid, t))

    # --- metrics ------------------------------------------------------------------

    @staticmethod
    def _mean(rounds) -> dict:
        """Each timed operation's mean time over the rounds.

        On a machine with shared cores (the 2-vCPU host the bounds were
        set on) contention slows calls by up to 1.7x in phases from
        milliseconds to several seconds long.  A mean over every round
        integrates those phases over the whole run, which varies less
        from run to run than the fastest or the middle round does.
        """
        def mean(values):
            return sum(values) / len(values)

        return {
            "calls": [mean(ts) for ts in zip(*(r["calls"] for r in rounds))],
            "curves": [mean(ts) for ts in zip(*(r["curves"] for r in rounds))],
            "report": mean([r["report"] for r in rounds]),
            "setup": mean([s for r in rounds for s in r["setups"]]),
            "cli": {c: mean([r["cli"][c] for r in rounds]) for c in CLI_COMMANDS},
        }

    @staticmethod
    def _core_s(mean) -> float:
        return (sum(mean["calls"]) + sum(mean["curves"]) + mean["report"]
                + sum(mean["cli"].values()))

    def end_to_end(self) -> dict:
        rounds = [r for r in self.rounds if not r["traced"]]
        mean = self._mean(rounds)
        bits = sum(n for _, _, n in self.inputs.calls)
        lat = [dt * 1e6 for dt in mean["calls"]]
        curve_bits = len(mean["curves"]) * self.w.curve_bits
        return {
            "k_us_per_bit": (sum(mean["calls"]) / bits * 1e6, "us/bit"),
            "curve_us_per_bit": (sum(mean["curves"]) / curve_bits * 1e6, "us/bit"),
            "report_s": (mean["report"], "s"),
            "call_us_p50": (quantile(lat, 50), "us"),
            "call_us_p99": (quantile(lat, 99), "us"),
            "cli_s": (sum(mean["cli"].values()), "s"),
            "setup_s": (mean["setup"], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }

    def per_layer(self) -> dict:
        lr = self.layer_rounds
        tot = {name: sum(r["totals"][name] for r in lr) / len(lr) for name in LAYER_SPANS}
        bits = sum(n for _, _, n in self.inputs.calls)
        cold, warm = tot["complexity.complexity"], tot["complexity.complexity_warm"]
        pairs = [dt for r in lr for dt in r["pairs"]]
        out = {f"{name}_s": (tot[name], "s") for name in LAYER_SPANS
               if name not in ("complexity.complexity", "complexity.complexity_warm",
                               "complexity.curve", "complexity.curve_noverify")}
        out.update({
            "complexity.us_per_bit": (cold / bits * 1e6, "us/bit"),
            "complexity.cold_s": (cold, "s"),
            "complexity.warm_s": (warm, "s"),
            "complexity.compile_est_s": (cold - warm, "s"),
            "complexity.curve_verify_share": (
                (tot["complexity.curve"] - tot["complexity.curve_noverify"])
                / tot["complexity.curve"], "ratio"),
            "complexity.pair_us": (statistics.median(pairs) * 1e6, "us"),
        })
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (sum(r["self"].get(layer, 0.0) for r in lr) / len(lr),
                                      "s")
        traced = self._core_s(self._mean([r for r in self.rounds if r["traced"]]))
        plain = self._core_s(self._mean([r for r in self.rounds if not r["traced"]]))
        out["trace_overhead"] = (traced / plain - 1, "ratio")
        out["normality.coder_states"] = (self.counts["coder_states"], "count")
        out["modes.states"] = (self.counts["states"], "count")
        out["modes.edges"] = (self.counts["edges"], "count")
        out["cli.peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB")
        for layer in LAYERS:
            out[f"{layer}.failed"] = (self.rec.failed_by_layer.get(layer, 0), "count")
        return out

    def detail(self) -> dict:
        """Per-mode, per-length and per-command breakdown of the mean times."""
        rounds = [r for r in self.rounds if not r["traced"]] or self.rounds
        mean = self._mean(rounds)
        per_mode, per_class = {}, {}
        for (mode, _, n), dt in zip(self.inputs.calls, mean["calls"]):
            s = per_mode.setdefault(mode, [0.0, 0])
            s[0] += dt
            s[1] += n
            per_class.setdefault(f"{mode}.{n}", []).append(dt * 1e6)
        return {
            "complexity.us_per_bit": {m: dt / n * 1e6 for m, (dt, n) in per_mode.items()},
            "complexity.call_us_median": {c: statistics.median(v)
                                          for c, v in per_class.items()},
            "call_samples": len(mean["calls"]),
            "timings_per_call": len(rounds),
            "cli_s": mean["cli"],
            "modes": self.counts.get("per_mode", {}),
            "round_wall_s": [r["wall_s"] for r in self.rounds],
            "setup_s": [r["setups"] for r in self.rounds],
        }
