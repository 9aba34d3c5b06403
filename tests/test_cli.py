import importlib

import pytest

from autokolm import automaton, modes
from autokolm.cli import main
from autokolm.constructions import serialize_rule
from autokolm.modes import parse_mode
from autokolm.seqgen import champernowne_bits, read_sequence_file

from helpers import parity_rule, prefix_shorter_than_rule


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_champernowne_golden(tmp_path, capsys):
    out_file = tmp_path / "champ.txt"
    code, _, _ = run(capsys, "gen", "champernowne", "--bits", "22",
                     "--out", str(out_file))
    assert code == 0
    assert out_file.read_text().strip() == "0110111001011101111000"


def test_gen_rational(capsys):
    code, out, _ = run(capsys, "gen", "rational", "1/3", "--bits", "6")
    assert code == 0
    assert out.strip() == "010101"


def test_gen_bernoulli_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        code, _, _ = run(capsys, "gen", "bernoulli", "0.5", "--seed", "42",
                         "--bits", "1000", "--out", str(path))
        assert code == 0
    assert a.read_text() == b.read_text()


def test_mode_identity_then_complexity(tmp_path, capsys):
    mode_file = tmp_path / "id.aut"
    code, _, _ = run(capsys, "mode", "identity", "--out", str(mode_file))
    assert code == 0
    code, out, _ = run(capsys, "complexity", "--mode", str(mode_file),
                       "--word", "0110")
    assert code == 0
    assert out.strip() == "4"


def test_mode_wall_round_trip(tmp_path, capsys):
    mode_file = tmp_path / "w3.aut"
    code, _, _ = run(capsys, "mode", "wall", "--c", "3", "--out", str(mode_file))
    assert code == 0
    mode = parse_mode(mode_file.read_text())
    assert mode.automaton.num_states == 4   # carries 0..c
    assert isinstance(mode.certificate.bound, int)


def test_mode_union_compose_reverse_invert_layered(tmp_path, capsys):
    ident = tmp_path / "id.aut"
    unary = tmp_path / "u2.aut"
    run(capsys, "mode", "identity", "--out", str(ident))
    run(capsys, "mode", "unary", "--c", "2", "--out", str(unary))
    for args, outname in (
        (("union", str(ident), str(unary)), "union.aut"),
        (("compose", str(ident), str(unary)), "comp.aut"),
        (("reverse", str(unary)), "rev.aut"),
        (("invert", str(unary)), "inv.aut"),
        (("layered", str(ident), "--layers", "2"), "lay.aut"),
    ):
        out_file = tmp_path / outname
        code, _, _ = run(capsys, "mode", *args, "--out", str(out_file))
        assert code == 0
        parse_mode(out_file.read_text())


def test_mode_layered_past_the_file_state_limit_exits_1(tmp_path, capsys):
    ident = tmp_path / "id.aut"
    run(capsys, "mode", "identity", "--out", str(ident))
    out_file = tmp_path / "lay.aut"
    code, out, err = run(capsys, "mode", "layered", str(ident), "--layers", "100000000",
                         "--out", str(out_file))
    assert code == 1 and out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "100000003 states" in errors[0]
    assert not out_file.exists()


def test_build_coder_pipeline(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text(champernowne_bits(50_000))
    coder_file = tmp_path / "coder.aut"
    code, _, _ = run(capsys, "mode", "build-coder", "--k", "4",
                     "--train", str(seq), "--n", "50000",
                     "--out", str(coder_file))
    assert code == 0
    code, out, _ = run(capsys, "check-mode", "--mode", str(coder_file),
                       "--max-len", "4")
    assert code == 0
    assert "eps-cycle: pass" in out
    assert "max-fanout=" in out


def test_complexity_curve_csv(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text(champernowne_bits(200))
    ident = tmp_path / "id.aut"
    run(capsys, "mode", "identity", "--out", str(ident))
    code, out, _ = run(capsys, "complexity", "--mode", str(ident),
                       "--input", str(seq), "--curve", "50", "--n", "200")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,complexity,ratio"
    assert lines[1] == "50,50,1.000000"
    assert lines[-1] == "200,200,1.000000"


def test_check_mode_reports_unbounded(tmp_path, capsys):
    bad = tmp_path / "bad.aut"
    bad.write_text("arity 2\nalphabet 0 0 1\nalphabet 1 0 1\nstates 1\n"
                   "edge 0 0 - 0\n")
    code, out, _ = run(capsys, "check-mode", "--mode", str(bad))
    assert code == 0
    assert "eps-cycle: unbounded" in out
    assert "witness: 0->0" in out


def test_check_mode_output(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text(champernowne_bits(2000) + "\n")
    coder = tmp_path / "coder.aut"
    run(capsys, "mode", "build-coder", "--k", "2", "--train", str(seq), "--n", "1000",
        "--out", str(coder))
    loop = tmp_path / "loop.aut"
    loop.write_text("arity 2\nalphabet 0 0 1\nalphabet 1 0 1\nstates 2\n"
                    "edge 0 1 - 0\nedge 1 0 - 1\nedge 0 0 1 1\ncertificate unbounded\n")
    code, out, _ = run(capsys, "check-mode", "--mode", str(coder), "--max-len", "3")
    assert code == 0
    assert out == (
        "stored-certificate: bound=33 method=asserted-by-construction "
        "construction=block-coder\n"
        "eps-cycle: pass\n"
        "profile: max-fanout=17 L=3\n"
        "profiled-certificate: bound=17 method=brute-force-up-to-L L=3\n")
    code, out, _ = run(capsys, "check-mode", "--mode", str(loop))
    assert code == 0
    assert out == ("stored-certificate: bound=unbounded method=structural-infinite-witness\n"
                   "eps-cycle: unbounded\n"
                   "witness: 0->1 1->0\n")


@pytest.mark.parametrize("certificate", ["keep", "unknown", "unbounded"])
def test_check_mode_runs_the_eps_cycle_check_once(tmp_path, capsys, monkeypatch, certificate):
    # parse_mode checks a finite or unbounded certificate, and check-mode
    # reuses its result; an unknown certificate is checked by the profile.
    seq = tmp_path / "seq.txt"
    seq.write_text(champernowne_bits(2000) + "\n")
    coder = tmp_path / "coder.aut"
    run(capsys, "mode", "build-coder", "--k", "4", "--train", str(seq), "--n", "1000",
        "--out", str(coder))
    text = coder.read_text()
    if certificate == "unknown":
        coder.write_text(text[:text.index("certificate")] + "certificate unknown\n")
    elif certificate == "unbounded":
        coder.write_text("arity 2\nalphabet 0 0 1\nalphabet 1 0 1\nstates 2\n"
                         "edge 0 1 - 0\nedge 1 0 - 1\nedge 0 0 1 1\ncertificate unbounded\n")
    expected = run(capsys, "check-mode", "--mode", str(coder), "--max-len", "2")
    calls = []
    check = modes.eps_cycle_check
    monkeypatch.setattr(modes, "eps_cycle_check", lambda aut: calls.append(aut) or check(aut))
    assert run(capsys, "check-mode", "--mode", str(coder), "--max-len", "2") == expected
    assert len(calls) == 1 and expected[0] == 0


def test_stats_row(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text("01" * 50)
    code, out, _ = run(capsys, "stats", "--input", str(seq), "--k", "2",
                       "--mode", "aligned", "--n", "100")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,mode,n,discrepancy,entropy,ps_ratio"
    assert lines[1].startswith("2,aligned,100,0.750000,")


def test_report_csv(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text(champernowne_bits(4000))
    out_file = tmp_path / "rep.csv"
    code, _, _ = run(capsys, "report", "--input", str(seq), "--n", "4000",
                     "--kmax", "3", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "k,aligned_disc,sliding_disc,entropy,ps_ratio,coder_ratio"
    assert len(lines) == 4


def test_report_kmax_above_the_coder_limit_exits_2(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text(champernowne_bits(4000))
    code, out, err = run(capsys, "report", "--input", str(seq), "--n", "4000",
                         "--kmax", "13")
    assert code == 2
    assert out == "" and err == "error: k_max must lie in 1..12\n"


def test_select_all_accepting(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text("0110111001")
    rule_file = tmp_path / "all.rule"
    rule_file.write_text("states 1\ninitial 0\naccepting 0\n"
                         "trans 0 0 0\ntrans 0 1 0\n")
    sel = tmp_path / "sel.txt"
    rest = tmp_path / "rest.txt"
    code, out, _ = run(capsys, "select", "--rule", str(rule_file),
                       "--input", str(seq), "--n", "10",
                       "--out-selected", str(sel), "--out-rest", str(rest))
    assert code == 0
    assert "classification: positive-density-on-normal" in out
    assert sel.read_text().strip() == "0110111001"
    assert rest.read_text().strip() == ""


def test_select_parity_on_champernowne(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text(champernowne_bits(100_000))
    rule_file = tmp_path / "parity.rule"
    rule_file.write_text(serialize_rule(parity_rule()))
    dens = tmp_path / "density.csv"
    code, out, _ = run(capsys, "select", "--rule", str(rule_file),
                       "--input", str(seq), "--n", "100000",
                       "--out-density", str(dens))
    assert code == 0
    assert "positive-density-on-normal" in out
    last = dens.read_text().strip().split("\n")[-1]
    n, count, density = last.split(",")
    assert n == "100000"
    assert abs(float(density) - 0.5) < 0.01


def test_select_finite_rule(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text(champernowne_bits(1000))
    rule_file = tmp_path / "finite.rule"
    rule_file.write_text(serialize_rule(prefix_shorter_than_rule(5)))
    sel = tmp_path / "sel.txt"
    code, out, _ = run(capsys, "select", "--rule", str(rule_file),
                       "--input", str(seq), "--n", "1000",
                       "--out-selected", str(sel))
    assert code == 0
    assert "classification: finite-on-normal" in out
    assert len(sel.read_text().strip()) == 5


def test_exit_code_on_argument_error(capsys):
    code, _, err = run(capsys, "mode", "unary", "--out", "/dev/null")
    assert code == 2
    assert err.strip().startswith("error:")
    code, _, err = run(capsys, "gen", "rational", "nonsense", "--bits", "4")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["gen", "bernoulli", "--bits", "8"], "bernoulli source needs a probability argument"),
    (["gen", "rational", "1/x", "--bits", "8"], "invalid literal for int()"),
    (["mode", "wall"], "wall needs --c"),
    (["mode", "layered", "{mode}"], "layered needs --layers"),
    (["mode", "build-coder"], "build-coder needs --k, --train and --n"),
    (["mode", "reverse", "{mode}", "{mode}"], "this constructor takes one mode file"),
    (["mode", "union", "{mode}"], "this constructor takes two mode files"),
    (["complexity", "--mode", "{mode}"], "need --word or --input"),
    (["complexity", "--mode", "{mode}", "--word", "01", "--curve", "1"], "--curve needs --input"),
    (["complexity", "--mode", "{mode}", "--input", "{bits}"], None),
])
def test_cli_argument_checks_and_the_whole_file_call(tmp_path, capsys, argv, message):
    # Each check exits 2 with one error line; --input without --n reads the
    # whole file.
    mode, bits = tmp_path / "id.aut", tmp_path / "bits.txt"
    run(capsys, "mode", "identity", "--out", str(mode))
    run(capsys, "gen", "bernoulli", "0.9", "--bits", "3000", "--out", str(bits))
    argv = [arg.format(mode=mode, bits=bits) for arg in argv]
    if argv[0] == "mode":
        argv += ["--out", str(tmp_path / "out.aut")]
    code, out, err = run(capsys, *argv)
    if message is None:
        assert (code, out, err) == (0, "3000\n", "")      # K of all 3,000 bits under identity
    else:
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_exit_code_on_runtime_error(tmp_path, capsys):
    code, _, err = run(capsys, "complexity", "--mode",
                       str(tmp_path / "missing.aut"), "--word", "0")
    assert code == 1
    assert err.strip().startswith("error:")
    bad = tmp_path / "bad.txt"
    bad.write_text("01x1")
    ident = tmp_path / "id.aut"
    run(capsys, "mode", "identity", "--out", str(ident))
    code, _, err = run(capsys, "stats", "--input", str(bad), "--k", "1",
                       "--n", "4")
    assert code == 1


def test_a_bad_symbol_on_an_over_budget_mode_exits_2(tmp_path, capsys, monkeypatch):
    # The word's alphabet is checked before the mode compiles past its budget.
    monkeypatch.setattr(importlib.import_module("autokolm.complexity"), "_CLOSURE_BUDGET", 1)
    ident = tmp_path / "id.aut"
    assert run(capsys, "mode", "identity", "--out", str(ident))[0] == 0
    code, out, err = run(capsys, "complexity", "--mode", str(ident), "--word", "01x")
    assert (code, out) == (2, "")
    assert err == "error: symbol 'x' not in alphabet of tape 1\n"
    code, out, err = run(capsys, "complexity", "--mode", str(ident), "--word", "011")
    assert (code, out) == (1, "") and "budget" in err


VALID_MODE = ("arity 2\nalphabet 0 0 1\nalphabet 1 0 1\nstates 1\n"
              "edge 0 0 0 0\nedge 0 0 1 1\n")
VALID_RULE = "states 1\ninitial 0\naccepting 0\ntrans 0 0 0\ntrans 0 1 0\n"


@pytest.mark.parametrize("kind, content", [
    pytest.param("rule", VALID_RULE.replace("states 1", "states"), id="rule-states-empty"),
    pytest.param("rule", VALID_RULE.replace("states 1", "states one"), id="rule-states"),
    pytest.param("rule", VALID_RULE.replace("initial 0", "initial x"), id="rule-initial"),
    pytest.param("rule", VALID_RULE.replace("accepting 0", "accepting 0 y"),
                 id="rule-accepting"),
    pytest.param("rule", VALID_RULE.replace("trans 0 1 0", "trans 0 1 z"), id="rule-trans"),
    pytest.param("rule", VALID_RULE.encode() + b"# caf\xc3\xa9\n", id="rule-non-ascii"),
    pytest.param("mode", VALID_MODE.replace("edge 0 0 0 0", "edge 0 x 0 0"),
                 id="mode-edge-endpoint"),
    pytest.param("mode", VALID_MODE.replace("alphabet 1", "alphabet one"),
                 id="mode-alphabet-tape"),
    pytest.param("mode", VALID_MODE + "certificate 1 brute-force-up-to-L four\n",
                 id="mode-certificate-L"),
    pytest.param("mode", VALID_MODE.encode() + b"# caf\xc3\xa9\n", id="mode-non-ascii"),
    pytest.param("mode", VALID_MODE.replace("arity 2", "arity 1000000000000"),
                 id="mode-arity-huge"),
    pytest.param("mode", "arity 2\nalphabet 0 0 1\nalphabet 1 0 1\nstates 1\n"
                 "edge 0 0 - 1\ncertificate 1\n", id="mode-refuted-certificate"),
    pytest.param("mode", "arity 2\nalphabet 0 0 1\nalphabet 1 - 1\nstates 1\n"
                 "edge 0 0 1 1\n", id="mode-epsilon-symbol"),
    pytest.param("mode", VALID_MODE + "certificate 0\n", id="mode-certificate-zero"),
    pytest.param("mode", VALID_MODE + "certificate -3\n", id="mode-certificate-negative"),
    pytest.param("mode", VALID_MODE + "certificate 1 brute-force-up-to-L -1\n",
                 id="mode-certificate-negative-L"),
    pytest.param("mode", VALID_MODE + "certificate 1 asserted-by-construction a b c\n",
                 id="mode-certificate-trailing"),
    pytest.param("mode", VALID_MODE + "certificate 3 brute-force-up-to-L 4 5\n",
                 id="mode-certificate-trailing-L"),
    pytest.param("mode", VALID_MODE + "certificate unknown x\n", id="mode-certificate-unknown-arg"),
    pytest.param("mode", VALID_MODE + "certificate unbounded m x\n",
                 id="mode-certificate-unbounded-args"),
    pytest.param("mode", VALID_MODE + "certificate 1\ncertificate 2\n",
                 id="mode-certificate-twice"),
    pytest.param("sequence", b"01\xc3\xa901\n", id="sequence-non-ascii"),
])
def test_malformed_files_exit_1_with_one_line(tmp_path, capsys, kind, content):
    bad = tmp_path / "bad"
    if isinstance(content, str):
        content = content.encode()
    bad.write_bytes(content)
    seq = tmp_path / "seq.txt"
    seq.write_text("0111\n")
    mode = tmp_path / "id.aut"
    mode.write_text(VALID_MODE)
    argv = {
        "rule": ["select", "--rule", str(bad), "--input", str(seq), "--n", "4"],
        "mode": ["complexity", "--mode", str(bad), "--word", "111"],
        "sequence": ["complexity", "--mode", str(mode), "--input", str(bad)],
    }[kind]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_mode_file_over_the_edge_cap_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    # VALID_MODE has two edge lines: at a cap of two it loads, and a third
    # edge line is one too many.
    monkeypatch.setattr(automaton, "MAX_FILE_EDGES", 2)
    mode = tmp_path / "mode.aut"
    mode.write_text(VALID_MODE)
    assert run(capsys, "complexity", "--mode", str(mode), "--word", "01")[0] == 0
    mode.write_text(VALID_MODE + "edge 0 0 1 0\n")
    code, out, err = run(capsys, "complexity", "--mode", str(mode), "--word", "01")
    assert (code, out) == (1, "")
    assert err == "error: line 7: more than 2 edges\n"


@pytest.mark.parametrize("command", ["complexity", "select"])
def test_negative_n_exits_2_with_one_error_line(tmp_path, capsys, command):
    seq = tmp_path / "seq.txt"
    seq.write_text(champernowne_bits(64) + "\n")
    rule = tmp_path / "rule.txt"
    rule.write_text(VALID_RULE)
    mode = tmp_path / "id.aut"
    mode.write_text(VALID_MODE)
    argv = {
        "complexity": ["complexity", "--mode", str(mode), "--input", str(seq), "--n", "-5"],
        "select": ["select", "--rule", str(rule), "--input", str(seq), "--n", "-3"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    errors = [line for line in out.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--n" in errors[0]


@pytest.mark.parametrize("kind", ["champernowne", "rational", "bernoulli"])
def test_gen_negative_bits_exits_2_with_one_error_line(capsys, kind):
    param = {"champernowne": [], "rational": ["1/3"], "bernoulli": ["0.5"]}[kind]
    with pytest.raises(SystemExit) as exc:
        main(["gen", kind, *param, "--bits", "-5"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    errors = [line for line in out.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--bits" in errors[0]


def test_argparse_rejects_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_outputs_round_trip_through_parsers(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    run(capsys, "gen", "champernowne", "--bits", "500", "--out", str(seq))
    assert read_sequence_file(seq) == champernowne_bits(500)
    mode_file = tmp_path / "u3.aut"
    run(capsys, "mode", "unary", "--c", "3", "--out", str(mode_file))
    mode = parse_mode(mode_file.read_text())
    assert mode.certificate.bound == 7
