import io
import os

import pytest

from gradkit.cli import main
from gradkit.config import Config, load_config, resolve_config
from gradkit.errors import InputError
from gradkit import textio
from gradkit.coloring import low_tdepth_coloring
from gradkit.generators import FAMILIES, clique, grid, path, random_regular
from gradkit.oracles import brute_count_hitting
from gradkit.separator import Separator, parse_expansion, separate_or_minor, sublinear_separator


@pytest.fixture
def p5_file(tmp_path):
    f = tmp_path / "p5.txt"
    f.write_text(textio.graph_to_text(path(5)))
    return str(f)


def test_orient_stdout(p5_file, capsys):
    assert main(["orient", p5_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# delta_max = 1\n5 4\n")
    assert out.endswith("\n")


def test_orient_to_file(p5_file, tmp_path, capsys):
    out = tmp_path / "o.txt"
    assert main(["orient", p5_file, "-o", str(out)]) == 0
    dg = textio.read_digraph(str(out))
    assert dg.m == 4


def test_malformed_input_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("3 1\n1 two\n")
    assert main(["orient", str(f)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_file_exit_2(capsys):
    assert main(["orient", "/no/such/file.txt"]) == 2


def test_grad_over_limit_exit_1(tmp_path, capsys):
    f = tmp_path / "k14.txt"
    f.write_text(textio.graph_to_text(clique(14)))
    assert main(["grad", str(f), "--r", "2"]) == 1
    assert "oracle limit" in capsys.readouterr().err


def test_grad_output(p5_file, capsys):
    assert main(["grad", p5_file, "--r", "0"]) == 0
    out = capsys.readouterr().out
    assert "nabla_0 = 4/5" in out


def test_grad_witness_only(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text(textio.graph_to_text(clique(14)))
    fam = tmp_path / "fam.txt"
    fam.write_text("\n".join(str(v) for v in range(1, 15)) + "\n")
    assert main(["grad", str(g), "--r", "0", "--witness-only", str(fam)]) == 0
    out = capsys.readouterr().out
    assert "nabla_0 >= 13/2" in out  # 91/14 reduced


def test_dist_pairs(p5_file, tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("1 4\n1 5\n3 3\n")
    assert main(["dist", p5_file, "--k", "3", "--pairs", str(pairs)]) == 0
    assert capsys.readouterr().out == "1 4 3\n1 5 >3\n3 3 0\n"


def test_dist_pairs_out_of_range_exit_2(tmp_path, capsys, monkeypatch):
    import gradkit.cli as cli

    g = tmp_path / "p3.txt"
    g.write_text(textio.graph_to_text(path(3)))
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("1 2\n2 3\n1 9\n")

    def preprocess(*a, **kw):
        raise AssertionError("pairs must be checked before preprocessing")

    monkeypatch.setattr(cli, "preprocess", preprocess)
    assert main(["dist", str(g), "--k", "2", "--pairs", str(pairs)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "query (1, 9): vertex 9 out of range 1..3" in captured.err


def test_color_output(p5_file, capsys):
    assert main(["color", p5_file, "--p", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("# colors = ")
    assert len(lines) == 6


def test_tdepth(p5_file, capsys):
    assert main(["tdepth", p5_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "depth 3"
    assert len(lines) == 6
    assert main(["tdepth", p5_file, "--decide", "3"]) == 0
    assert capsys.readouterr().out == "yes\n"


def test_count_and_list(tmp_path, capsys):
    g = tmp_path / "k4.txt"
    g.write_text(textio.graph_to_text(clique(4)))
    pat = tmp_path / "k3.txt"
    pat.write_text(textio.graph_to_text(clique(3)))
    assert main(["count", str(g), "--pattern", str(pat), "--list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "count 4"
    assert len(lines) == 5 and ";" in lines[1]


def test_count_restricted(tmp_path, capsys):
    g = tmp_path / "k4.txt"
    g.write_text(textio.graph_to_text(clique(4)))
    pat = tmp_path / "k3.txt"
    pat.write_text(textio.graph_to_text(clique(3)))
    s = tmp_path / "s.txt"
    s.write_text("1\n")
    assert main(["count", str(g), "--pattern", str(pat), "--restrict", str(s)]) == 0
    assert "count 3" in capsys.readouterr().out


def test_count_restricted_out_of_range_exit_2(tmp_path, capsys, monkeypatch):
    import gradkit.patterns as patterns

    g = tmp_path / "p4.txt"
    g.write_text(textio.graph_to_text(path(4)))
    pat = tmp_path / "p2.txt"
    pat.write_text(textio.graph_to_text(path(2)))
    s = tmp_path / "s.txt"
    s.write_text("99\n")

    def coloring(*a, **kw):
        raise AssertionError("S must be checked before the host is coloured")

    monkeypatch.setattr(patterns, "low_tdepth_coloring", coloring)
    assert main(["count", str(g), "--pattern", str(pat), "--restrict", str(s)]) == 2
    assert "out of range" in capsys.readouterr().err


def test_count_colours_once(tmp_path, capsys, monkeypatch):
    import gradkit.patterns as patterns

    g = tmp_path / "grid.txt"
    g.write_text(textio.graph_to_text(grid(3, 4)))
    pat = tmp_path / "p3.txt"
    pat.write_text(textio.graph_to_text(path(3)))
    s = tmp_path / "s.txt"
    s.write_text("1\n6\n")
    calls = []

    def coloring(G, p, **kw):
        calls.append((p, kw))
        return low_tdepth_coloring(G, p, **kw)

    monkeypatch.setattr(patterns, "low_tdepth_coloring", coloring)
    argv = ["count", str(g), "--pattern", str(pat), "--restrict", str(s)]
    total = brute_count_hitting(grid(3, 4), path(3), frozenset({1, 6}))
    assert main(argv) == 0
    assert calls == [(4, {})]
    assert capsys.readouterr().out == f"count {total}\n"
    # the listing needs no colouring, and its length is the count line
    calls.clear()
    assert main(argv + ["--list"]) == 0
    assert calls == []
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == f"count {total}"
    assert len(lines) - 1 == total


def test_separator_with_cert(tmp_path, capsys):
    g = tmp_path / "grid.txt"
    g.write_text(textio.graph_to_text(grid(6, 6)))
    cert = tmp_path / "cert"
    assert main(["separator", str(g), "--l", "2", "--h", "5", "--cert", str(cert)]) == 0
    out = capsys.readouterr().out
    assert "valid True" in out
    assert (
        os.path.exists(str(cert) + ".separator.txt")
        or os.path.exists(str(cert) + ".minor.txt")
    )


def test_separator_expansion(tmp_path, capsys):
    g = tmp_path / "k10.txt"
    g.write_text(textio.graph_to_text(clique(10)))
    assert main(["separator", str(g), "--expansion", "const:0.5"]) == 0
    out = capsys.readouterr().out
    assert "f_violated True" in out and "outcome minor" in out


def test_separator_needs_parameters(p5_file, capsys):
    assert main(["separator", p5_file]) == 1


def test_gen(tmp_path, capsys):
    assert main(["gen", "grid", "3", "3"]) == 0
    assert "9 12" in capsys.readouterr().out
    base = tmp_path / "p2.txt"
    base.write_text(textio.graph_to_text(path(2)))
    assert main(["gen", "lex_product", str(base), "2"]) == 0
    assert "4 6" in capsys.readouterr().out
    assert main(["gen", "grid", "x", "y"]) == 2


def test_verify_suite(capsys):
    assert main(["verify", "--suite", "generators"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--help"])
    assert exc.value.code == 0


def test_config_file(tmp_path):
    f = tmp_path / "cfg"
    f.write_text("# comment\noracle_limit = 10\nseparator_c1 = 6.5\n")
    cfg = load_config(str(f))
    assert cfg.oracle_limit == 10
    assert cfg.separator_c1 == 6.5
    assert cfg.pattern_limit == Config().pattern_limit


def test_config_rejects_unknown_and_bad(tmp_path):
    f = tmp_path / "cfg"
    f.write_text("mystery = 3\n")
    with pytest.raises(InputError, match="unknown config key"):
        load_config(str(f))
    f.write_text("oracle_limit = many\n")
    with pytest.raises(InputError, match="bad value"):
        load_config(str(f))
    f.write_text("oracle_limit = -2\n")
    with pytest.raises(InputError, match="positive"):
        load_config(str(f))
    g = tmp_path / "p5.txt"
    g.write_text(textio.graph_to_text(path(5)))
    for line in ("log_base = 2\n", "certification_limit = 12\n"):
        f.write_text(line)
        with pytest.raises(InputError, match="unknown config key"):
            load_config(str(f))
        assert main(["--config", str(f), "color", str(g), "--p", "3"]) == 2
    # NaN passes a "<= 0" test and infinity is positive: both are rejected
    for value in ("nan", "inf", "-inf"):
        f.write_text(f"separator_c1 = {value}\n")
        with pytest.raises(InputError, match="separator_c1"):
            load_config(str(f))
        assert main(["--config", str(f), "separator", str(g), "--l", "2", "--h", "4"]) == 2


def test_config_env(tmp_path, monkeypatch):
    f = tmp_path / "cfg"
    f.write_text("default_k = 6\n")
    monkeypatch.setenv("GRADKIT_CONFIG", str(f))
    assert resolve_config(None).default_k == 6
    monkeypatch.delenv("GRADKIT_CONFIG")
    assert resolve_config(None).default_k == 4


def test_config_flag_applies(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("oracle_limit_r0 = 4\n")
    g = tmp_path / "p5.txt"
    g.write_text(textio.graph_to_text(path(5)))
    assert main(["--config", str(cfg), "grad", str(g), "--r", "0"]) == 1


READERS = [
    # (reader, good text, a text whose line 3 is bad)
    (textio.read_graph, "# c\n3 2\n\n1 2\n2 3\n", "3 2\n1 2\n2 x\n"),
    (textio.read_digraph, "3 2\n# c\n1 2 1\n2 3 4\n", "3 2\n1 2 1\n2 3\n"),
    (textio.read_pairs, "1 2\n\n# c\n3 3\n", "1 2\n# c\n1 2 3\n"),
    (textio.read_vertex_set, "1 2\n# c\n\n5\n", "1\n\n7 v\n"),
    (textio.read_family, "1 2\n# c\n3\n", "1 2\n3\n4 b\n"),
]


@pytest.mark.parametrize("reader,good,bad", READERS)
def test_readers_agree_on_path_and_stream(reader, good, bad, tmp_path):
    f = tmp_path / "in.txt"
    f.write_text(good)
    assert reader(str(f)) == reader(io.StringIO(good))
    f.write_text(bad)
    messages = []
    for source in (str(f), io.StringIO(bad)):
        with pytest.raises(InputError, match="line 3") as exc:
            reader(source)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_missing_input_file_exits_2_for_every_reader(p5_file, capsys):
    missing = "/no/such/file.txt"
    for argv in (
        ["orient", missing],
        ["dist", p5_file, "--pairs", missing],
        ["count", p5_file, "--pattern", missing],
        ["count", p5_file, "--pattern", p5_file, "--restrict", missing],
        ["grad", p5_file, "--r", "0", "--witness-only", missing],
        ["--config", missing, "color", p5_file, "--p", "2"],
    ):
        assert main(argv) == 2, argv
        assert missing in capsys.readouterr().err


def test_gen_comment_line_and_family_errors(tmp_path, capsys):
    assert set(FAMILIES) >= {"grid", "subdivided_clique", "random_regular", "path", "clique", "star"}
    assert main(["gen", "random-regular", "8", "3", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# random_regular(8,3,1)\n8 12\n")
    assert textio.read_graph(io.StringIO(out)) == random_regular(8, 3, 1)
    assert main(["gen", "moebius", "3"]) == 2
    assert "unknown family 'moebius'" in capsys.readouterr().err
    assert main(["gen", "grid", "2"]) == 2
    assert "family 'grid' takes 2 parameters, got 1" in capsys.readouterr().err
    assert main(["gen", "grid", "x", "y"]) == 2
    g = tmp_path / "g.txt"
    g.write_text(textio.graph_to_text(path(2)))
    assert main(["gen", "lex_product", str(g)]) == 2
    # a non-integer clique order is a format error, not a traceback
    assert main(["gen", "lex_product", str(g), "x"]) == 2
    assert "non-integer generator parameters: ['x']" in capsys.readouterr().err
    capsys.readouterr()
    for family, params in (
        ("grid", (2, 3)), ("apex_grid", (2, 3)), ("path", (4,)), ("subdivided_clique", (3, 1))
    ):
        argv = ["gen", family] + [str(p) for p in params]
        assert main(argv) == 0
        fn, arity = FAMILIES[family]
        name = family + "(" + ",".join(str(p) for p in params) + ")"
        assert capsys.readouterr().out == textio.graph_to_text(fn(*params), comments=[name])


def _cert_lines(prefix):
    for suffix in (".separator.txt", ".minor.txt"):
        if os.path.exists(prefix + suffix):
            with open(prefix + suffix, encoding="utf-8") as fh:
                return suffix, fh.read()
    return None


def test_separator_cert_files_in_both_modes(tmp_path, capsys):
    G = grid(6, 6)
    g = tmp_path / "grid.txt"
    g.write_text(textio.graph_to_text(G))
    K = clique(10)
    k = tmp_path / "k10.txt"
    k.write_text(textio.graph_to_text(K))
    cases = [
        (["separator", str(g), "--l", "2", "--h", "5"], separate_or_minor(G, 2, 5)),
        (["separator", str(g), "--expansion", "poly:2,1"],
         sublinear_separator(G, parse_expansion("poly:2,1")).outcome),
        (["separator", str(k), "--expansion", "const:0.5"],
         sublinear_separator(K, parse_expansion("const:0.5")).outcome),
    ]
    kinds = set()
    for i, (argv, outcome) in enumerate(cases):
        prefix = str(tmp_path / f"cert{i}")
        assert main(argv + ["--cert", prefix]) == 0
        assert "valid True" in capsys.readouterr().out
        if isinstance(outcome, Separator):
            want = (".separator.txt", " ".join(str(v) for v in sorted(outcome.vertices)) + "\n")
        else:
            want = (".minor.txt", "".join(
                " ".join(str(v) for v in sorted(b)) + "\n" for b in outcome.branch_sets
            ))
        assert _cert_lines(prefix) == want
        kinds.add(want[0])
    assert kinds == {".separator.txt", ".minor.txt"}
