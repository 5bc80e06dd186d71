"""End-to-end command line runs, in process."""

import pytest

from testability import write_graph, write_semigroup
from testability.cli import main
from tests.corpus import (LONG_NUMERAL, fixtures, int_refuses, random_graph, seeded,
                          semigroup_zoo)

FIX = fixtures()


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, gr in (("d_triv", FIX.D_triv), ("d_parity", FIX.D_parity),
                     ("d_ab", FIX.D_ab)):
        p = tmp_path / f"{name}.graph"
        p.write_text(write_graph(gr))
        paths[name] = str(p)
    for name, s in (("u1", FIX.U1), ("lz2", FIX.LZ2), ("z2", FIX.Z2)):
        p = tmp_path / f"{name}.sg"
        p.write_text(write_semigroup(s))
        paths[name] = str(p)
    paths["partial"] = str(tmp_path / "partial.graph")
    (tmp_path / "partial.graph").write_text("2 2\n0 -1\n1 1\n")
    paths["out"] = str(tmp_path / "out.txt")
    return paths


def test_analyze_graph_all_props(files, capsys):
    code = main(["analyze-graph", files["d_ab"], "--props", "all", "--order"])
    out = capsys.readouterr().out
    assert code == 0
    assert "local_testability = yes" in out
    assert "order = 2" in out
    assert "transition semigroup: 5 elements, 2 generators" in out
    assert "piecewise_testability = no  (witness: 0 1)" in out


def test_analyze_graph_prop_subset(files, capsys):
    code = main(["analyze-graph", files["d_parity"], "--props", "aperiodic,1t"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count(" = ") >= 2
    assert "aperiodicity = no" in out
    assert "local_testability" not in out


def test_analyze_semigroup(files, capsys):
    code = main(["analyze-semigroup", files["z2"], "--props", "lt,aperiodic",
                 "--order"])
    out = capsys.readouterr().out
    assert code == 0
    assert "aperiodicity = no  (witness: 0)  [element 0 has period 2]" in out
    assert "order = none (every k up to 8 fails)" in out


def test_analyze_partial_graph_notes_sink(files, capsys):
    code = main(["analyze-graph", files["partial"], "--props", "aperiodic"])
    out = capsys.readouterr().out
    assert code == 0
    assert "(sink added)" in out


def test_machine_format_is_stable(files, capsys):
    argv = ["analyze-graph", files["d_ab"], "--order", "--format", "machine"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert "kind = graph" in first
    assert "order.k = 2" in first
    assert "stats.semigroup_elements = 5" in first
    # no timing or environment detail may leak into machine output
    assert "second" not in first and "time" not in first


def test_letters_only_order_reports_no_semigroup_stats(files, capsys):
    argv = ["analyze-graph", files["d_ab"], "--props", "1t", "--order",
            "--format", "machine"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "order.k = 2" in out
    assert "stats.semigroup_" not in out


def test_product_semigroup_writes_the_frozen_table(files, capsys):
    code = main(["product-semigroup", files["z2"], files["z2"], "-o", files["out"]])
    assert code == 0
    with open(files["out"]) as fh:
        assert fh.read() == "4 3\n3 2 1\n2 3 0\n1 0 3\n0 1 2\n"


def test_transition_semigroup_output(files, capsys):
    code = main(["transition-semigroup", files["d_ab"], "-o", files["out"]])
    assert code == 0
    with open(files["out"]) as fh:
        assert fh.read() == "5 2\n2 3\n4 2\n2 2\n0 2\n2 1\n"


def test_product_graph_writes_the_frozen_table(files):
    code = main(["product-graph", files["d_ab"], files["d_parity"], "-o", files["out"]])
    assert code == 0
    with open(files["out"]) as fh:
        assert fh.read() == "1 6\n3\n2\n5\n4\n5\n4\n"


def test_product_graph_completes_nothing(files, capsys):
    code = main(["product-graph", files["partial"], files["d_parity"],
                 "-o", files["out"]])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_parse_error_exit(files, tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("2 2\n0 9\n1 1\n")
    code = main(["analyze-graph", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: line 2, column 3" in err


_HUGE_HEADER = "9" * 2500 + " " + "9" * 2500 + "\n0\n"


@pytest.mark.skipif(not int_refuses(LONG_NUMERAL), reason="int() has no digit limit here")
@pytest.mark.parametrize("command, text, error", [
    ("analyze-graph", f"1 {LONG_NUMERAL}\n1\n0\n",
     "line 1, column 3: number of 5000 digits is too long"),
    ("analyze-graph", f"1 2\n{LONG_NUMERAL}\n0\n",
     "line 2, column 1: number of 5000 digits is too long"),
    ("analyze-semigroup", f"{LONG_NUMERAL} 1\n1\n0\n",
     "line 1, column 1: number of 5000 digits is too long"),
    ("analyze-semigroup", f"2 1\n1\n-{LONG_NUMERAL}\n",
     "line 3, column 1: number of 5000 digits is too long"),
    ("analyze-graph", _HUGE_HEADER,
     "input ended while reading transition 2 of a count too long to print"),
    ("analyze-semigroup", _HUGE_HEADER,
     "input ended while reading product 2 of a count too long to print"),
], ids=["graph-header", "graph-table", "semigroup-header", "semigroup-table",
        "graph-table-size", "semigroup-table-size"])
def test_a_number_too_long_exits_2(tmp_path, capsys, command, text, error):
    """A header value or cell too long for ``int``, or headers whose
    table size is too long for ``str``, exit 2 with one error line; after
    the table a long number is ignored."""
    path = tmp_path / "long.txt"
    path.write_text(text)
    code = main([command, str(path)])
    assert capsys.readouterr().err == f"error: {error}\n"
    assert code == 2
    table = "1 2\n1\n0" if command == "analyze-graph" else "2 1\n1\n0"
    path.write_text(f"{table} {LONG_NUMERAL}\n{LONG_NUMERAL}\n")
    assert main([command, str(path)]) == 0
    assert capsys.readouterr().err == ""


_UNICODE_SPACES = ("\u00a0", "\u2003", "\u2028", "\x85", "\x0c", "\u3000")


def _corrupted(data: bytes, rng) -> bytes:
    """``data`` with one to three corruptions, seeded: a huge or malformed
    token, Unicode digits or spaces, NUL bytes, invalid UTF-8, or nothing
    left at all."""
    for _ in range(rng.randint(1, 3)):
        text = data.decode("utf-8", "replace")
        tokens = text.split(" ") if " " in text else text.split("\n")
        i = rng.randrange(len(tokens))
        kind = rng.randrange(7)
        if kind == 0:
            tokens[i] = rng.choice(("", "-")) + "7" * rng.choice((20, 4400, 9000))
        elif kind == 1:
            tokens[i] = rng.choice(("1x", "0x1", "1e3", "+1", "1_0", "--1", "٣a"))
        elif kind == 2:
            tokens[i] = tokens[i].translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
        elif kind == 3:
            tokens.insert(i, rng.choice(_UNICODE_SPACES))
        elif kind == 4:
            tokens.insert(i, rng.choice(("\x00", "1\x00", "\x002")))
        elif kind == 5:
            joined = " ".join(tokens).encode()
            cut = rng.randrange(len(joined) + 1)
            return joined[:cut] + rng.choice((b"\xff", b"\xc3\x28", b"\xed\xa0\x80")) + joined[cut:]
        else:
            return b"" if rng.random() < 0.5 else data[:rng.randrange(len(data) + 1)]
        data = " ".join(tokens).encode()
    return data


def test_corrupted_files_exit_0_or_2_and_never_raise(tmp_path, capsys):
    """Seeded corruptions of corpus files: every run returns 0, or 2
    with exactly one ``error:`` line on stderr and nothing on stdout."""
    rng = seeded("corrupted-files")
    graphs = [FIX.D_triv, FIX.D_parity, FIX.D_ab] + [random_graph(rng, 6, 2) for _ in range(4)]
    corpus = ([("analyze-graph", write_graph(gr)) for gr in graphs]
              + [("analyze-semigroup", write_semigroup(s)) for s in
                 [FIX.U1, FIX.LZ2, FIX.Z2] + semigroup_zoo() if s.element_count <= 12])
    path = tmp_path / "corrupted"
    codes = set()
    for _ in range(400):
        command, text = rng.choice(corpus)
        path.write_bytes(_corrupted(text.encode(), rng))
        code = main([command, str(path)])
        out, err = capsys.readouterr()
        assert code in (0, 2), path.read_bytes()
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        codes.add(code)
    assert codes == {0, 2}


def test_nonassociative_input_exit(files, tmp_path, capsys):
    bad = tmp_path / "bad.sg"
    bad.write_text("2 2\n1 0\n0 0\n")
    code = main(["analyze-semigroup", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "not associative" in err


@pytest.mark.parametrize("command", ["analyze-graph", "analyze-semigroup"])
def test_undecodable_input_exit(tmp_path, capsys, command):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00\x01")
    code = main([command, str(bad)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_missing_file_exit(files, capsys):
    code = main(["analyze-graph", files["d_ab"] + ".nope"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_usage_errors(files, capsys):
    assert main([]) == 64
    assert main(["analyze-graph", files["d_ab"], "--props", "fancy"]) == 64
    assert main(["analyze-graph", files["d_ab"], "--k", "0"]) == 64
    assert main(["analyze-graph", files["d_ab"], "--k", "abc"]) == 64
    assert main(["product-graph", files["d_ab"], files["d_ab"]]) == 64
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "analyze-graph" in capsys.readouterr().out


def test_strict_flags_budget_exhaustion(files, capsys):
    argv = ["analyze-graph", files["d_parity"], "--props", "1t", "--order",
            "--budget", "2"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "order = unknown" in out
    assert main(argv + ["--strict"]) == 3
    capsys.readouterr()


def test_strict_passes_when_everything_is_decided(files, capsys):
    code = main(["analyze-graph", files["d_ab"], "--order", "--strict"])
    assert code == 0
    capsys.readouterr()


def test_graph_k_and_t_flags(files, tmp_path, capsys):
    chain = tmp_path / "chain.graph"
    chain.write_text("1 3\n1\n2\n2\n")
    assert main(["analyze-graph", str(chain), "--props", "1t", "--k", "1"]) == 0
    assert "k_testability = no" in capsys.readouterr().out
    assert main(["analyze-graph", str(chain), "--props", "1t", "--k", "1",
                 "--t", "2"]) == 0
    assert "k_testability = yes" in capsys.readouterr().out
    assert main(["analyze-graph", files["d_parity"], "--props", "1t", "--k", "2",
                 "--budget", "2"]) == 0
    assert ("k_testability = unknown (budget exceeded: 2 profile states at k=2, t=1)"
            in capsys.readouterr().out)
