import argparse
import io
import json
from fractions import Fraction

import pytest

from balcut.cli import _build_parser, dispatch
from balcut.errors import ParseError, RangeError
from balcut.fileio import (
    parse_deleted,
    parse_graph,
    parse_partition,
    write_graph,
    write_partition,
    write_report,
)
from balcut.generators import barbell_graph
from balcut.graph import MultiGraph


def parse(text, **kw):
    return parse_graph(io.StringIO(text), **kw)


def test_parse_basic_and_header():
    g = parse("p 2 1\n0 1\n")
    assert g.n == 2 and g.m == 1

    g = parse("0 1\n0 1\n")
    assert g.m == 2 and g.volume() == 4  # parallel edges kept verbatim

    g = parse("# comment\n\n0 1\n2 0 # trailing\n")
    assert g.n == 3 and g.m == 2


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("0 0\n")  # self-loop without the flag
    assert parse("0 0\n", allow_self_loops=True).has_self_loops
    with pytest.raises(ParseError):
        parse("0 1 2\n")
    with pytest.raises(ParseError):
        parse("a b\n")
    with pytest.raises(RangeError):
        parse("p 2 1\n0 5\n")
    with pytest.raises(ParseError):
        parse("p 2 2\n0 1\n")  # header m mismatch


def test_graph_round_trip():
    g = barbell_graph(4, 2)
    buf = io.StringIO()
    write_graph(g, buf)
    g2 = parse(buf.getvalue())
    assert g2.n == g.n and sorted(g2.edges) == sorted(g.edges)


def test_partition_round_trip():
    buf = io.StringIO()
    write_partition([0, 0, 1, 1], buf)
    labels = parse_partition(io.StringIO(buf.getvalue()), 4)
    assert labels == [0, 0, 1, 1]


def test_parse_deleted_ids_and_pairs():
    g = MultiGraph(3, [(0, 1), (1, 2), (1, 0)])
    text = "# comment\n1\n1 0\n0 1  # second copy\n"
    assert parse_deleted(io.StringIO(text), g) == [1, 0, 2]
    with pytest.raises(ParseError, match="line 1: no remaining edge"):
        parse_deleted(io.StringIO("0 2\n"), g)
    with pytest.raises(ParseError, match="line 1: expected 'eid' or 'u v'"):
        parse_deleted(io.StringIO("0 1 2\n"), g)


def test_report_round_trips_and_is_stable():
    rep = {"b": Fraction(1, 3), "a": [1, 2], "c": {"y": 0.5, "x": frozenset({3, 1})}}
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_report(rep, buf1)
    write_report(rep, buf2)
    assert buf1.getvalue() == buf2.getvalue()
    parsed = json.loads(buf1.getvalue())
    assert parsed["b"] == "1/3"
    assert parsed["c"]["x"] == [1, 3]


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    with open(path, "w") as fh:
        write_graph(barbell_graph(6, 1), fh)
    return str(path)


def test_cli_balcut_smoke(graph_file, tmp_path, capsys):
    rep = tmp_path / "rep.json"
    part = tmp_path / "part.txt"
    code = dispatch([
        "balcut", "--phi", "1/4", "--r", "1", graph_file,
        "--out-report", str(rep), "--out-partition", str(part),
    ])
    assert code == 0
    report = json.loads(rep.read_text())
    assert report["branch"] == "balanced"
    assert report["cut_edges"] == 1
    labels = parse_partition(io.StringIO(part.read_text()), 12)
    assert sorted(set(labels)) == [0, 1]


def test_cli_determinism(graph_file, tmp_path):
    outs = []
    for i in range(2):
        rep = tmp_path / f"rep{i}.json"
        part = tmp_path / f"part{i}.txt"
        assert dispatch([
            "decompose", "--eps", "1/2", "--r", "1", graph_file,
            "--out-report", str(rep), "--out-partition", str(part),
        ]) == 0
        outs.append((rep.read_bytes(), part.read_bytes()))
    assert outs[0] == outs[1]


def test_cli_gen_pipe_certify(tmp_path, capsys):
    gfile = tmp_path / "gg.txt"
    assert dispatch(["gen", "gabber-galil", "--k", "4", "--out", str(gfile)]) == 0
    code = dispatch(["certify", "--r", "1", str(gfile)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["branch"] == "certified"
    assert report["subset_size"] >= 8


def test_cli_verify(tmp_path, capsys):
    gfile = tmp_path / "c8.txt"
    with open(gfile, "w") as fh:
        write_graph(MultiGraph(8, [(i, (i + 1) % 8) for i in range(8)]), fh)
    cut = tmp_path / "cut.txt"
    with open(cut, "w") as fh:
        write_partition([0, 0, 0, 0, 1, 1, 1, 1], fh)
    assert dispatch(["verify", "--oracle", "sparsest", str(gfile), str(cut)]) == 0
    assert capsys.readouterr().out.startswith("PASS")

    with open(cut, "w") as fh:
        write_partition([0, 1, 1, 1, 1, 1, 1, 1], fh)
    assert dispatch(["verify", "--oracle", "sparsest", str(gfile), str(cut)]) == 0
    assert capsys.readouterr().out.startswith("FAIL")


def test_cli_prune(tmp_path, capsys):
    gfile = tmp_path / "k6.txt"
    from balcut.generators import complete_graph

    with open(gfile, "w") as fh:
        write_graph(complete_graph(6), fh)
    dels = tmp_path / "del.txt"
    dels.write_text("0 1\n")
    code = dispatch(["prune", "--phi", "1/2", "--deleted", str(dels), str(gfile)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["boundary_edges"] <= report["boundary_budget"]
    assert "timings" not in report
    code = dispatch(["--timings", "prune", "--phi", "1/2", "--deleted", str(dels), str(gfile)])
    assert code == 0
    timed = json.loads(capsys.readouterr().out)
    assert timed["timings"]["total_s"] >= 0
    del timed["timings"]
    assert timed == report


def test_cli_prune_boundary_skips_deleted_crossing_edges(tmp_path, capsys):
    # K10 plus the triangle {10, 11, 12}, hung on by (0, 10) and (1, 11):
    # Phi = 1/4.  Deleting (10, 11) and (0, 10) prunes the triangle.  By
    # hand, the only live edge leaving B = {10, 11, 12} is (1, 11); the
    # deleted (0, 10) crosses too and must not count.
    from balcut.generators import complete_graph

    edges = list(complete_graph(10).edges)
    edges += [(10, 11), (11, 12), (10, 12), (0, 10), (1, 11)]
    gfile = tmp_path / "g.txt"
    with open(gfile, "w") as fh:
        write_graph(MultiGraph(13, edges), fh)
    dels = tmp_path / "del.txt"
    dels.write_text("10 11\n0 10\n")
    assert dispatch(["prune", "--phi", "1/4", "--deleted", str(dels), str(gfile)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pruned_vertices"] == 3
    assert report["boundary_edges"] == 1
    assert report["pruned_volume"] == 3 + 3 + 2


def test_cli_prune_id_then_pair_deletes_both_copies(tmp_path, capsys):
    from balcut.generators import complete_graph

    # edges 0 and 1 are two parallel copies of (0, 1)
    g = MultiGraph(8, [(0, 1)] + list(complete_graph(8).edges))
    assert g.edges[:2] == ((0, 1), (0, 1))
    gfile = tmp_path / "k8.txt"
    with open(gfile, "w") as fh:
        write_graph(g, fh)
    dels = tmp_path / "del.txt"
    dels.write_text("0\n0 1\n")
    with open(dels) as fh:
        assert parse_deleted(fh, g) == [0, 1]
    args = ["prune", "--phi", "1/2", "--deleted", str(dels), str(gfile)]
    assert dispatch(args) == 0
    assert json.loads(capsys.readouterr().out)["parameters"]["k"] == 2
    dels.write_text("0\n0\n")  # a repeated id line still names one edge twice
    assert dispatch(args) == 2
    assert capsys.readouterr().err == "error: deleted edge ids must be distinct\n"


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0\n")
    assert dispatch(["balcut", "--phi", "1/4", str(bad)]) == 2
    assert dispatch(["nonsense"]) == 1
    assert dispatch(["balcut", "--phi", "1/4", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()
    k4 = tmp_path / "k4.txt"
    with open(k4, "w") as fh:
        write_graph(MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), fh)
    dels = tmp_path / "del.txt"
    for line in ("x", "0 x"):  # non-integer deletion tokens
        dels.write_text(f"1\n{line}\n")
        assert dispatch(["prune", "--phi", "1/2", "--deleted", str(dels), str(k4)]) == 2
        assert capsys.readouterr().err == "error: line 2: non-integer field\n"


@pytest.mark.parametrize("command", [
    ["decompose", "--eps", "1/2"],
    ["balcut", "--phi", "1/4"],
    ["sparsest"],
    ["lowcond"],
    ["certify"],
])
@pytest.mark.parametrize("graph", ["connected", "disconnected"])
def test_cli_rejects_r_below_one(command, graph, tmp_path, capsys):
    # Rejected up front, also where no cut-matching game would run.
    g = barbell_graph(4, 1) if graph == "connected" else MultiGraph(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    )
    gfile = tmp_path / "g.txt"
    with open(gfile, "w") as fh:
        write_graph(g, fh)
    assert dispatch(command + ["--r", "0", str(gfile)]) == 2
    assert capsys.readouterr().err == "error: r must be at least 1\n"


def test_cli_has_no_strict_flag(graph_file, capsys):
    assert dispatch(["--strict", "balcut", "--phi", "1/4", graph_file]) == 1
    capsys.readouterr()
    assert dispatch(["balcut", "--phi", "1/4", graph_file]) == 0
    assert "strict" not in json.loads(capsys.readouterr().out)["parameters"]


def test_cli_certify_diagnostics(graph_file, capsys):
    code = dispatch(["certify", "--r", "1", "--diagnostics", graph_file])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    if "potential_trace" in report:
        trace = report["potential_trace"]
        assert trace[0] == 0.0
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))


def test_cli_subcommands(capsys):
    (sub,) = [a for a in _build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == {
        "decompose", "balcut", "sparsest", "lowcond", "certify", "prune", "gen", "verify",
    }
    assert dispatch(["bench"]) == 1
