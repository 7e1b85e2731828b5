"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.signed.graph import SignedGraph
from repro.signed.io import save_signed_graph


@pytest.fixture
def graph_file(tmp_path, balanced_six):
    path = tmp_path / "graph.txt"
    save_signed_graph(balanced_six, path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mbc_defaults(self):
        args = build_parser().parse_args(["mbc", "g.txt"])
        assert args.tau == 3
        assert args.algorithm == "star"
        assert args.workers == 1

    def test_workers_flag(self):
        for command in ("mbc", "pf", "gmbc"):
            args = build_parser().parse_args(
                [command, "g.txt", "--workers", "4"])
            assert args.workers == 4

    def test_dynamic_has_no_workers_flag(self):
        # Dynamic re-solves are serial; no pool knob is offered.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["dynamic", "g.txt", "--edits", "e.txt", "--workers", "2"])

    def test_generate_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "nope", "out.txt"])


class TestCommands:
    def test_mbc_on_file(self, graph_file, capsys):
        assert main(["mbc", graph_file, "--tau", "3"]) == 0
        out = capsys.readouterr().out
        assert "|C|=6" in out

    def test_mbc_baseline_algorithm(self, graph_file, capsys):
        assert main(["mbc", graph_file, "--tau", "3",
                     "--algorithm", "baseline"]) == 0
        assert "|C|=6" in capsys.readouterr().out

    def test_mbc_no_result(self, graph_file, capsys):
        assert main(["mbc", graph_file, "--tau", "5"]) == 0
        assert "no balanced clique" in capsys.readouterr().out

    def test_mbc_on_dataset(self, capsys):
        assert main(["mbc", "dataset:bitcoin"]) == 0
        assert "|C|=" in capsys.readouterr().out

    def test_pf(self, graph_file, capsys):
        assert main(["pf", graph_file]) == 0
        assert "beta(G) = 3" in capsys.readouterr().out

    def test_pf_algorithms_agree(self, graph_file, capsys):
        for algorithm in ("star", "binary-search", "enumeration"):
            assert main(["pf", graph_file,
                         "--algorithm", algorithm]) == 0
            assert "beta(G) = 3" in capsys.readouterr().out

    def test_gmbc(self, graph_file, capsys):
        assert main(["gmbc", graph_file]) == 0
        out = capsys.readouterr().out
        assert "tau=  0" in out
        assert "tau=  3" in out
        assert "distinct cliques:" in out

    def test_gmbc_naive(self, graph_file, capsys):
        assert main(["gmbc", graph_file, "--algorithm", "naive"]) == 0
        assert "tau=  3" in capsys.readouterr().out

    def test_workers_same_answers(self, graph_file, capsys):
        assert main(["mbc", graph_file, "--tau", "3",
                     "--workers", "2"]) == 0
        assert "|C|=6" in capsys.readouterr().out
        assert main(["pf", graph_file, "--workers", "2"]) == 0
        assert "beta(G) = 3" in capsys.readouterr().out
        assert main(["gmbc", graph_file, "--workers", "2"]) == 0
        assert "tau=  3" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["mbc", "--algorithm", "baseline", "--workers", "2"],
        ["mbc", "--algorithm", "baseline", "--workers", "0"],
        ["pf", "--algorithm", "binary-search", "--workers", "2"],
        ["pf", "--algorithm", "enumeration", "--workers", "4"],
    ])
    def test_serial_algorithms_refuse_workers(self, graph_file, capsys,
                                              argv):
        # Only --algorithm star fans out; a pool knob the solver would
        # ignore is refused, as --timeout is for the baseline.
        assert main([argv[0], graph_file, *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert "--algorithm star" in captured.err
        assert captured.out == ""

    def test_serial_algorithms_take_one_worker(self, graph_file, capsys):
        assert main(["mbc", graph_file, "--algorithm", "baseline",
                     "--workers", "1"]) == 0
        assert "|C|=6" in capsys.readouterr().out
        assert main(["pf", graph_file, "--algorithm", "binary-search",
                     "--workers", "1"]) == 0
        assert "beta(G) = 3" in capsys.readouterr().out

    def test_gmbc_naive_keeps_workers(self, graph_file, capsys):
        # The naive gMBC forwards --workers to its own fan-out.
        assert main(["gmbc", graph_file, "--algorithm", "naive",
                     "--workers", "2"]) == 0
        assert "tau=  3" in capsys.readouterr().out

    def test_stats(self, graph_file, capsys):
        assert main(["stats", graph_file]) == 0
        out = capsys.readouterr().out
        assert "|V| = 8" in out
        assert "beta(G) = 3" in out

    def test_generate(self, tmp_path, capsys):
        out_path = tmp_path / "bitcoin.txt"
        assert main(["generate", "bitcoin", str(out_path),
                     "--scale", "0.2"]) == 0
        assert out_path.exists()
        assert "wrote" in capsys.readouterr().out

    def test_missing_file_is_error(self, capsys):
        assert main(["mbc", "/nonexistent/graph.txt"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_enum(self, graph_file, capsys):
        assert main(["enum", graph_file, "--tau", "3"]) == 0
        out = capsys.readouterr().out
        assert "maximal balanced cliques" in out
        assert "|C|=6" in out

    def test_enum_limit(self, graph_file, capsys):
        assert main(["enum", graph_file, "--limit", "1"]) == 0
        assert "limit reached" in capsys.readouterr().out

    def test_balance_on_unbalanced(self, tmp_path, capsys):
        graph = SignedGraph.from_edges(
            3, negative_edges=[(0, 1), (1, 2), (0, 2)])
        path = tmp_path / "unbalanced.txt"
        save_signed_graph(graph, path)
        assert main(["balance", str(path)]) == 0
        out = capsys.readouterr().out
        assert "structurally balanced: no" in out
        assert "frustration" in out

    def test_balance_on_balanced(self, tmp_path, balanced_six, capsys):
        sub, _ = balanced_six.subgraph(range(6))
        path = tmp_path / "balanced.txt"
        save_signed_graph(sub, path)
        assert main(["balance", str(path)]) == 0
        assert "structurally balanced: yes" in capsys.readouterr().out
