"""CLI contract: exit codes, deterministic JSON, file round-trips."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from cayleycert import cli
from cayleycert.cli import CLAIMS, main
from cayleycert.cayley import connection_set_from_text
from cayleycert.graphs import DenseGraph, from_graph6, to_graph6


#: Outputs recorded before the claim and check tables replaced the CLI's
#: if-chains; the tables must reproduce them byte for byte.
DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_paley13(self, capsys, tmp_path):
        code, out, _err = run_cli(
            capsys, "construct", "paley", "--q", "13", "--out", str(tmp_path)
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["vertices"] == 13 and doc["degree"] == 6
        conn = connection_set_from_text((tmp_path / "paley13.set").read_text())
        assert conn.size == 6
        g = from_graph6((tmp_path / "paley13.g6").read_text())
        assert g.n == 13
        report = json.loads((tmp_path / "paley13.json").read_text())
        assert report["construction"]["family"] == "paley"

    def test_davis3(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "construct", "davis", "--p", "3", "--out", str(tmp_path)
        )
        assert code == 0
        assert json.loads(out)["vertices"] == 81

    def test_lexprod(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "construct", "lexprod",
            "--left", "paley:5", "--right", "paley:5",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert json.loads(out)["vertices"] == 25

    def test_invalid_q_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "construct", "paley", "--q", "7", "--out", str(tmp_path)
        )
        assert code == 2
        assert "mod 4" in err

    @pytest.mark.parametrize("family", ["paley", "peisert"])
    def test_field_order_over_budget_exits_2(self, capsys, tmp_path, family):
        # 1000000007 * 1000000009: the budget is checked before q is decomposed
        code, _, err = run_cli(
            capsys, "construct", family, "--q", "1000000016000000063", "--out", str(tmp_path)
        )
        assert code == 2
        assert "budget" in err

    def test_davis_group_order_over_budget_exits_2(self, capsys, tmp_path):
        # the prime 10^18 + 3: p^4 is checked before p is tested for primality
        code, _, err = run_cli(
            capsys, "construct", "davis", "--p", "1000000000000000003", "--out", str(tmp_path)
        )
        assert code == 2
        assert "budget" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["paley", "--q", "4129"],  # a prime = 1 mod 4, past the group budget
            ["peisert", "--q", "6561"],
            ["lexprod", "--left", "paley:81", "--right", "paley:81"],  # order 6561
        ],
    )
    def test_order_past_desk_budget_exits_2(self, capsys, tmp_path, argv):
        code, _, err = run_cli(capsys, "construct", *argv, "--out", str(tmp_path))
        assert code == 2
        assert "budget" in err
        assert not list(tmp_path.iterdir())

    def test_missing_param_exits_2(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "construct", "davis", "--out", str(tmp_path))
        assert code == 2


class TestVerify:
    @pytest.fixture()
    def paley13_set(self, capsys, tmp_path):
        run_cli(capsys, "construct", "paley", "--q", "13", "--out", str(tmp_path))
        return str(tmp_path / "paley13.set")

    def test_all_checks_pass(self, capsys, paley13_set):
        code, out, _ = run_cli(
            capsys,
            "verify", paley13_set,
            "--srg", "--dr", "--pds", "--schur", "--selfcomp", "--invariants",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"]
        assert doc["checks"]["srg"]["params"] == [13, 6, 2, 3]
        assert doc["checks"]["dr"]["intersection_array"] == {"b": [6, 3], "c": [1, 3]}
        assert doc["checks"]["selfcomp"]["certificate"]["kind"] == "group-automorphism"

    def test_refuted_check_exits_1(self, capsys, tmp_path):
        c6 = DenseGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        p = tmp_path / "c6.g6"
        p.write_text(to_graph6(c6) + "\n")
        code, out, _ = run_cli(capsys, "verify", str(p), "--srg")
        assert code == 1
        doc = json.loads(out)
        assert not doc["checks"]["srg"]["passed"]
        assert "witness" in doc["checks"]["srg"]

    def test_pds_needs_group_exits_2(self, capsys, tmp_path):
        c5 = DenseGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        p = tmp_path / "c5.g6"
        p.write_text(to_graph6(c5) + "\n")
        code, _, err = run_cli(capsys, "verify", str(p), "--pds")
        assert code == 2
        assert "group" in err

    def test_no_checks_exits_2(self, capsys, paley13_set):
        code, _, _ = run_cli(capsys, "verify", paley13_set)
        assert code == 2

    def test_unreadable_input_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "/nonexistent.g6", "--srg")
        assert code == 2

    def test_deterministic_json(self, capsys, paley13_set):
        _, out1, _ = run_cli(capsys, "verify", paley13_set, "--srg", "--selfcomp")
        _, out2, _ = run_cli(capsys, "verify", paley13_set, "--srg", "--selfcomp")
        assert out1 == out2

    def test_timings_flag_adds_key(self, capsys, paley13_set):
        _, out, _ = run_cli(capsys, "verify", paley13_set, "--srg", "--timings")
        assert "timings_s" in json.loads(out)

    def test_srg_counted_once_per_graph(self, capsys, paley13_set, monkeypatch):
        from cayleycert import graphs

        bodies = []
        count_pairs = graphs._check_srg
        monkeypatch.setattr(graphs, "_check_srg", lambda g: bodies.append(g) or count_pairs(g))
        code, _, _ = run_cli(capsys, "verify", paley13_set, "--srg", "--pds", "--schur")
        assert code == 0
        assert len(bodies) == 1

    def test_threads_is_a_usage_error(self, capsys, paley13_set):
        assert run_cli(capsys, "verify", paley13_set, "--srg", "--threads", "2")[0] == 2
        assert run_cli(capsys, "reproduce-paper", "--list", "--threads", "2")[0] == 2

    def test_davis3_all_checks_golden(self, capsys, monkeypatch):
        monkeypatch.chdir(DATA)
        code, out, _ = run_cli(
            capsys,
            "verify", "davis3.set",
            "--srg", "--dr", "--pds", "--schur", "--selfcomp", "--invariants",
        )
        assert code == 0
        assert out == (DATA / "verify_davis3_all_checks.json").read_text()

    def test_edge_list_input(self, capsys, tmp_path):
        p = tmp_path / "p4.txt"
        p.write_text("0 1\n1 2\n2 3\n")
        code, out, _ = run_cli(capsys, "verify", str(p), "--selfcomp")
        assert code == 0
        assert json.loads(out)["checks"]["selfcomp"]["self_complementary"]

    def test_inline_connection_set(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--group", "Z13", "--set", "1;3;4;9;10;12",
            "--srg", "--pds",
        )
        assert code == 0
        assert json.loads(out)["checks"]["srg"]["params"] == [13, 6, 2, 3]

    def test_inline_invalid_set_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--group", "Z5", "--set", "1;2", "--srg")
        assert code == 2
        assert "absent" in err

    def test_inline_product_group(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--group", "Z3xZ3", "--set", "1,0;2,0;0,1;0,2",
            "--srg", "--selfcomp",
        )
        assert code == 0
        assert json.loads(out)["checks"]["srg"]["params"] == [9, 4, 1, 2]


STANDARD_IDS = [c.id for c in CLAIMS if c.tier == "standard"]
EXTENDED_IDS = [c.id for c in CLAIMS if c.tier == "extended"]


class TestReproduce:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce-paper", "--list")
        assert code == 0
        doc = json.loads(out)
        ids = [c["id"] for c in doc["claims"]]
        assert "davis3-selfcomp" in ids and "davis5-scan" in ids
        assert "davis5-decision" not in ids
        assert ids == STANDARD_IDS

    def test_list_extended(self, capsys):
        _, out, _ = run_cli(capsys, "reproduce-paper", "--list", "--extended")
        ids = [c["id"] for c in json.loads(out)["claims"]]
        assert "davis5-decision" in ids
        assert ids == STANDARD_IDS + EXTENDED_IDS

    def test_standard_tier_golden(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce-paper")
        assert code == 0
        assert out == (DATA / "reproduce_paper_standard.json").read_text()

    def test_failed_claim_exits_1(self, capsys, monkeypatch):
        failing = lambda: {"passed": False, "details": {}}  # noqa: E731
        rows = tuple(c._replace(run=failing) if c.id == "lexprod" else c for c in CLAIMS)
        monkeypatch.setattr(cli, "CLAIMS", rows)
        code, out, err = run_cli(capsys, "reproduce-paper")
        assert code == 1
        doc = json.loads(out)
        assert doc["all_passed"] is False
        assert [c["id"] for c in doc["claims"] if not c["passed"]] == ["lexprod"]
        assert "lexprod            FAIL" in err

    def test_usage_error_exits_2(self, capsys):
        assert run_cli(capsys, "bogus-command")[0] == 2


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cayleycert.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "cayleycert" in proc.stdout
