"""CLI contract: exit codes, deterministic JSON, file round-trips."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cayleycert import cli
from cayleycert.cli import CLAIMS, main
from cayleycert.cayley import build_cayley, connection_set_from_text, lex_product
from cayleycert.families import davis, paley
from cayleycert.graphs import DenseGraph, from_graph6, to_graph6


#: Outputs recorded before the claim and check tables replaced the CLI's
#: if-chains, and for davis(5) --invariants before SRG p-ranks came from the
#: parameters; the program must reproduce them byte for byte.
DATA = Path(__file__).parent / "data"


#: Seeded relabellings whose verify --selfcomp output was recorded before the
#: colour refinement moved to byte keys and float32 products, and for
#: paley(841) before the probe search came ahead of the costly screens.
SEARCH_GOLDEN = {
    "P9xP13": (lambda: lex_product(paley(9).connection_set, paley(13).connection_set), 91),
    "P13xP9": (lambda: lex_product(paley(13).connection_set, paley(9).connection_set), 92),
    "paley169": (lambda: paley(169).connection_set, 93),
    "davis3": (lambda: davis(3).connection_set, 94),
    "paley841": (lambda: paley(841).connection_set, 95),
    "P17xP13": (lambda: lex_product(paley(17).connection_set, paley(13).connection_set), 96),
    "P9xP25": (lambda: lex_product(paley(9).connection_set, paley(25).connection_set), 97),
}


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

    @pytest.mark.parametrize(
        "generator,message",
        [
            ("0,0", "not primitive"),
            ("5,1", "not a reduced element"),  # 5 is not reduced mod 3
            ("1", "not a reduced element"),  # GF(9) elements have two coordinates
            ("2,0", "not primitive"),  # -1 has order 2
        ],
    )
    def test_bad_peisert_generator_exits_2(self, capsys, tmp_path, generator, message):
        code, _, err = run_cli(
            capsys, "construct", "peisert", "--q", "9", "--generator", generator,
            "--out", str(tmp_path),
        )
        assert code == 2
        assert message in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["paley", "--q", "9"],
            ["davis", "--p", "3"],
            ["lexprod", "--left", "paley:5", "--right", "paley:5"],
        ],
    )
    def test_generator_outside_peisert_exits_2(self, capsys, tmp_path, argv):
        code, _, err = run_cli(
            capsys, "construct", *argv, "--generator", "1,1", "--out", str(tmp_path)
        )
        assert code == 2
        assert "peisert only" in err
        assert not list(tmp_path.iterdir())

    def test_missing_param_exits_2(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "construct", "davis", "--out", str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize("target", ["afile", "afile/sub"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, target):
        (tmp_path / "afile").write_text("")
        out = str(tmp_path / target)
        code, stdout, err = run_cli(capsys, "construct", "paley", "--q", "13", "--out", out)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and "Traceback" not in err


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

    def test_empty_graph6_exits_2(self, capsys, tmp_path):
        p = tmp_path / "empty.g6"
        p.write_bytes(b"")
        code, _, err = run_cli(capsys, "verify", str(p), "--srg")
        assert code == 2
        assert err == "error: cannot read input: empty graph6 input\n"

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

    @pytest.mark.parametrize("name", ["random_Z13xZ13", "witness_Z9xZ9"])
    def test_failing_structure_checks_golden(self, capsys, monkeypatch, name):
        """verify --srg --dr --pds --schur of two sets that fail every check,
        recorded while the Schur closure multiplied all nine pairs of parts:
        a seeded random set over Z13xZ13 and the six-element Z9xZ9 set of the
        witness literals."""
        monkeypatch.chdir(DATA)
        code, out, _ = run_cli(capsys, "verify", f"{name}.set", "--srg", "--dr", "--pds", "--schur")
        assert code == 1
        assert out == (DATA / f"verify_{name}_structure.json").read_text()

    def test_davis5_invariants_golden(self, capsys, monkeypatch, tmp_path):
        """verify --srg --invariants on davis(5) as graph6, recorded while every
        mod-p rank was eliminated: the ranks read off its parameters match."""
        (tmp_path / "davis5.g6").write_text(to_graph6(build_cayley(davis(5).connection_set)) + "\n")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "verify", "davis5.g6", "--srg", "--invariants")
        assert code == 0
        assert out == (DATA / "verify_davis5_invariants.json").read_text()

    @pytest.mark.parametrize("name", sorted(SEARCH_GOLDEN))
    def test_selfcomp_search_golden(self, capsys, monkeypatch, tmp_path, name):
        """verify --selfcomp on a relabelled graph6 file, where only the search
        certifies: every bijection and search_nodes value is pinned."""
        conn, seed = SEARCH_GOLDEN[name]
        g = build_cayley(conn())
        g = g.relabel(np.random.default_rng(seed).permutation(g.n))
        (tmp_path / f"{name}.g6").write_text(to_graph6(g) + "\n")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "verify", f"{name}.g6", "--selfcomp")
        assert code == 0
        assert out == (DATA / f"verify_selfcomp_{name}.json").read_text()

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

    def test_inline_group_over_budget_exits_2(self, capsys):
        # 2^40 elements: a table of that order cannot even be allocated
        for n in (1000000007, 2**40):
            argv = ["verify", "--group", f"Z{n}", "--set", f"1;{n - 1}", "--srg"]
            code, _, err = run_cli(capsys, *argv)
            assert code == 2
            assert err == f"error: group order {n} exceeds the desk-scale budget 4096\n"

    def test_set_file_group_over_budget_exits_2(self, capsys, tmp_path):
        for n in (1000000007, 2**40):
            p = tmp_path / "big.set"
            p.write_text(f"group Z{n}\n1\n{n - 1}\n")
            code, _, err = run_cli(capsys, "verify", str(p), "--srg")
            assert code == 2
            assert err == f"error: group order {n} exceeds the desk-scale budget 4096\n"

    @pytest.mark.parametrize(
        "argv,err",
        [
            (["--group", "Z5"], "--group and --set must be given together"),
            (["--set", "1;4"], "--group and --set must be given together"),
            (["/nonexistent.g6", "--set", ""], "--group and --set must be given together"),
            (["/nonexistent.g6", "--group", "Z5", "--set", "1;4"],
             "give either an input file or --group/--set, not both"),
            ([], "no input (file argument or --group/--set)"),
            (["/nonexistent.g6"],
             "cannot read input: [Errno 2] No such file or directory: '/nonexistent.g6'"),
            (["{tmp}/big.g6"], "graph order 5000 exceeds the desk-scale budget 4096"),
            (["{tmp}/big.txt"], "graph order 5001 exceeds the desk-scale budget 4096"),
            # one element parser: the inline set names the element, the file the
            # line, each counted with the blank ones
            (["--group", "Z13", "--set", "1;a"],
             "cannot read input: element 2: bad element tuple 'a'"),
            (["--group", "Z3xZ3", "--set", ";0,1;;0,x"],
             "cannot read input: element 4: bad element tuple '0,x'"),
            (["{tmp}/bad.set"], "cannot read input: line 4: bad element tuple 'x'"),
            (["{tmp}/blank.set"], "cannot read input: line 5: bad element tuple 'x'"),
            (["--group", "Z13", "--set", "1;;x"],
             "cannot read input: element 3: bad element tuple 'x'"),
            (["{tmp}/bad.txt"], "cannot read input: line 2: bad vertex 'x'"),
        ],
    )
    def test_input_error_messages(self, capsys, tmp_path, argv, err):
        """The arguments are checked before any input is read; only I/O and
        parse failures carry the "cannot read input:" prefix."""
        (tmp_path / "big.g6").write_text("~@MG\n")  # the graph6 header of n = 5000
        (tmp_path / "big.txt").write_text("0 5000\n")
        (tmp_path / "bad.txt").write_text("0 1\n1 x\n")
        (tmp_path / "bad.set").write_text("group Z13\n1\n12\nx\n")
        (tmp_path / "blank.set").write_text("group Z13\n\n1\n\nx\n")
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert run_cli(capsys, "verify", *argv, "--srg") == (2, "", f"error: {err}\n")

    @pytest.mark.parametrize(
        "budget,err",
        [
            (["--node-budget", "-1"], "--node-budget must be >= 0, got -1"),
            (["--time-budget", "-1"], "--time-budget must be >= 0, got -1.0"),
            (["--time-budget=-inf"], "--time-budget must be >= 0, got -inf"),
            (["--time-budget", "nan"], "--time-budget must be >= 0, got nan"),
        ],
    )
    def test_out_of_range_budget_exits_2(self, capsys, budget, err):
        """Refused before the input is read: the file does not exist."""
        argv = ["verify", "/nonexistent.g6", "--selfcomp", *budget]
        assert run_cli(capsys, *argv) == (2, "", f"error: {err}\n")

    def test_zero_budgets_are_accepted(self, capsys, tmp_path):
        g = build_cayley(paley(13).connection_set)
        p = tmp_path / "paley13.g6"
        p.write_text(to_graph6(g) + "\n")
        for budget in (["--node-budget", "0"], ["--time-budget", "0"]):
            code, out, _ = run_cli(capsys, "verify", str(p), "--selfcomp", *budget)
            selfcomp = json.loads(out)["checks"]["selfcomp"]
            assert code == 1
            assert selfcomp["decided_by"] == "budget exhausted"
            assert selfcomp["certificate"] == {"kind": "undecided", "search_nodes": 1}

    def test_empty_connection_set_is_accepted(self, capsys, tmp_path):
        (tmp_path / "z5.set").write_text("group Z5\n")
        for source in (["--group", "Z5", "--set", ""], ["--group", "Z5", "--set", ";"],
                       [str(tmp_path / "z5.set")]):
            code, out, _ = run_cli(capsys, "verify", *source, "--invariants")
            assert code == 0
            assert (json.loads(out)["vertices"], json.loads(out)["edges"]) == (5, 0)

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


#: Imports cayleycert.<argv[1]> before any other module of the package: the
#: package is a bare stand-in for its __init__, which would import groups,
#: fields and graphs first.  cli reads __version__ off the package.
IMPORT_FIRST = (
    "import importlib, importlib.util, sys, types\n"
    "pkg = types.ModuleType('cayleycert')\n"
    "pkg.__path__ = importlib.util.find_spec('cayleycert').submodule_search_locations\n"
    "pkg.__version__ = None\n"
    "sys.modules['cayleycert'] = pkg\n"
    "importlib.import_module('cayleycert.' + sys.argv[1])\n"
)


class TestImportOrder:
    """No import cycle at module level: graphs, which cayley and
    groupalgebra import, reaches them only inside its functions."""

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    @pytest.mark.parametrize(
        "module", ["graphs", "groups", "cayley", "groupalgebra", "fields", "families", "iso", "cli"]
    )
    def test_module_imported_first(self, module, flags):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", IMPORT_FIRST, module], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
