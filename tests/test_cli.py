import json
import os
import re
import subprocess
import sys

import pytest

from praline.cli import run, solve_source

from conftest import CONFLICT, ROADS, ROADS_APPROX, ROADS_EXACT

# one 13-fact class: too large for vertex enumeration, small enough for rows
WIDE = "".join(f"0.5 :: a{i}.\n" for i in range(1, 14)) + \
    "".join(f"corr(a{i}, a{i + 1}).\n" for i in range(1, 13)) + \
    "h :- a1, a2.\nquery(h).\n"

# a 16-node chain with back edges, in six 3-fact classes: it unfolds cycles
CHAIN = """\
0.522430::edge(0,1).
0.487043::edge(1,2).
0.459282::edge(2,3).
corr(edge(0,1),edge(1,2),edge(2,3)).
0.501532::edge(1,2)|edge(0,1).
0.488732::edge(3,4).
0.485248::edge(4,2).
0.497908::edge(4,5).
corr(edge(3,4),edge(4,2),edge(4,5)).
0.482649::edge(4,2)|edge(3,4).
0.534698::edge(5,6).
0.510378::edge(6,7).
0.510809::edge(7,8).
corr(edge(5,6),edge(6,7),edge(7,8)).
0.508104::edge(6,7)|edge(5,6).
0.487249::edge(8,6).
0.491435::edge(8,9).
0.498007::edge(9,10).
corr(edge(8,6),edge(8,9),edge(9,10)).
0.517413::edge(8,9)|edge(8,6).
0.513742::edge(10,11).
0.471314::edge(11,12).
0.498087::edge(12,10).
corr(edge(10,11),edge(11,12),edge(12,10)).
0.459869::edge(11,12)|edge(10,11).
0.515307::edge(12,13).
0.502552::edge(13,14).
0.497556::edge(14,15).
corr(edge(12,13),edge(13,14),edge(14,15)).
0.518717::edge(13,14)|edge(12,13).
0.9::path(X,Y) :- edge(X,Y).
path(X,Z) :- path(X,Y), edge(Y,Z).
query(path(0,4)).
query(path(0,8)).
query(path(0,12)).
query(path(0,15)).
"""


@pytest.fixture
def roads_file(tmp_path):
    f = tmp_path / "roads.pl"
    f.write_text(ROADS)
    return str(f)


def interval_of(out, atom):
    m = re.search(rf"{re.escape(atom)}: \[([-\d.e]+), ([-\d.e]+)\]", out)
    assert m, f"no interval for {atom} in {out!r}"
    return float(m.group(1)), float(m.group(2))


class TestSolveModes:
    def test_exact_mode(self, roads_file, capsys):
        code = run(["solve", roads_file, "--mode", "exact",
                    "--query", "path(1,7)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "path(1,7): [0.344448, 0.412992]" in out

    def test_approx_mode(self, roads_file, capsys):
        code = run(["solve", roads_file, "--mode", "approx",
                    "--query", "path(1,7)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "path(1,7): [0.288, 0.467424]" in out

    def test_delta_default_mode(self, roads_file, capsys):
        code = run(["solve", roads_file])
        out = capsys.readouterr().out
        assert code == 0
        lo, hi = interval_of(out, "path(1,7)")
        assert lo <= ROADS_EXACT[0] <= ROADS_EXACT[1] <= hi
        assert ROADS_EXACT[0] - lo <= 0.01 + 1e-9
        assert hi - ROADS_EXACT[1] <= 0.01 + 1e-9

    def test_declared_queries_are_the_default_outputs(self, roads_file,
                                                      capsys):
        run(["solve", roads_file, "--mode", "approx"])
        out = capsys.readouterr().out
        atoms = re.findall(r"^(\S+):", out, re.M)
        assert atoms == ["path(1,5)", "path(1,6)", "path(1,7)"]

    def test_query_glob_selects_more(self, roads_file, capsys):
        run(["solve", roads_file, "--mode", "approx", "--query", "path(1,*)"])
        out = capsys.readouterr().out
        atoms = re.findall(r"^(\S+):", out, re.M)
        assert "path(1,7)" in atoms
        assert "path(1,5)" in atoms
        assert "path(1,6)" in atoms
        assert all(a.startswith("path(1,") for a in atoms)

    def test_delta_flag_changes_precision(self, roads_file, capsys):
        run(["solve", roads_file, "--mode", "delta", "--delta", "0.05"])
        out = capsys.readouterr().out
        lo, hi = interval_of(out, "path(1,7)")
        assert lo == pytest.approx(0.338, abs=1e-6)
        assert hi == pytest.approx(0.417424, abs=1e-6)


class TestExitCodes:
    def test_conflict_prints_no_solution(self, tmp_path, capsys):
        f = tmp_path / "bad.pl"
        f.write_text(CONFLICT)
        code = run(["solve", str(f)])
        assert code == 1
        assert "No solution" in capsys.readouterr().out

    def test_parse_error(self, tmp_path, capsys):
        f = tmp_path / "broken.pl"
        f.write_text("0.5 :: ???")
        code = run(["solve", str(f)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        code = run(["solve", "/nonexistent/prog.pl"])
        assert code == 2

    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["solve", "x.pl", "--mode", "bogus"])
        assert exc.value.code == 2


class TestJsonReport:
    def test_schema(self, roads_file, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = run(["solve", roads_file, "--json", str(out_path)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert set(doc) == {"facts", "meta"}
        assert set(doc["meta"]) == {"delta", "elapsed_ms"}
        assert doc["meta"]["delta"] == 0.01
        by_atom = {f["atom"]: f for f in doc["facts"]}
        fact = by_atom["path(1,7)"]
        assert set(fact) == {"atom", "lower", "upper", "mode", "flags"}
        assert fact["mode"] == "delta"
        assert fact["lower"] <= fact["upper"]
        assert [f["atom"] for f in doc["facts"]] == \
            sorted(f["atom"] for f in doc["facts"])

    def test_two_runs_give_same_facts(self, roads_file, tmp_path, capsys):
        docs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            run(["solve", roads_file, "--json", str(path)])
            doc = json.loads(path.read_text())
            doc["meta"].pop("elapsed_ms")
            docs.append(doc)
        capsys.readouterr()
        assert docs[0] == docs[1]

    def test_one_grounding_per_solve(self, roads_file, tmp_path, capsys,
                                     monkeypatch):
        import praline.cli as cli
        calls = []
        ground = cli.solve_standard

        def counted(program):
            calls.append(program)
            return ground(program)

        monkeypatch.setattr(cli, "solve_standard", counted)
        assert run(["solve", roads_file, "--json",
                    str(tmp_path / "r.json")]) == 0
        capsys.readouterr()
        assert len(calls) == 1


class TestDumps:
    def test_dump_constraints(self, roads_file, capsys):
        run(["solve", roads_file, "--dump-constraints", "--mode", "approx"])
        out = capsys.readouterr().out
        assert "constraint system:" in out
        assert "V4" in out

    def test_dump_exprs(self, roads_file, capsys):
        run(["solve", roads_file, "--dump-exprs", "--mode", "approx"])
        out = capsys.readouterr().out
        assert "path(1,7) =" in out

    def test_dump_correlations(self, roads_file, capsys):
        run(["solve", roads_file, "--dump-correlations", "--mode", "approx"])
        out = capsys.readouterr().out
        assert "correlation classes:" in out
        assert "+" in out

    def test_dump_graph(self, roads_file, capsys):
        run(["solve", roads_file, "--dump-graph", "--mode", "approx"])
        out = capsys.readouterr().out
        assert "path(1,7) <-" in out

    @pytest.mark.parametrize("flag", ["--dump-graph", "--dump-constraints",
                                      "--dump-correlations", "--dump-exprs"])
    def test_infeasible_program_dumps_nothing(self, tmp_path, capsys, flag):
        f = tmp_path / "bad.pl"
        f.write_text(CONFLICT)
        code = run(["solve", str(f), flag])
        assert code == 1
        assert capsys.readouterr().out == "No solution\n"


class TestOracleCommand:
    def test_oracle_matches_exact(self, roads_file, capsys):
        code = run(["oracle", roads_file, "--query", "path(1,7)",
                    "--samples", "20", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "path(1,7): exact [0.344448, 0.412992]" in out
        assert "sampled mu in [" in out

    def test_oracle_conflict(self, tmp_path, capsys):
        f = tmp_path / "bad.pl"
        f.write_text(CONFLICT)
        assert run(["oracle", str(f)]) == 1
        assert "No solution" in capsys.readouterr().out


class TestPythonApi:
    def test_solve_source_exact(self):
        report = solve_source(ROADS, mode="exact")
        facts = {f.atom: f for f in report.facts}
        f = facts["path(1,7)"]
        assert f.lower == pytest.approx(ROADS_EXACT[0], abs=1e-9)
        assert f.upper == pytest.approx(ROADS_EXACT[1], abs=1e-9)
        assert f.mode == "exact"

    def test_underivable_query_reports_zero(self):
        report = solve_source("0.5 :: a.\nquery(b).", mode="approx")
        f = report.facts[0]
        assert f.atom == "b"
        assert (f.lower, f.upper) == (0.0, 0.0)
        assert "underivable" in f.flags

    def test_soundness_only_surfaces_in_mode(self):
        report = solve_source(WIDE, mode="delta", delta=0.05)
        f = report.facts[0]
        assert f.mode == "soundness_only"
        assert "soundness_only" in f.flags

    def test_module_entry_point(self, roads_file):
        proc = subprocess.run(
            [sys.executable, "-m", "praline.cli", "solve", roads_file,
             "--mode", "exact"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "path(1,7): [0.344448, 0.412992]" in proc.stdout


class TestExactFallback:
    def test_second_query_on_unenumerable_class(self):
        # the first query's fallback caches the class as unenumerable; the
        # second must read that cache as a fallback too, not crash
        names = [f"a{i}" for i in range(1, 9)]
        src = "".join(f"0.5::{a}.\n" for a in names) + \
            f"corr({','.join(names)}).\n" \
            "h :- a1, a2.\nk :- a3, a4.\nquery(h).\nquery(k).\n"
        report = solve_source(src, mode="exact")
        assert [f.atom for f in report.facts] == ["h", "k"]
        for f in report.facts:
            assert f.mode == "soundness_only"
            assert f.flags == ["soundness_only"]
            assert (f.lower, f.upper) == pytest.approx((0.0, 0.5), abs=1e-9)

    def test_unenumerable_class_builds_no_objective(self, monkeypatch):
        def no_objective(*args, **kwargs):
            raise AssertionError("objective built for an unenumerable class")

        monkeypatch.setattr("praline.refine.gen_objective", no_objective)
        monkeypatch.setattr("praline.cli.gen_objective", no_objective)
        f = solve_source(WIDE, mode="exact").facts[0]
        assert f.mode == "soundness_only"
        assert f.flags == ["soundness_only"]


class TestHashSeed:
    def test_graph_and_report_independent_of_hash_seed(self, tmp_path):
        prog = tmp_path / "chain.pl"
        prog.write_text(CHAIN)
        runs = []
        for seed in ("0", "1"):
            report = tmp_path / f"report{seed}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "praline.cli", "solve", str(prog),
                 "--mode", "approx", "--dump-graph", "--json", str(report)],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONHASHSEED": seed})
            assert proc.returncode == 0, proc.stderr
            doc = json.loads(report.read_text())
            del doc["meta"]["elapsed_ms"]
            runs.append((proc.stdout, doc))
        assert "derivation graph:" in runs[0][0]
        assert runs[0] == runs[1]
