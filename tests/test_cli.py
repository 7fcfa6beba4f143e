import json
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

import praline
from praline.cli import build_parser, run, solve_source

from conftest import CHAIN, CONFLICT, FOLD, ROADS, ROADS_APPROX, ROADS_EXACT

# one 13-fact class: too large for vertex enumeration, small enough for rows
WIDE = "".join(f"0.5 :: a{i}.\n" for i in range(1, 14)) + \
    "".join(f"corr(a{i}, a{i + 1}).\n" for i in range(1, 13)) + \
    "h :- a1, a2.\nquery(h).\n"

# one 17-fact class: past MAX_CONSTRAINT_BITS, so it gets no rows
BIG = "corr(" + ",".join(f"f{i}" for i in range(17)) + ").\n0.5::f0.\n"


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

    def test_query_flags_do_not_carry_over(self, roads_file, capsys):
        # one parser serves every call; the list --query appends to must not
        # carry over from one call to the next
        assert build_parser() is build_parser()
        run(["solve", roads_file, "--mode", "approx", "--query", "path(1,5)"])
        first = re.findall(r"^(\S+):", capsys.readouterr().out, re.M)
        assert first == ["path(1,5)"]
        run(["solve", roads_file, "--mode", "approx"])
        second = re.findall(r"^(\S+):", capsys.readouterr().out, re.M)
        assert second == ["path(1,5)", "path(1,6)", "path(1,7)"]

    def test_delta_flag_changes_precision(self, roads_file, capsys):
        run(["solve", roads_file, "--mode", "delta", "--delta", "0.05"])
        out = capsys.readouterr().out
        lo, hi = interval_of(out, "path(1,7)")
        assert lo == pytest.approx(0.338, abs=1e-6)
        assert hi == pytest.approx(0.417424, abs=1e-6)


class TestExitCodes:
    def test_conflict_prints_no_solution(self, tmp_path, capsys):
        # the conflicting facts may lie outside every query's cone
        elsewhere = CONFLICT.replace("query(out).",
                                     "0.5::j.\nok :- j.\nquery(ok).")
        for src in (CONFLICT, elsewhere):
            f = tmp_path / "bad.pl"
            f.write_text(src)
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

    @pytest.mark.parametrize("value", ["0", "-0.5", "nan", "inf"])
    def test_unusable_delta_is_a_usage_error(self, roads_file, capsys, value):
        with pytest.raises(SystemExit) as exc:
            run(["solve", roads_file, "--delta", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--delta" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_unusable_samples_is_a_usage_error(self, roads_file, capsys,
                                               value):
        with pytest.raises(SystemExit) as exc:
            run(["oracle", roads_file, "--samples", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(
            "praline oracle: error: argument --samples")
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["-1", "x"])
    def test_unusable_seed_is_a_usage_error(self, roads_file, capsys, value):
        with pytest.raises(SystemExit) as exc:
            run(["oracle", roads_file, "--seed", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(
            "praline oracle: error: argument --seed")
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", ["approx", "exact", "delta"])
    def test_integer_and_name_constants_in_one_argument(self, tmp_path,
                                                         capsys, mode):
        f = tmp_path / "mixed.pl"
        f.write_text("0.5::e(1). 0.5::e(a). 0.9::p(X) :- e(X). "
                     "query(p(1)).\n")
        assert run(["solve", str(f), "--mode", mode]) == 0
        assert interval_of(capsys.readouterr().out, "p(1)") == (0.45, 0.45)

    @pytest.mark.parametrize("mode", ["approx", "exact", "delta"])
    def test_rule_with_no_literal_left(self, tmp_path, capsys, mode):
        # s is underivable, so the grounder drops \+s and v's edge has an
        # empty body: a conjunction of nothing, true in every world
        f = tmp_path / "fold.pl"
        f.write_text(FOLD)
        assert run(["solve", str(f), "--mode", mode]) == 0
        assert capsys.readouterr().out == "v: [0.5, 0.5]\n"


class TestOversizedClass:
    @pytest.mark.parametrize("mode", ["approx", "exact", "delta"])
    def test_conflict_prints_no_solution(self, tmp_path, capsys, mode):
        f = tmp_path / "big.pl"
        f.write_text(BIG + "0.9::f1|f0.\n0.1::f1|f0.\nq :- f1.\nquery(q).\n")
        code = run(["solve", str(f), "--mode", mode])
        assert code == 1
        assert "No solution" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["approx", "exact", "delta"])
    @pytest.mark.parametrize("rest", ["q :- f0.\n", "0.9::f1|f0.\nq :- f1.\n"],
                             ids=["marginal", "conditional"])
    def test_feasible_class_keeps_unit_interval(self, mode, rest):
        f = solve_source(BIG + rest + "query(q).\n", mode=mode).facts[0]
        assert (f.lower, f.upper) == (0.0, 1.0)

    @pytest.mark.parametrize("mode", ["approx", "exact", "delta"])
    def test_solve_builds_no_row_over_the_class(self, mode):
        # a 20-member class has 2^20 assignments: one float row over them is
        # 8 MB, and the unit interval it would yield needs none
        names = ",".join(f"f{i}" for i in range(20))
        src = f"corr({names}).\n0.5::f0.\n0.9::f1|f0.\n" \
            "q :- f0, f1.\nquery(q).\n"
        tracemalloc.start()
        try:
            f = solve_source(src, mode=mode).facts[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (f.lower, f.upper) == (0.0, 1.0)
        assert peak < 2_000_000


# Solves ROADS in every mode in a fresh interpreter, then a program whose
# leaf range needs an LP; prints whether scipy.optimize was loaded after each.
COLD_START = """
import json, sys
from praline.cli import solve_source
roads, lp_program = json.load(sys.stdin)
for mode in ("exact", "approx", "delta"):
    solve_source(roads, mode=mode)
after_roads = "scipy.optimize" in sys.modules
f = solve_source(lp_program, mode="approx").facts[0]
print(json.dumps([after_roads, "scipy.optimize" in sys.modules,
                  f.lower, f.upper]))
"""


# Imports the CLI in a fresh interpreter; prints the top-level modules it
# loaded that are neither standard library nor numpy or praline.
IMPORT_GUARD = """
import json, sys
before = set(sys.modules)
import praline.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names)
                        - {"numpy", "praline"})))
"""


# Solves a 14-fact class of independent marginals in delta mode in a fresh
# interpreter, counting the LPs; prints the count and whether scipy.optimize
# was loaded.
MARGINALS_ONLY = """
import json, sys
import praline.constraints as constraints
from praline.cli import solve_source
calls = []
lp = constraints.linprog
constraints.linprog = lambda *a, **k: calls.append(1) or lp(*a, **k)
names = [f"f{i}" for i in range(14)]
src = "".join(f"0.5::{n}.\\n" for n in names) + \\
    f"corr({','.join(names)}).\\nq :- f0, f1.\\nquery(q).\\n"
f = solve_source(src, mode="delta").facts[0]
print(json.dumps([len(calls), "scipy.optimize" in sys.modules, f.mode]))
"""


class TestColdStart:
    def test_scipy_loads_only_for_an_lp(self):
        # b is only constrained by its conditional, and seven facts make a
        # 128-column class, past VERTEX_DIM_CAP: its range takes an LP
        names = ["a", "b"] + [f"f{i}" for i in range(5)]
        lp_program = "".join(f"0.5::{n}.\n" for n in names if n != "b") + \
            f"0.6::b|a.\ncorr({','.join(names)}).\nq :- b.\nquery(q).\n"
        src_dir = os.path.dirname(os.path.dirname(praline.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START],
            input=json.dumps([ROADS, lp_program]), capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": src_dir})
        assert proc.returncode == 0, proc.stderr
        after_roads, after_lp, lo, hi = json.loads(proc.stdout)
        assert not after_roads
        assert after_lp
        assert (lo, hi) == pytest.approx((0.3, 0.8), abs=1e-9)

    def test_cli_import_loads_only_stdlib_and_numpy(self):
        src_dir = os.path.dirname(os.path.dirname(praline.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_GUARD], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": src_dir})
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    def test_independent_marginals_need_no_lp(self):
        # a 2^14-column class whose declarations share no fact: each is
        # decided by its own one-member part
        src_dir = os.path.dirname(os.path.dirname(praline.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", MARGINALS_ONLY], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": src_dir})
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, False, "soundness_only"]


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

    @pytest.mark.parametrize("target", ["", "missing/r.json"])
    def test_unwritable_path_is_an_error(self, roads_file, tmp_path, capsys,
                                         target):
        # a directory, and a file in a directory that does not exist
        code = run(["solve", roads_file, "--json", str(tmp_path / target)])
        captured = capsys.readouterr()
        assert code == 2
        assert "path(1,7): [" in captured.out
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1


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

    def test_dump_exprs_past_the_template_cap(self, tmp_path, capsys,
                                              monkeypatch):
        # a 12-member class has 4096 assignments, past a cap of 2^10: an
        # input fact's own expression is capped like a derived node's
        import praline.symexpr as symexpr
        members = [f"f{i}" for i in range(12)]
        f = tmp_path / "wide.pl"
        f.write_text("".join(f"0.5::{m}.\n" for m in members) +
                     f"corr({','.join(members)}).\n"
                     "q :- f0.\nquery(f0).\nquery(q).\n")
        assert run(["solve", str(f)]) == 0
        plain = capsys.readouterr().out
        monkeypatch.setattr(symexpr, "MAX_TEMPLATE", 2 ** 10)
        assert run(["solve", str(f), "--dump-exprs"]) == 0
        assert capsys.readouterr().out == (
            "probability expressions:\n"
            "  f0 = (expression template too large)\n"
            "  q = (expression template too large)\n" + plain)

    def test_dump_correlations(self, roads_file, capsys):
        run(["solve", roads_file, "--dump-correlations", "--mode", "approx"])
        out = capsys.readouterr().out
        assert "correlation classes:" in out
        assert "+" in out

    def test_dump_graph(self, roads_file, capsys):
        run(["solve", roads_file, "--dump-graph", "--mode", "approx"])
        out = capsys.readouterr().out
        assert "path(1,7) <-" in out

    def test_dump_graph_prints_the_query_cone(self, roads_file, capsys):
        # of ROADS' 12 ground edges, the three queries read 5
        run(["solve", roads_file, "--dump-graph", "--mode", "approx"])
        out = capsys.readouterr().out
        graph = out.split("derivation graph:\n")[1]
        assert len([l for l in graph.splitlines() if " <- " in l]) == 5

    def test_dump_exprs_outside_the_program_queries(self, roads_file, capsys):
        # path(2,7) is derived but outside every query(...) atom's cone
        from praline.grounder import solve_standard
        from praline.symexpr import context_from_program, expr_str, \
            gen_objective
        program = praline.parse(ROADS)
        graph = solve_standard(program)
        target = next(n for n in graph.nodes if str(n) == "path(2,7)")
        expr = expr_str(gen_objective(
            graph, context_from_program(program, graph), target))
        assert run(["solve", roads_file, "--query", "path(2,7)",
                    "--dump-exprs"]) == 0
        assert f"  path(2,7) = {expr}\n" in capsys.readouterr().out

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

    def test_oracle_outside_the_program_queries(self, roads_file, capsys):
        assert run(["oracle", roads_file, "--query", "path(2,7)",
                    "--samples", "5"]) == 0
        assert "path(2,7): exact [0.57408, 0.68832]" in \
            capsys.readouterr().out

    def test_oracle_enumerates_the_recursive_cone(self, tmp_path, capsys):
        # CHAIN's whole graph needs 36 fact+event bits, past the 24-bit
        # cap; the cone of path(0,8) carries one event, so 19
        f = tmp_path / "chain.pl"
        f.write_text(CHAIN)
        assert run(["solve", str(f), "--mode", "exact",
                    "--query", "path(0,8)"]) == 0
        exact = capsys.readouterr().out.strip().replace(": [", ": exact [")
        assert run(["oracle", str(f), "--query", "path(0,8)",
                    "--samples", "5"]) == 0
        assert capsys.readouterr().out.startswith(
            exact + ", 5 sampled mu in [")

    def test_oracle_past_the_vertex_caps_still_samples(self, tmp_path,
                                                        capsys):
        f = tmp_path / "big.pl"
        f.write_text(BIG + "0.9::f1|f0.\nq :- f0, f1.\nquery(q).\n")
        code = run(["oracle", str(f), "--samples", "20"])
        assert code == 0
        assert capsys.readouterr().out == (
            "q: exact unavailable (class V defeats vertex enumeration), "
            "20 sampled mu in [0.45, 0.45]\n")

    def test_oracle_conflict(self, tmp_path, capsys):
        f = tmp_path / "bad.pl"
        f.write_text(CONFLICT)
        assert run(["oracle", str(f)]) == 1
        assert "No solution" in capsys.readouterr().out


class TestPythonApi:
    def test_solve_source_outside_the_program_queries(self):
        (f,) = solve_source(ROADS, queries=["path(2,7)"]).facts
        assert (f.atom, f.mode) == ("path(2,7)", "delta")
        assert f.lower == pytest.approx(0.568725, abs=1e-9)
        assert f.upper == pytest.approx(0.691575, abs=1e-9)

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

    @pytest.mark.parametrize("mode", ["exact", "delta"])
    def test_soundness_only_fact_says_why(self, tmp_path, capsys, mode):
        prog = tmp_path / "wide.pl"
        prog.write_text(WIDE + "0.5 :: b.\ng :- b.\nquery(g).\n")
        out_path = tmp_path / "report.json"
        assert run(["solve", str(prog), "--mode", mode,
                    "--json", str(out_path)]) == 0
        text = capsys.readouterr().out
        by_atom = {f["atom"]: f for f in
                   json.loads(out_path.read_text())["facts"]}
        wide = by_atom["h"]
        assert wide["mode"] == "soundness_only"
        assert "class V1 " in wide["reason"]
        assert "reason" not in by_atom["g"]
        assert "defeats" not in text

    def test_module_entry_point(self, roads_file):
        proc = subprocess.run(
            [sys.executable, "-m", "praline.cli", "solve", roads_file,
             "--mode", "exact"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "path(1,7): [0.344448, 0.412992]" in proc.stdout

    @pytest.mark.parametrize("module", ["praline.cli", "praline"])
    def test_module_runs_without_warning(self, roads_file, module):
        proc = subprocess.run(
            [sys.executable, "-m", module, "solve", roads_file],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "path(1,7): " in proc.stdout


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
