import json
import os
import subprocess
import sys

import pytest

import dghom
from dghom import grammar
from dghom.cli import main
from dghom.dgcore import sphere_cell, tensor, validate
from conftest import Q

UNIT_TEXT = """\
dgcat
field q
object *
basis * * 1 0
unit * 1 1
compose * * * 1 1 1 1
"""

KX2_QUIVER = """\
quiver
field q
wordlength 3
vertex v
arrow x v v
relation 1 x.x
"""

LOOP_QUIVER = """\
quiver
field q
wordlength 3
vertex v
arrow x v v
"""

BROKEN_UNIT = """\
dgcat
field q
object *
basis * * 1 0
unit * 1 2
compose * * * 1 1 1 1
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("unit.dg", UNIT_TEXT), ("kx2.quiver", KX2_QUIVER),
                       ("loop.quiver", LOOP_QUIVER), ("broken.dg", BROKEN_UNIT)]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


class TestGrammar:
    def test_load_unit(self):
        cat, cert = grammar.loads(UNIT_TEXT)
        assert cert is None
        assert validate(cat).ok and cat.total_dim() == 1

    def test_quiver_certificate(self):
        cat, cert = grammar.loads(KX2_QUIVER)
        assert cert.is_closed
        assert cat.hom_dims("v", "v") == {0: 2}

    def test_round_trip_byte_identical(self, corpus):
        for cat in corpus.values():
            text1 = grammar.dumps(cat)
            cat2, _ = grammar.loads(text1)
            assert grammar.dumps(cat2) == text1
            assert validate(cat2).ok

    def test_tensor_round_trip_structure_constants(self, corpus):
        t = tensor(corpus["path12"], corpus["kx2"])
        text1 = grammar.dumps(t)
        t2, _ = grammar.loads(text1)
        assert grammar.dumps(t2) == text1

    def test_graded_round_trip(self):
        s = sphere_cell(2, Q)
        text = grammar.dumps(s)
        s2, _ = grammar.loads(text)
        assert grammar.dumps(s2) == text
        assert s2.hom_dims("1", "2") == {2: 1}

    def test_parse_error_has_line(self):
        with pytest.raises(grammar.GrammarError) as e:
            grammar.loads("dgcat\nfield q\nobject x\nbogus keyword here\n")
        assert "line 4" in str(e.value)

    def test_composition_degree_check(self):
        bad = UNIT_TEXT.replace("basis * * 1 0", "basis * * 1 0\nbasis * * t 1") + \
            "compose * * * t 1 1 1\n"
        with pytest.raises(grammar.GrammarError):
            grammar.loads(bad)

    def test_d_squared_rejected(self):
        text = """\
dgcat
field q
object v
basis v v u 0
basis v v a 0
basis v v b 1
basis v v c 2
unit v u 1
compose v v v u u u 1
compose v v v u a a 1
compose v v v a u a 1
compose v v v u b b 1
compose v v v b u b 1
compose v v v u c c 1
compose v v v c u c 1
diff v v a b 1
diff v v b c 1
"""
        with pytest.raises(grammar.GrammarError):
            grammar.loads(text)


class TestCli:
    def test_validate_ok_and_exit_codes(self, files, capsys):
        assert main(["validate", files["unit.dg"]]) == 0
        assert main(["validate", files["broken.dg"]]) == 1
        out = capsys.readouterr().out
        assert "unit axiom" in out

    def test_parse_error_exit_2(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.dg"
        bad.write_text("dgcat\nnonsense\n")
        assert main(["validate", str(bad)]) == 2

    @pytest.mark.parametrize("text, line", [
        (UNIT_TEXT.replace("* * * 1 1 1 1", "* * * 1 1 1 1/0"), 6),
        (UNIT_TEXT.replace("field q", "field fp 5").replace("* * * 1 1 1 1", "* * * 1 1 1 1/5"), 6),
        (UNIT_TEXT.replace("* * * 1 1 1 1", "* * * 1 1 1 abc"), 6),
        (UNIT_TEXT.replace("unit * 1 1", "unit * 1 1/0"), 5),
        (UNIT_TEXT.replace("basis * * 1 0", "basis * * 1 0\nbasis * * h -1") + "diff * * h 1 x\n", 8),
        (KX2_QUIVER.replace("relation 1 x.x", "relation 1/0 x.x"), 6),
    ], ids=["compose-1/0", "fp5-1/5", "compose-abc", "unit-1/0", "diff-x", "relation-1/0"])
    def test_bad_scalar_exit_2(self, text, line, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert main(["validate", str(bad)]) == 2
        assert f"line {line}: bad scalar" in capsys.readouterr().err

    def test_missing_file_exit_2(self):
        assert main(["hh", "/nonexistent/file.dg"]) == 2

    def test_hh_report(self, files, tmp_path, capsys):
        out = tmp_path / "hh.json"
        code = main(["hh", files["kx2.quiver"], "--n-max", "4", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["dims"]["0"] == {"dim": 2, "status": "exact"}
        assert rep["dims"]["4"] == {"dim": 1, "status": "exact"}
        assert rep["bar_bound"] == "auto"

    def test_hh_determinism(self, files, tmp_path):
        o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["hh", files["kx2.quiver"], "--n-max", "3", "--out", str(o1)])
        main(["hh", files["kx2.quiver"], "--n-max", "3", "--out", str(o2)])
        assert o1.read_bytes() == o2.read_bytes()

    def test_truncated_refused_for_homology(self, files):
        assert main(["hh", files["loop.quiver"], "--n-max", "2"]) == 2

    def test_hp_report(self, files, tmp_path):
        out = tmp_path / "hp.json"
        code = main(["hp", files["kx2.quiver"], "--window", "0..1", "--levels", "3",
                     "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["hp"]["0"]["status"] == "bound_limited"
        assert "lim1_caveat" in rep["hp"]["0"]
        assert len(rep["hp"]["0"]["levels"]) == 3

    def test_tensor_round_trip_via_cli(self, files, tmp_path):
        out = tmp_path / "t.dg"
        assert main(["tensor", files["unit.dg"], files["kx2.quiver"], "--out", str(out)]) == 0
        text1 = out.read_text()
        cat, _ = grammar.load_path(str(out))
        assert grammar.dumps(cat) == "".join(l for l in text1.splitlines(True) if not l.startswith("#"))

    def test_op_twice_identity_file(self, files, tmp_path):
        o1, o2 = tmp_path / "op1.dg", tmp_path / "op2.dg"
        assert main(["op", files["kx2.quiver"], "--out", str(o1)]) == 0
        assert main(["op", str(o1), "--out", str(o2)]) == 0
        base, _ = grammar.load_path(files["kx2.quiver"])
        twice, _ = grammar.load_path(str(o2))
        assert grammar.dumps(base) == grammar.dumps(twice)

    def test_cell_matches_constructor(self, tmp_path):
        out = tmp_path / "s1.dg"
        assert main(["cell", "sphere", "1", "--out", str(out)]) == 0
        cat, _ = grammar.load_path(str(out))
        ref = sphere_cell(1, Q)
        assert cat.hom_dims("1", "2") == ref.hom_dims("1", "2")
        assert validate(cat).ok
        out2 = tmp_path / "d1.dg"
        assert main(["cell", "disk", "1", "--out", str(out2)]) == 0
        disk, _ = grammar.load_path(str(out2))
        from dghom.exactfield import homology_dims
        hd = homology_dims(disk.hom("1", "2"), (-2, 1))
        assert all(v == 0 for v in hd.values())

    def test_saturate_and_euler(self, files, tmp_path):
        out = tmp_path / "sat.json"
        assert main(["saturate", files["kx2.quiver"], "--bound", "3", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["smooth"]["status"] == "inconclusive"
        assert rep["proper"] is True
        out2 = tmp_path / "euler.json"
        assert main(["euler", files["unit.dg"], "--out", str(out2)]) == 0
        rep2 = json.loads(out2.read_text())
        assert rep2["chi_hh"] == 1 and rep2["chi_dual"] == 1 and rep2["agree"] is True

    def test_check_corpus_dir(self, files, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        (corpus_dir / "unit.dg").write_text(UNIT_TEXT)
        out = tmp_path / "check.json"
        code = main(["check", "--corpus", str(corpus_dir), "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["failures"] == 0
        assert "unit.dg" in rep["items"]

    def test_check_empty_corpus(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["check", "--corpus", str(empty)]) == 0
        assert "no inputs" in capsys.readouterr().out

    def test_tsv_format(self, files, tmp_path):
        out = tmp_path / "hh.tsv"
        main(["hh", files["kx2.quiver"], "--n-max", "2", "--format", "tsv",
              "--out", str(out)])
        text = out.read_text()
        assert "dims.0.dim\t2" in text

    def test_console_script_runs(self, files):
        # the child finds the package where this process found it
        src = os.path.dirname(os.path.dirname(dghom.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-m", "dghom.cli", "hh",
                               files["unit.dg"], "--n-max", "2"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "HH_0 = 1" in proc.stdout
