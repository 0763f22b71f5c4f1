import json
import os
import subprocess
import sys

import pytest

import dghom
from dghom import grammar
from dghom.cli import main
from dghom.dgcore import sphere_cell, tensor, validate
from conftest import Q, hom_dims

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

# no compose line: the unit acts as zero, so the unit axiom fails
NO_COMPOSE = """\
dgcat
field q
object a
basis a a 1 0
unit a 1
"""

# k x k: a valid category whose unit e + f is not a basis vector
SPLIT_UNIT = """\
dgcat
field q
object a
basis a a e 0
basis a a f 0
unit a e 1
unit a f 1
compose a a a e e e 1
compose a a a f f f 1
"""

KX2_F5_QUIVER = KX2_QUIVER.replace("field q", "field fp 5")

# k[x,y]/(x^2, y^2, xy - yx), closed at word length 4
COMMUTATIVE_QUIVER = """\
quiver
field q
wordlength 6
vertex v
arrow x v v
arrow y v v
relation 1 x.x
relation 1 y.y
relation 1 x.y -1 y.x
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("unit.dg", UNIT_TEXT), ("kx2.quiver", KX2_QUIVER),
                       ("loop.quiver", LOOP_QUIVER), ("broken.dg", BROKEN_UNIT),
                       ("nocompose.dg", NO_COMPOSE), ("split.dg", SPLIT_UNIT),
                       ("kx2f5.quiver", KX2_F5_QUIVER)]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    split_corpus = tmp_path / "splitcorpus"
    split_corpus.mkdir()
    (split_corpus / "split.dg").write_text(SPLIT_UNIT)
    paths["splitcorpus"] = str(split_corpus)
    return paths


class TestGrammar:
    def test_load_unit(self):
        cat, cert = grammar.loads(UNIT_TEXT)
        assert cert is None
        assert validate(cat).ok and cat.total_dim() == 1

    def test_quiver_certificate(self):
        cat, cert = grammar.loads(KX2_QUIVER)
        assert cert.is_closed
        assert hom_dims(cat, "v", "v") == {0: 2}

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
        assert hom_dims(s2, "1", "2") == {2: 1}

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

    @pytest.mark.parametrize("text, line, message", [
        (UNIT_TEXT.replace("* * * 1 1 1 1", "* * * 1 1 1 1/0"), 6, "bad scalar"),
        (UNIT_TEXT.replace("field q", "field fp 5").replace("* * * 1 1 1 1", "* * * 1 1 1 1/5"), 6,
         "bad scalar"),
        (UNIT_TEXT.replace("* * * 1 1 1 1", "* * * 1 1 1 abc"), 6, "bad scalar"),
        (UNIT_TEXT.replace("unit * 1 1", "unit * 1 1/0"), 5, "bad scalar"),
        (UNIT_TEXT.replace("basis * * 1 0", "basis * * 1 0\nbasis * * h -1") + "diff * * h 1 x\n", 8,
         "bad scalar"),
        (KX2_QUIVER.replace("relation 1 x.x", "relation 1/0 x.x"), 6, "bad scalar"),
        (KX2_QUIVER.replace("wordlength 3", "wordlength x"), 3, "bad integer 'x' for wordlength"),
        (KX2_QUIVER.replace("wordlength 3", "wordlength"), 3, "wordlength takes one integer"),
        (KX2_QUIVER + "degreebound q\n", 7, "bad integer 'q' for degreebound"),
        (KX2_QUIVER.replace("arrow x v v", "arrow x v v z"), 5, "bad integer 'z' for arrow degree"),
        (KX2_QUIVER.replace("arrow x v v", "arrow x v w"), 5, "arrow 'x' has an unknown endpoint"),
        (KX2_QUIVER.replace("vertex v", "vertex"), 4, "vertex takes one name"),
        (KX2_QUIVER.replace("field q", "field fp:x"), 2, "bad integer 'x' for field"),
        (KX2_QUIVER.replace("field q", "field fp x"), 2, "bad integer 'x' for field"),
        (KX2_QUIVER.replace("field q", "field fp:6"), 2, "not a prime: 6"),
        (KX2_QUIVER.replace("vertex v", "vertex v\nvertex v"), 5, "duplicate vertex 'v'"),
        (KX2_QUIVER.replace("vertex v", "vertex v\nvertex u").replace("arrow x v v",
                                                                      "arrow x v v\narrow x u u"),
         7, "duplicate arrow 'x'"),
        (KX2_QUIVER.replace("vertex v", "vertex v\nvertex u").replace("arrow x v v", "arrow x v u"),
         7, "relation path 'x.x' does not compose"),
        (KX2_QUIVER.replace("arrow x v v", "arrow x v v 1").replace("relation 1 x.x",
                                                                    "relation 1 x 1 x.x"),
         6, "inhomogeneous relation: degrees [1, 2]"),
    ], ids=["compose-1/0", "fp5-1/5", "compose-abc", "unit-1/0", "diff-x", "relation-1/0",
            "wordlength-x", "wordlength-bare", "degreebound-q", "arrow-degree-z",
            "arrow-endpoint", "vertex-bare", "field-fp:x", "field-fp-x", "field-fp:6",
            "vertex-duplicate", "arrow-duplicate", "relation-not-composable",
            "relation-inhomogeneous"])
    def test_bad_scalar_exit_2(self, text, line, message, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert main(["validate", str(bad)]) == 2
        assert f"line {line}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["hp", "kx2.quiver", "--levels", "1"], "--levels must be >= 2, got 1"),
        (["hp", "kx2.quiver", "--window", "1..0"], "empty window '1..0'"),
        (["hp", "kx2.quiver", "--bar-bound", "1"], "--bar-bound must be >= 2, got 1"),
        (["hc", "kx2.quiver", "--n-max", "-1"], "--n-max must be >= 0, got -1"),
        (["hc", "kx2.quiver", "--bar-bound", "1"], "--bar-bound must be >= 2, got 1"),
        (["hh", "unit.dg", "--bar-bound", "0"], "--bar-bound must be >= 1, got 0"),
        (["hh", "unit.dg", "--n-max", "-2"], "--n-max must be >= 0, got -2"),
        (["saturate", "kx2.quiver", "--bound", "-3"], "--bound must be >= 0, got -3"),
        (["euler", "unit.dg", "--bound", "-1"], "--bound must be >= 0, got -1"),
        (["euler", "unit.dg", "--bar-bound", "0"], "--bar-bound must be >= 1, got 0"),
        (["check", "--bound", "-1"], "--bound must be >= 0, got -1"),
        (["check", "--field", "fp:4"], "bad field 'fp:4': not a prime: 4"),
        (["check", "--field", "fp:x"], "bad field 'fp:x' (expected q or fp:<p>)"),
        (["cell", "sphere", "1", "--field", "fp:4"], "bad field 'fp:4': not a prime: 4"),
    ], ids=["hp-levels-1", "hp-window-1..0", "hp-bar-bound-1", "hc-n-max--1", "hc-bar-bound-1",
            "hh-bar-bound-0", "hh-n-max--2", "saturate-bound--3", "euler-bound--1",
            "euler-bar-bound-0", "check-bound--1", "check-field-fp:4", "check-field-fp:x",
            "cell-field-fp:4"])
    def test_bad_argument_exit_2(self, argv, message, files, capsys):
        argv = [files.get(a, a) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"input error: {message}" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["tensor", "kx2.quiver", "kx2f5.quiver"], "kx2.quiver is over q, "),
        (["hh", "nocompose.dg"], "nocompose.dg: not a dg category: unit axiom"),
        (["hc", "nocompose.dg"], "nocompose.dg: not a dg category: unit axiom"),
        (["hp", "nocompose.dg"], "nocompose.dg: not a dg category: unit axiom"),
        (["saturate", "nocompose.dg"], "nocompose.dg: not a dg category: unit axiom"),
        (["euler", "nocompose.dg"], "nocompose.dg: not a dg category: unit axiom"),
        (["hh", "split.dg"], "need every unit to be a basis element"),
        (["hc", "split.dg"], "need every unit to be a basis element"),
        (["euler", "split.dg"], "need every unit to be a basis element"),
        (["check", "--corpus", "splitcorpus"],
         "split.dg: the checks need every unit to be a basis element"),
    ], ids=["tensor-field-mismatch", "hh-invalid-dg", "hc-invalid-dg", "hp-invalid-dg",
            "saturate-invalid-dg", "euler-invalid-dg", "hh-split-unit", "hc-split-unit",
            "euler-split-unit", "check-split-unit"])
    def test_bad_input_file_exit_2(self, argv, message, files, capsys):
        argv = [files.get(a, a) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and message in err and "Traceback" not in err

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

    @pytest.mark.parametrize("arrows, relations", [
        ("arrow x v v\narrow y v v\n", "relation 1 x.x\nrelation 1 y.y\nrelation 1 x.y -1 y.x\n"),
        ("arrow x v v\n", "relation 1 x.x.x\n"),
    ], ids=["kxy-commutative", "kx3"])
    def test_truncated_by_products_names_them(self, arrows, relations, tmp_path, capsys):
        # every word of length 3 reduces to zero, but a product of two
        # basis words (x.y times x, x.x times x) reaches length 4
        path = tmp_path / "in.quiver"
        path.write_text("quiver\nfield q\nwordlength 3\nvertex v\n" + arrows + relations)
        _, cert = grammar.load_path(str(path))
        assert (cert.status, cert.saturation_length, cert.truncated_products) == ("truncated", 3, 1)
        assert main(["hh", str(path)]) == 2
        err = capsys.readouterr().err
        assert "realization is truncated (1 product of basis words falls past wordlength 3)" in err

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
        assert hom_dims(cat, "1", "2") == hom_dims(ref, "1", "2")
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

    def test_check_corpus_refuses_invalid_dg(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        (corpus_dir / "unit.dg").write_text(UNIT_TEXT)
        (corpus_dir / "nocompose.dg").write_text(NO_COMPOSE)
        assert main(["check", "--corpus", str(corpus_dir)]) == 2
        err = capsys.readouterr().err
        assert "nocompose.dg: not a dg category: unit axiom" in err and "Traceback" not in err

    def test_split_unit_is_valid(self, files):
        assert main(["validate", files["split.dg"]]) == 0

    def test_split_unit_bars_refused(self):
        # both two-sided bar entry points refuse a middle category whose
        # unit e + f is not a basis vector, before enumerating a chain
        from dghom.dgcore import opposite
        from dghom.dgmod import bar_composite, bar_tor, yoneda_module
        cat, _ = grammar.loads(SPLIT_UNIT)
        X, Y = yoneda_module(cat, "a"), yoneda_module(opposite(cat), "a")
        with pytest.raises(ValueError, match="unit of the middle category to be a basis"):
            bar_composite(X, Y, cat, (-2, 0), 2)
        with pytest.raises(ValueError, match="unit of the middle category to be a basis"):
            bar_tor(X, Y, (0, 2))

    def test_out_of_memory_exits_1_with_one_line(self, monkeypatch, capsys):
        from dghom import saturation

        def out_of_memory(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(saturation, "bar_composite", out_of_memory)
        assert main(["check"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("out of memory")

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="RLIMIT_AS is enforced on Linux")
    def test_real_out_of_memory_exits_1_with_one_line(self, tmp_path):
        # a real exhaustion, not a synthetic MemoryError: the address-space
        # limit is set in the child only, and saturate at bound 12 on the
        # 4-dimensional commutative algebra needs far more than it allows
        pytest.importorskip("resource")
        (tmp_path / "comm.quiver").write_text(COMMUTATIVE_QUIVER)
        src = os.path.dirname(os.path.dirname(dghom.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        child = ("import resource, sys\n"
                 "cap = 150 * 2 ** 20\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
                 "from dghom.cli import main\n"
                 "sys.exit(main(['saturate', 'comm.quiver', '--bound', '12']))\n")
        proc = subprocess.run([sys.executable, "-c", child], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == "out of memory: the input is too large for these bounds\n"

    def test_check_empty_corpus(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["check", "--corpus", str(empty)]) == 0
        assert "no inputs" in capsys.readouterr().out

    def test_check_empty_corpus_report_only_with_out(self, tmp_path, capsys):
        # like a non-empty corpus: the report goes to --out, never to stdout
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["check", "--corpus", str(empty)]) == 0
        assert capsys.readouterr().out == "no inputs: corpus directory has no .dg/.quiver/.txt files\n"
        out = tmp_path / "check.json"
        assert main(["check", "--corpus", str(empty), "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == {"invariant": "check", "items": {},
                                               "failures": 0, "checks": 0}

    def test_tsv_format(self, files, tmp_path):
        out = tmp_path / "hh.tsv"
        main(["hh", files["kx2.quiver"], "--n-max", "2", "--format", "tsv",
              "--out", str(out)])
        text = out.read_text()
        assert "dims.0.dim\t2" in text

    def test_check_tsv_format(self, tmp_path):
        corpus_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "corpus")
        out = tmp_path / "check.tsv"
        assert main(["check", "--corpus", corpus_dir, "--bound", "1", "--format", "tsv",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert "failures\t0" in lines and "invariant\tcheck" in lines
        assert all(line.count("\t") == 1 for line in lines)

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
