"""Malformed input never escapes the grammar as anything but a
GrammarError, nor the CLI as a traceback.  `.quiver` and `.dg` texts are
drawn from a small token grammar: a body of well-formed lines (graded
arrows, relations mixing path lengths, structure constants over Q and
F_5) with at most one fault line (bad integers and scalars, unknown
names and keywords, duplicate declarations) inserted anywhere;
`grammar.loads` either returns or raises GrammarError, and `dghom
validate` and `dghom saturate` on the text as a file exit 0 or 2
(`validate` also 1, its code for a category that breaks an axiom)."""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings, strategies as st

from dghom import cli, grammar
from dghom.grammar import GrammarError

FIELDS = ["field q", "field fp 5"]
DEGREES = ["1", "-1", "2", "0"]
SCALARS = ["1", "-1", "2", "1/2"]
VERTICES = ["v", "w", "v"]
PATHS = ["x", "x.x", "x.x.x", "y", "x.y", "y.x", "@v", "x.x", "x"]
OBJECTS = ["a", "b", "a"]
LABELS = ["1", "h", "e"]

QUIVER_FAULTS = ["wordlength x", "wordlength 0", "degreebound 1/2", "vertex", "vertex v",
                 "arrow z v u 1", "arrow x v v", "arrow y v v x", "relation 1/0 x",
                 "relation 1 @u", "relation 1 x..y", "relation 1", "field fp:4", "field fp x",
                 "bogus 1", "dgcat"]
DG_FAULTS = ["basis a a", "basis a a 1 x", "basis a c 1 0", "unit a h 1/0", "unit c 1",
             "diff a a h 1 x", "diff a a 1 1 1", "compose a a a 1 1 1 a",
             "compose a b a 1 1 1 1", "object", "object a", "field fp:4", "bogus 1", "quiver"]


def pick(options):
    return st.sampled_from(options)


def line(keyword, *parts):
    return st.tuples(*parts).map(lambda ps: " ".join((keyword,) + ps))


@st.composite
def with_faults(draw, header, body, faults):
    """The lines of `body` under `header`, with at most one line of
    `faults` inserted at a drawn position."""
    lines = [header] + [ln for section in draw(body) for ln in section]
    for fault in draw(st.lists(pick(faults), max_size=1)):
        lines.insert(draw(st.integers(0, len(lines))), fault)
    return "\n".join(lines) + "\n"


relation = st.lists(st.tuples(pick(SCALARS), pick(PATHS)), min_size=1, max_size=3).map(
    lambda terms: "relation " + " ".join(f"{c} {p}" for c, p in terms))

quiver_body = st.tuples(
    st.tuples(pick(FIELDS), pick(["wordlength 2", "wordlength 3"]), st.just("vertex v")),
    st.lists(st.just("vertex w"), max_size=1),
    st.tuples(line("arrow x v v", pick(DEGREES))),
    st.lists(line("arrow y", pick(VERTICES), pick(VERTICES), pick(DEGREES)), max_size=1),
    st.lists(relation, max_size=2),
)

dg_body = st.tuples(
    st.tuples(pick(FIELDS), st.just("object a"), st.just("basis a a 1 0")),
    st.lists(st.just("object b\nbasis b b 1 0\nunit b 1\ncompose b b b 1 1 1 1"), max_size=1),
    st.lists(line("basis", pick(OBJECTS), pick(OBJECTS), pick(LABELS[1:]), pick(DEGREES)),
             max_size=2, unique_by=lambda ln: tuple(ln.split()[1:4])),
    st.tuples(line("unit a 1", pick(SCALARS))),
    st.tuples(st.just("compose a a a 1 1 1 1")),
    st.lists(line("diff", pick(OBJECTS), pick(OBJECTS), pick(LABELS), pick(LABELS),
                  pick(SCALARS)), max_size=2),
    st.lists(line("compose", pick(OBJECTS), pick(OBJECTS), pick(OBJECTS), pick(LABELS),
                  pick(LABELS), pick(LABELS), pick(SCALARS)), max_size=3),
)

texts = st.one_of(with_faults("quiver", quiver_body, QUIVER_FAULTS),
                  with_faults("dgcat", dg_body, DG_FAULTS))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(texts)
def test_loads_returns_or_raises_grammar_error(source):
    try:
        grammar.loads(source)
    except GrammarError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drawn.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(source)
        for argv, codes in ((["validate", path], (0, 1, 2)),
                            (["saturate", path, "--bound", "3"], (0, 2))):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in codes, (argv[0], code, err.getvalue())
            assert code != 1 or "violation: " in out.getvalue()
            assert "Traceback" not in out.getvalue() + err.getvalue()
