"""Fuzzing of the command line with grid files, stencil files and expressions.

Whatever the input, ``pardiff.cli.main`` must return 0, 1 or 2, write at
most one ``error:`` line and no traceback to stderr, leave no ``.pardiff-*``
temporary file behind, and write neither its output file nor its report when
it fails.  ``solve`` and ``mollify`` sometimes take ``--report``, about one
time in eight into a missing directory, which must fail after the result is
built and still leave no output file.  Grids and probes stay at most 5 nodes
per axis and solves at most 200 iterations, so every example runs in
milliseconds.  ``mollify`` refuses a kernel wider than its grid and a
normalization quadrature above its point limit before building either, so
its ``--eps`` and ``--refine`` are fuzzed too.  Half the grids are
well-formed boxes of 5 nodes per axis, and on those ``--eps`` is mostly twice
the spacing, so that ``mollify`` often succeeds and reaches its write step.
The one-value numeric options ``--tol``, ``--eps``, ``--length``,
``--probe-h``, ``--max-iter`` and ``--refine`` also take negative numbers in
exponent form and other spellings that argparse alone reads as options, and
no run may end in argparse's ``expected one argument``.
``convergence`` builds grids of ``length / h + 1`` nodes per axis, so its
spacings and lengths come either from boxes of at most 5 nodes per axis or
from values it refuses before solving: non-positive, non-finite, or above
the node limit.  Its expression options take the space-separated form, so
values that start with ``-`` go through the option joining as well, and its
origins include ``-1e-05`` and ``-inf``, which argparse alone would take for
options.  A poisson study always gets ``--rhs``; a laplace study gets one
about one time in eight, which it refuses.
"""

import contextlib
import io
import math
import os
import tempfile

from hypothesis import given, settings, strategies as st

from pardiff.cli import main

WILD = st.one_of(
    st.sampled_from(["1e-300", "1e308", "-1e308", "inf", "-inf", "nan", "1e999", "x", ""]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


def mostly(valid, wild=WILD):
    """Tokens drawn from ``valid`` about seven times in eight, else from ``wild``."""
    return st.sampled_from([valid] * 7 + [wild]).flatmap(lambda strategy: strategy)


FINITE = st.one_of(
    st.sampled_from(["0", "1", "-1", "0.5", "0.25", "-0.0", "3"]),
    st.floats(-10, 10).map(repr),
)
NUMBERS = mostly(FINITE)
SPACINGS = mostly(st.sampled_from(["0.25", "0.5", "1"]), st.one_of(WILD, FINITE))
SHIFTS = mostly(st.sampled_from(["-1", "0", "0", "1", "2"]), st.sampled_from(["0.5", "x", "1e999"]))
# Study spacings for a box of side 1: 3, 4 or 5 nodes per axis, or refused.
THIRD = repr(1 / 3)
STUDY_SPACINGS = mostly(
    st.sampled_from([["0.5", "0.25"], ["0.5", THIRD], [THIRD, "0.25"], ["0.5", THIRD, "0.25"]]),
    st.lists(st.sampled_from(["1", "0.5", "0.25", "0", "-0.5", "inf", "nan", "1e-9", "5e-324",
                              "x"]), max_size=3),
)
STUDY_LENGTHS = mostly(st.just("1"), st.sampled_from(["0", "-1", "inf", "nan", "1e308", "x"]))
STUDY_ORIGINS = st.lists(st.sampled_from(["0", "1", "-1", "0.5", "-0.0", "-1e-05", "-inf"]),
                         min_size=1, max_size=3)
SMALL_INTS = mostly(st.sampled_from(["1", "2", "3", "4", "5"]),
                    st.sampled_from(["0", "-1", "2.5", "x"]))
# Spellings of negative numbers, of which argparse alone takes some for options.
NEGATIVE = st.sampled_from(["-1e-05", "-1E-05", "-2.5e+3", "-1.5", "-inf", "-1_0"])

FRAGMENTS = st.sampled_from(
    ["x1", "x2", "x3", "x4", "1", "0", "2.5", "1e308", "1e-300", "+", "-", "*", "/", "^",
     "(", ")", "exp(", "ln(", "sqrt(", "sin(", "cos(", "abs(", "foo(", " ", ","]
)
VALID_EXPRESSIONS = st.recursive(
    st.sampled_from(["x1", "x2", "x3", "1", "0", "2.5", "0.5", "1e308", "1e-300"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["exp", "ln", "sqrt", "sin", "cos", "abs"]), inner).map(
            lambda t: f"{t[0]}({t[1]})"
        ),
        inner.map(lambda e: f"-{e}"),
    ),
    max_leaves=6,
)
EXPRESSIONS = mostly(
    VALID_EXPRESSIONS,
    st.one_of(
        st.lists(FRAGMENTS, max_size=12).map("".join),
        st.text(alphabet='x1234567890+-*/^(). e"', max_size=20),
    ),
)


@st.composite
def grid_texts(draw, h):
    dim = draw(st.integers(1, 3))
    extents = draw(st.lists(st.integers(1, 5), min_size=dim, max_size=dim))
    count = math.prod(extents) + draw(mostly(st.just(0), st.sampled_from([-1, 1])))
    values = [draw(NUMBERS) for _ in range(count)]
    lines = [
        f"dim {draw(mostly(st.just(str(dim)), st.sampled_from(['0', '4', 'x'])))}",
        "origin " + " ".join(draw(NUMBERS) for _ in range(dim)),
        f"h {h}",
        "extents " + " ".join(str(e) for e in extents),
        *values,
    ]
    return "\n".join(lines) + "\n", extents


@st.composite
def box_texts(draw, h):
    """A well-formed grid file of 5 nodes per axis, which a mollifier of radius 2h fits."""
    dim = draw(st.integers(1, 3))
    values = [draw(FINITE) for _ in range(5**dim)]
    lines = [f"dim {dim}", "origin" + " 0" * dim, f"h {h}", "extents" + " 5" * dim, *values]
    return "\n".join(lines) + "\n", [5] * dim


@st.composite
def stencil_texts(draw, dim, h):
    scale = draw(mostly(st.sampled_from(["0", "2"]), SMALL_INTS))
    lines = [f"dim {dim}", f"h {h}", f"scale {scale}"]
    for _ in range(draw(st.integers(1, 4))):
        shift = " ".join(draw(SHIFTS) for _ in range(dim))
        coeff = draw(st.one_of(NUMBERS, EXPRESSIONS.map(lambda e: f'"{e}"')))
        lines.append(f"term {shift}  {coeff}")
    return "\n".join(lines) + "\n"


@st.composite
def jobs(draw):
    """A command line over the files ``{grid}``, ``{stencil}`` and outputs ``{out}``,
    ``{report}`` or ``{lost}``, a report in a missing directory."""
    h = draw(SPACINGS)
    grid, extents = draw(st.one_of(grid_texts(h), box_texts(h)))
    dim = len(extents)
    stencil_dim = draw(mostly(st.just(dim), st.integers(1, 3)))
    stencil = draw(stencil_texts(stencil_dim, draw(mostly(st.just(h), SPACINGS))))
    expression = draw(EXPRESSIONS)
    coords = [draw(NUMBERS) for _ in range(stencil_dim)]
    problem = draw(st.sampled_from(["laplace", "poisson"]))
    with_rhs = problem == "poisson" or draw(mostly(st.just(False), st.just(True)))
    rhs = ["--rhs", draw(EXPRESSIONS)] if with_rhs else []
    report_path = draw(mostly(st.just("{report}"), st.just("{lost}")))
    report = draw(st.sampled_from([[], ["--report", report_path]]))
    # a mollifier of radius 2h fits 5 nodes per axis; one of radius h is too coarse (exit 2)
    eps = st.one_of(NUMBERS, NEGATIVE)
    if h in ("0.25", "0.5", "1") and min(extents) >= 5:
        eps = mostly(st.just(repr(2 * float(h))), st.one_of(st.just(h), eps))
    eps = draw(eps)
    tol = draw(mostly(st.just("1e-10"), NEGATIVE))
    max_iter = draw(mostly(st.just("200"), NEGATIVE))
    argv = draw(st.sampled_from([
        ["apply", "--stencil", "{stencil}", "--grid", "{grid}", "--output", "{out}"],
        ["classify", "--stencil", "{stencil}", "--at", *coords],
        ["classify", "--stencil", "{stencil}", "--probe-origin", *coords,
         "--probe-h", draw(mostly(SPACINGS, NEGATIVE)),
         "--probe-extents", *(draw(SMALL_INTS) for _ in coords),
         "--output", "{out}"],
        ["solve", "laplace", "--grid", "{grid}", f"--boundary={expression}",
         "--tol", tol, "--max-iter", max_iter, "--output", "{out}", *report],
        ["solve", "poisson", "--grid", "{grid}", f"--rhs={expression}",
         "--tol", tol, "--max-iter", max_iter, "--output", "{out}", *report],
        ["verify", "--grid", "{grid}", "--scaled", f"--rhs={expression}", "--output", "{out}"],
        ["potential", "--source", "{grid}", "--output", "{out}"],
        ["mollify", "--grid", "{grid}", "--eps", eps, "--refine",
         draw(mostly(SMALL_INTS, NEGATIVE)), "--output", "{out}", *report],
        ["convergence", "--problem", problem, "--reference", expression, *rhs,
         "--h", *draw(STUDY_SPACINGS),
         "--origin", *draw(STUDY_ORIGINS), "--length", draw(mostly(STUDY_LENGTHS, NEGATIVE)),
         "--tol", tol, "--max-iter", max_iter, "--output", "{out}"],
    ]))
    return grid, stencil, argv


@settings(max_examples=100, deadline=None)
@given(jobs())
def test_any_input_keeps_the_cli_contract(job):
    grid_text, stencil_text, argv = job
    with tempfile.TemporaryDirectory() as d:
        paths = {name: os.path.join(d, name) for name in ("grid", "stencil", "out", "report")}
        paths["lost"] = os.path.join(d, "missing", "report")
        with open(paths["grid"], "w", encoding="utf-8") as fh:
            fh.write(grid_text)
        with open(paths["stencil"], "w", encoding="utf-8") as fh:
            fh.write(stencil_text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.format(**paths) for a in argv])
        stderr = err.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in stderr
        assert "expected one argument" not in stderr
        assert sum(line.startswith("error:") for line in stderr.splitlines()) <= 1
        assert not [f for f in os.listdir(d) if f.startswith(".pardiff-")]
        if code != 0:
            assert stderr.splitlines()[-1].startswith("error: ")
            assert not os.path.exists(paths["out"])
            assert not os.path.exists(paths["report"])
        assert "{lost}" not in argv or code != 0
