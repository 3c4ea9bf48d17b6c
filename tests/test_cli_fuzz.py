"""Fuzzing of the command line with grid files, stencil files and expressions.

Whatever the input, ``pardiff.cli.main`` must return 0, 1 or 2, write at
most one ``error:`` line and no traceback to stderr, leave no ``.pardiff-*``
temporary file behind, and write no output file when it fails.  Grids and
probes stay at most 5 nodes per axis and solves at most 200 iterations, so
every example runs in milliseconds.  ``mollify`` and ``convergence`` are
left out: their kernel and grid sizes grow as ``eps / h`` and ``1 / h``, so
a fuzzed spacing could ask for any amount of memory.
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
SMALL_INTS = mostly(st.sampled_from(["1", "2", "3", "4", "5"]),
                    st.sampled_from(["0", "-1", "2.5", "x"]))

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
    return "\n".join(lines) + "\n", dim


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
    """A command line over the files ``{grid}``, ``{stencil}`` and output ``{out}``."""
    h = draw(SPACINGS)
    grid, dim = draw(grid_texts(h))
    stencil_dim = draw(mostly(st.just(dim), st.integers(1, 3)))
    stencil = draw(stencil_texts(stencil_dim, draw(mostly(st.just(h), SPACINGS))))
    expression = draw(EXPRESSIONS)
    coords = [draw(NUMBERS) for _ in range(stencil_dim)]
    argv = draw(st.sampled_from([
        ["apply", "--stencil", "{stencil}", "--grid", "{grid}", "--output", "{out}"],
        ["classify", "--stencil", "{stencil}", "--at", *coords],
        ["classify", "--stencil", "{stencil}", "--probe-origin", *coords, "--probe-h",
         draw(SPACINGS), "--probe-extents", *(draw(SMALL_INTS) for _ in coords),
         "--output", "{out}"],
        ["solve", "laplace", "--grid", "{grid}", f"--boundary={expression}",
         "--max-iter", "200", "--output", "{out}"],
        ["solve", "poisson", "--grid", "{grid}", f"--rhs={expression}",
         "--max-iter", "200", "--output", "{out}"],
        ["verify", "--grid", "{grid}", "--scaled", f"--rhs={expression}", "--output", "{out}"],
        ["potential", "--source", "{grid}", "--output", "{out}"],
    ]))
    return grid, stencil, argv


@settings(max_examples=100, deadline=None)
@given(jobs())
def test_any_input_keeps_the_cli_contract(job):
    grid_text, stencil_text, argv = job
    with tempfile.TemporaryDirectory() as d:
        paths = {name: os.path.join(d, name) for name in ("grid", "stencil", "out")}
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
        assert sum(line.startswith("error:") for line in stderr.splitlines()) <= 1
        assert not [f for f in os.listdir(d) if f.startswith(".pardiff-")]
        if code != 0:
            assert stderr.splitlines()[-1].startswith("error: ")
            assert not os.path.exists(paths["out"])
