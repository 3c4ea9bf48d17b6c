"""Difference stencils: construction from partial differences, and grid application.

A stencil is a finite list of (shift, coefficient) terms plus an overall
``h^(-p)`` scale; applying it at a node forms the weighted sum of shifted
samples

    h^(-p) * sum_i  coeff_i(x) * u(x + shift_i * h).

Shifts must be integer vectors for grid application; real-valued shifts are
accepted by the type so the classification machinery can analyse operators
that never touch a grid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence, Union

import numpy as np

from . import expr as ex
from .grid import (
    GridFunction, GridSpec, _atomic_write, _check_length, _content_lines,
    _header_fields, _read_text, _same_pitch, norm, restrict,
)

__all__ = [
    "StencilTerm",
    "Stencil",
    "StencilFileError",
    "axis_difference",
    "mixed_difference",
    "laplace_stencil",
    "biharmonic_stencil",
    "residual",
    "load_stencil",
    "save_stencil",
]

Coefficient = Union[ex.CoeffExpr, float, int]


class StencilFileError(ValueError):
    """Raised for malformed stencil files; carries file and line information."""


def _normalize_shift_entry(v) -> Union[int, float]:
    f = float(v)
    if not math.isfinite(f):
        raise ValueError(f"shift entries must be finite, got {v}")
    return int(f) if f.is_integer() else f


def _as_coeff(c: Coefficient) -> ex.CoeffExpr:
    if isinstance(c, (int, float)):
        c = ex.Num(float(c))
    if isinstance(c, ex.Num) and not math.isfinite(c.value):
        raise ValueError(f"coefficient must be finite, got {c.value}")
    return c


@dataclass(frozen=True)
class StencilTerm:
    shift: tuple[Union[int, float], ...]
    coeff: ex.CoeffExpr

    def __post_init__(self):
        object.__setattr__(self, "shift", tuple(_normalize_shift_entry(v) for v in self.shift))
        object.__setattr__(self, "coeff", _as_coeff(self.coeff))

    @property
    def constant(self) -> float | None:
        """Coefficient value when it is a plain literal, else None."""
        return self.coeff.value if isinstance(self.coeff, ex.Num) else None


def _merge_terms(terms: Sequence[StencilTerm]) -> tuple[StencilTerm, ...]:
    """Collapse duplicate shifts: leading literals add numerically, the rest symbolically.

    The symbolic sum is balanced, so k duplicates deepen the coefficient's
    syntax tree by ceil(log2 k) levels rather than k - 1.
    """
    merged: dict[tuple, list[ex.CoeffExpr]] = {}
    for term in terms:
        coeffs = merged.setdefault(term.shift, [])
        if len(coeffs) == 1 and isinstance(coeffs[0], ex.Num) and isinstance(term.coeff, ex.Num):
            total = coeffs[0].value + term.coeff.value
            if not math.isfinite(total):
                raise ValueError(f"literal coefficients at shift {term.shift} sum to {total}")
            coeffs[0] = ex.Num(total)
        else:
            coeffs.append(term.coeff)
    return tuple(
        StencilTerm(shift, _balanced_sum(coeffs)) for shift, coeffs in sorted(merged.items())
    )


def _balanced_sum(coeffs: Sequence[ex.CoeffExpr]) -> ex.CoeffExpr:
    """The sum as a balanced tree; two or three terms nest as ``(a + b) + c``."""
    if len(coeffs) == 1:
        return coeffs[0]
    mid = (len(coeffs) + 1) // 2
    return ex.BinOp("+", _balanced_sum(coeffs[:mid]), _balanced_sum(coeffs[mid:]))


@dataclass(frozen=True)
class Stencil:
    """A difference operator on grids of spacing ``h``.

    ``scale_exp`` is the nonnegative exponent p of the overall ``h^(-p)``
    factor.  Duplicate shifts are merged at construction, so terms are
    pairwise distinct and sorted by shift.
    """

    dim: int
    h: float
    terms: tuple[StencilTerm, ...]
    scale_exp: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "scale_exp", int(self.scale_exp))
        if self.dim < 1:
            raise ValueError("stencil dimension must be at least 1")
        _check_length(self.h, "stencil spacing")
        if self.scale_exp < 0:
            raise ValueError(f"scale exponent must be nonnegative, got {self.scale_exp}")
        terms = tuple(t if isinstance(t, StencilTerm) else StencilTerm(*t) for t in self.terms)
        if not terms:
            raise ValueError("a stencil needs at least one term")
        for t in terms:
            if len(t.shift) != self.dim:
                raise ValueError(f"shift {t.shift} does not have dimension {self.dim}")
        object.__setattr__(self, "terms", _merge_terms(terms))

    @property
    def is_lattice(self) -> bool:
        """True when every shift entry is an integer (required for apply)."""
        return all(isinstance(v, int) for t in self.terms for v in t.shift)

    def coefficients(self, spec: GridSpec) -> Iterator[tuple[StencilTerm, float | np.ndarray]]:
        """Each term with its coefficient on ``spec``: the literal or an evaluate_nodes array."""
        meshes = None
        for t in self.terms:
            c = t.constant
            if c is None:
                if meshes is None:
                    meshes = spec.meshes()
                c = ex.evaluate_nodes(t.coeff, meshes, "coefficient evaluation")
            yield t, c

    @np.errstate(over="ignore", invalid="ignore")
    def apply(self, u: GridFunction) -> GridFunction:
        """Apply the operator on the sub-grid where every shift stays in-grid.

        Raises OverflowError when the ``h^(-p)`` factor or the result is not
        a finite float.
        """
        spec = u.spec
        if spec.dim != self.dim:
            raise ValueError(f"stencil dimension {self.dim} does not match grid {spec.dim}")
        if not _same_pitch(spec.h, self.h):
            raise ValueError(f"stencil spacing {self.h} does not match grid spacing {spec.h}")
        if not self.is_lattice:
            raise ValueError("stencil has non-integer shifts and cannot be applied to a grid")
        lo = [0] * self.dim
        hi = [0] * self.dim
        for t in self.terms:
            for a, s in enumerate(t.shift):
                lo[a] = max(lo[a], -s)
                hi[a] = max(hi[a], s)
        try:
            out_spec = spec.shrunk(lo, hi)
        except ValueError:
            raise ValueError(
                "empty valid region: the grid is too small for the stencil's shifts"
            ) from None
        out = np.zeros(out_spec.extents)
        for t, c in self.coefficients(out_spec):
            window = tuple(
                slice(l + s, l + s + e) for l, s, e in zip(lo, t.shift, out_spec.extents)
            )
            out += c * u.values[window]
        if self.scale_exp:
            try:
                out *= self.h ** (-self.scale_exp)
            except OverflowError:
                raise OverflowError(
                    f"scale factor h^(-{self.scale_exp}) overflows at h = {self.h!r}"
                ) from None
        finite = np.isfinite(out)
        if not finite.all():
            raise OverflowError(f"stencil result overflows at node {ex._first_failing(finite)}")
        return GridFunction(out_spec, out)


def axis_difference(dim: int, axis: int, order: int, h: float) -> Stencil:
    """Forward partial difference of the given order along one 1-based axis.

    First order is ``u(x + h*e_axis) - u(x)``; higher orders iterate it, which
    yields binomial coefficients ``(-1)^(order-j) * C(order, j)`` at shift
    ``j * e_axis``: the mixed difference with one nonzero order.
    """
    if not 1 <= axis <= dim:
        raise ValueError(f"axis {axis} out of range for dimension {dim}")
    if order < 1:
        raise ValueError(f"difference order must be at least 1, got {order}")
    orders = [0] * dim
    orders[axis - 1] = order
    return mixed_difference(dim, orders, h)


def mixed_difference(dim: int, orders: Sequence[int], h: float) -> Stencil:
    """Composition of per-axis forward differences (tensor-product expansion)."""
    orders = tuple(int(k) for k in orders)
    if len(orders) != dim:
        raise ValueError(f"need one order per axis, got {len(orders)} for dimension {dim}")
    if any(k < 0 for k in orders):
        raise ValueError(f"orders must be nonnegative, got {orders}")
    if sum(orders) < 1:
        raise ValueError("total difference order must be at least 1")
    terms = []
    for shift in product(*(range(k + 1) for k in orders)):
        coeff = 1.0
        for k, j in zip(orders, shift):
            sign = 1.0 if (k - j) % 2 == 0 else -1.0
            coeff *= sign * math.comb(k, j)
        terms.append(StencilTerm(shift, coeff))
    return Stencil(dim, h, tuple(terms))


def laplace_stencil(dim: int, h: float, scaled: bool = False) -> Stencil:
    """Sum of forward second differences over all axes; ``scaled`` adds h^(-2)."""
    terms: list[StencilTerm] = []
    for axis in range(1, dim + 1):
        terms.extend(axis_difference(dim, axis, 2, h).terms)
    return Stencil(dim, h, tuple(terms), scale_exp=2 if scaled else 0)


def biharmonic_stencil(dim: int, h: float, scaled: bool = False) -> Stencil:
    """The square of the forward-difference Laplacian; ``scaled`` adds h^(-4).

    Each ordered axis pair (i, j) adds the second difference along i composed
    with the one along j; ``i == j`` gives the fourth difference per axis.
    """
    terms: list[StencilTerm] = []
    for i in range(dim):
        for j in range(dim):
            orders = [0] * dim
            orders[i] += 2
            orders[j] += 2
            terms.extend(mixed_difference(dim, orders, h).terms)
    return Stencil(dim, h, tuple(terms), scale_exp=4 if scaled else 0)


def residual(s: Stencil, u: GridFunction, rhs: GridFunction) -> tuple[float, float]:
    """(l1, linf) norms of ``s(u) - rhs`` over the valid region of the application."""
    applied = s.apply(u)
    rhs_there = restrict(rhs, applied.spec)
    diff = GridFunction(applied.spec, applied.values - rhs_there.values)
    return norm(diff, "l1"), norm(diff, "linf")


def save_stencil(s: Stencil, path: str) -> None:
    """Write the line-oriented stencil file format, atomically (see ``save_grid``)."""
    lines = [f"dim {s.dim}", f"h {format(s.h, '.17g')}", f"scale {s.scale_exp}"]
    for t in s.terms:
        shift = " ".join(str(v) for v in t.shift)
        c = t.constant
        coeff = format(c, ".17g") if c is not None else f'"{ex.to_string(t.coeff)}"'
        lines.append(f"term {shift}  {coeff}")
    _atomic_write([(path, "\n".join(lines) + "\n")])


def load_stencil(path: str) -> Stencil:
    """Read a stencil file.  ``#`` lines are comments.

    Term lines are ``term s1 ... sN c`` with ``c`` either a numeric literal or
    a double-quoted coefficient expression.
    """
    lines = _content_lines(_read_text(path, StencilFileError))
    if len(lines) < 4:
        raise StencilFileError(f"{path}: truncated stencil file")
    try:
        (dim,) = _header_fields(path, *lines[0], "dim", 1)
        dim = int(dim)
        (h,) = _header_fields(path, *lines[1], "h", 1)
        h = float(h)
        (scale,) = _header_fields(path, *lines[2], "scale", 1)
        scale = int(scale)
    except ValueError as exc:
        raise StencilFileError(f"{path}: malformed header: {exc}") from None
    # Shift entries per term line.  A dimension below 1 is refused after the
    # terms are read, and split() takes at most sys.maxsize splits.
    entries = min(max(dim, 0), sys.maxsize - 1)
    terms = []
    for lineno, line in lines[3:]:
        fields = line.split(None, entries + 1)
        if fields[0] != "term" or len(fields) < 2:
            raise StencilFileError(f"{path}:{lineno}: expected 'term s1 ... sN c'")
        if len(fields) < entries + 2:
            raise StencilFileError(
                f"{path}:{lineno}: term needs {dim} shift entries and a coefficient"
            )
        coeff_text = fields[-1].strip()
        try:
            shift = tuple(float(v) for v in fields[1:-1])
        except ValueError:
            raise StencilFileError(f"{path}:{lineno}: invalid shift entry") from None
        if coeff_text.startswith('"'):
            if not (coeff_text.endswith('"') and len(coeff_text) >= 2):
                raise StencilFileError(f"{path}:{lineno}: unterminated coefficient expression")
            try:
                coeff: Coefficient = ex.parse(coeff_text[1:-1])
            except ex.ExprSyntaxError as exc:
                raise StencilFileError(
                    f"{path}:{lineno}: bad coefficient expression: {exc} "
                    f"(offset within the quoted text)"
                ) from None
        else:
            try:
                coeff = float(coeff_text)
            except ValueError:
                raise StencilFileError(
                    f"{path}:{lineno}: coefficient must be a number or a quoted expression"
                ) from None
        try:
            terms.append(StencilTerm(shift, coeff))
        except ValueError as exc:
            raise StencilFileError(f"{path}:{lineno}: {exc}") from None
    try:
        return Stencil(dim, h, tuple(terms), scale_exp=scale)
    except ValueError as exc:
        raise StencilFileError(f"{path}: {exc}") from None
