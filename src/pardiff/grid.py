"""Uniform axis-aligned grids and real-valued functions sampled on them.

A grid is a lattice ``origin + h * (i1, ..., in)`` with one shared spacing
``h`` for every axis.  Values are stored in row-major node order (the last
index varies fastest), the same order used by the grid file format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .expr import CoeffExpr, evaluate_nodes, parse

__all__ = [
    "GridSpec",
    "GridFunction",
    "GridFileError",
    "sample",
    "norm",
    "shrink",
    "restrict",
    "load_grid",
    "save_grid",
]

Margins = Union[int, Sequence[Sequence[int]]]


class GridFileError(ValueError):
    """Raised for malformed grid files; carries file and line information."""


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a uniform grid: origin, spacing and node counts per axis."""

    origin: tuple[float, ...]
    h: float
    extents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "extents", tuple(int(e) for e in self.extents))
        if len(self.origin) == 0:
            raise ValueError("grid dimension must be at least 1")
        if len(self.origin) != len(self.extents):
            raise ValueError(
                f"origin has {len(self.origin)} coordinates but extents has {len(self.extents)}"
            )
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise ValueError(f"grid spacing must be positive and finite, got {self.h}")
        if any(e < 1 for e in self.extents):
            raise ValueError(f"every extent must be at least 1, got {self.extents}")
        corner = tuple(o + self.h * (e - 1) for o, e in zip(self.origin, self.extents))
        if not all(math.isfinite(v) for v in self.origin + corner):
            raise ValueError(f"grid nodes must be finite: origin {self.origin}, corner {corner}")

    @property
    def dim(self) -> int:
        return len(self.extents)

    @property
    def node_count(self) -> int:
        return int(np.prod(self.extents))

    def axis_coords(self, axis: int) -> np.ndarray:
        """Node coordinates along a 0-based axis."""
        return self.origin[axis] + self.h * np.arange(self.extents[axis])

    def meshes(self) -> list[np.ndarray]:
        """Per-axis coordinate arrays of shape ``extents`` (row-major node order)."""
        axes = [self.axis_coords(a) for a in range(self.dim)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def node(self, index: Sequence[int]) -> tuple[float, ...]:
        return tuple(self.origin[a] + self.h * index[a] for a in range(self.dim))

    def shrunk(self, lo: Sequence[int], hi: Sequence[int]) -> "GridSpec":
        extents = tuple(e - l - u for e, l, u in zip(self.extents, lo, hi))
        if any(e < 1 for e in extents):
            raise ValueError(f"shrinking by {tuple(lo)}/{tuple(hi)} leaves an empty axis")
        origin = tuple(o + self.h * l for o, l in zip(self.origin, lo))
        return GridSpec(origin, self.h, extents)


@dataclass(frozen=True)
class GridFunction:
    """Immutable real samples on a :class:`GridSpec`.

    ``values`` has shape ``spec.extents``; a flat row-major array of matching
    length is also accepted.  All entries must be finite.
    """

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.shape != self.spec.extents:
            if arr.size != self.spec.node_count:
                raise ValueError(
                    f"values have {arr.size} entries, grid has {self.spec.node_count} nodes"
                )
            arr = arr.reshape(self.spec.extents)
        else:
            arr = arr.copy()
        if not np.all(np.isfinite(arr)):
            bad = np.unravel_index(int(np.argmin(np.isfinite(arr))), arr.shape)
            raise ValueError(f"non-finite value at node {tuple(int(i) for i in bad)}")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def flat(self) -> np.ndarray:
        """Row-major flat view of the values."""
        return self.values.reshape(-1)


def sample(expression: Union[CoeffExpr, str], spec: GridSpec) -> GridFunction:
    """Evaluate an expression at every node of the grid.

    A non-finite result at any node is an error naming that node and the
    underlying cause.
    """
    e = parse(expression) if isinstance(expression, str) else expression
    return GridFunction(spec, evaluate_nodes(e, spec.meshes(), "sampling"))


def norm(u: GridFunction, kind: str) -> float:
    """Discrete norm: ``l1`` is ``h^n * sum(|u|)``, ``linf`` is ``max(|u|)``."""
    if kind == "l1":
        return float(u.spec.h ** u.spec.dim * np.abs(u.values).sum())
    if kind == "linf":
        return float(np.abs(u.values).max())
    raise ValueError(f"unknown norm kind {kind!r} (expected 'l1' or 'linf')")


def _normalize_margins(margins: Margins, dim: int) -> tuple[tuple[int, int], ...]:
    if isinstance(margins, int):
        pairs = ((margins, margins),) * dim
    else:
        pairs = tuple((int(lo), int(hi)) for lo, hi in margins)
    if len(pairs) != dim:
        raise ValueError(f"need one (low, high) margin pair per axis, got {len(pairs)}")
    if any(lo < 0 or hi < 0 for lo, hi in pairs):
        raise ValueError(f"margins must be nonnegative, got {pairs}")
    return pairs


def shrink(u: GridFunction, margins: Margins) -> GridFunction:
    """Drop ``(low, high)`` nodes per axis; margins compose additively."""
    pairs = _normalize_margins(margins, u.spec.dim)
    spec = u.spec.shrunk([p[0] for p in pairs], [p[1] for p in pairs])
    window = tuple(slice(lo, lo + e) for (lo, _), e in zip(pairs, spec.extents))
    return GridFunction(spec, u.values[window])


def restrict(u: GridFunction, spec: GridSpec) -> GridFunction:
    """Extract the sub-grid of ``u`` that coincides with ``spec``.

    The target must lie on the same lattice: equal spacing and an integral
    node offset per axis.
    """
    if u.spec.dim != spec.dim:
        raise ValueError("incompatible specs: dimensions differ")
    if not math.isclose(u.spec.h, spec.h, rel_tol=1e-12):
        raise ValueError(f"incompatible specs: spacings {u.spec.h} and {spec.h} differ")
    offsets = []
    for a in range(spec.dim):
        shift = (spec.origin[a] - u.spec.origin[a]) / u.spec.h
        k = round(shift)
        if abs(shift - k) > 1e-9:
            raise ValueError(f"incompatible specs: axis {a} offset {shift} is not integral")
        if k < 0 or k + spec.extents[a] > u.spec.extents[a]:
            raise ValueError(f"incompatible specs: axis {a} window exits the grid")
        offsets.append(k)
    window = tuple(slice(k, k + e) for k, e in zip(offsets, spec.extents))
    return GridFunction(spec, u.values[window])


def grid_file_text(u: GridFunction) -> str:
    """The grid file serialization: header lines then one value per line."""
    spec = u.spec
    lines = [
        f"dim {spec.dim}",
        "origin " + " ".join(format(v, ".17g") for v in spec.origin),
        f"h {format(spec.h, '.17g')}",
        "extents " + " ".join(str(e) for e in spec.extents),
    ]
    lines.extend(format(v, ".17g") for v in u.flat())
    return "\n".join(lines) + "\n"


def save_grid(u: GridFunction, path: str) -> None:
    """Write the line-oriented grid file format (header then one value per line)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(grid_file_text(u))


def _content_lines(path: str) -> list[tuple[int, str]]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            out.append((lineno, stripped))
    return out


def _header_fields(path: str, lineno: int, line: str, key: str, count: int | None) -> list[str]:
    fields = line.split()
    if fields[0] != key:
        raise GridFileError(f"{path}:{lineno}: expected '{key} ...', got {line!r}")
    if count is not None and len(fields) != count + 1:
        raise GridFileError(f"{path}:{lineno}: '{key}' needs {count} values, got {len(fields) - 1}")
    return fields[1:]


def load_grid(path: str) -> GridFunction:
    """Read a grid file written by :func:`save_grid`.  ``#`` lines are comments."""
    lines = _content_lines(path)
    if len(lines) < 4:
        raise GridFileError(f"{path}: truncated grid file")
    try:
        (dim,) = _header_fields(path, *lines[0], "dim", 1)
        dim = int(dim)
        if dim < 1:
            raise ValueError
    except ValueError:
        raise GridFileError(f"{path}:{lines[0][0]}: invalid dimension") from None
    try:
        origin = tuple(float(v) for v in _header_fields(path, *lines[1], "origin", dim))
        (h,) = _header_fields(path, *lines[2], "h", 1)
        h = float(h)
        extents = tuple(int(v) for v in _header_fields(path, *lines[3], "extents", dim))
    except ValueError as exc:
        raise GridFileError(f"{path}: malformed header: {exc}") from None
    try:
        spec = GridSpec(origin, h, extents)
    except ValueError as exc:
        raise GridFileError(f"{path}: {exc}") from None
    body = lines[4:]
    if len(body) != spec.node_count:
        raise GridFileError(
            f"{path}: expected {spec.node_count} value lines, found {len(body)}"
        )
    values = np.empty(spec.node_count)
    for k, (lineno, line) in enumerate(body):
        try:
            values[k] = float(line)
        except ValueError:
            raise GridFileError(f"{path}:{lineno}: invalid value {line!r}") from None
    try:
        return GridFunction(spec, values)
    except ValueError as exc:
        raise GridFileError(f"{path}: {exc}") from None
