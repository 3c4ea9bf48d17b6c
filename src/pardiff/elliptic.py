"""Dirichlet solvers, fundamental-solution potentials, and harmonicity validators.

Boundary-value problems use the centered second-difference operator

    sum_a [u(x + h e_a) - 2 u(x) + u(x - h e_a)]

with a red-black SOR iteration (relaxation factor from the model-problem
optimum for the box).  The grid is padded to odd strides and split into its
even and odd flat indices, so each color and each of its neighbour shifts is
one contiguous slice of one half, and the neighbour sums one half-sweep
computes are reused for the residual and the next half-sweep, since they
read only the other color.  A sweep that overflows on an interior node
raises ``OverflowError``.  The forward-shifted operator remains available
through the stencil module for verification of the difference equations
themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .expr import CoeffExpr, parse
from .grid import (
    MAX_NODES, GridFunction, GridSpec, Margins, _lattice_offset, _normalize_margins,
    _valid_convolve, sample, shrink,
)
from .stencil import laplace_stencil

__all__ = [
    "FundamentalSolution",
    "SolveReport",
    "HarnackVerdict",
    "sphere_area",
    "newtonian_potential",
    "solve_laplace_dirichlet",
    "solve_poisson_dirichlet",
    "solve_biharmonic",
    "mean_value_check",
    "max_principle_check",
    "harnack_limit",
    "harmonicity_residual",
    "ConvergenceRow",
    "convergence_study",
    "SOLVE_TOL",
    "SOLVE_MAX_ITER",
]

# Default residual tolerance and iteration cap of the Dirichlet solves.
SOLVE_TOL = 1e-10
SOLVE_MAX_ITER = 100_000


def sphere_area(dim: int) -> float:
    """Surface area of the unit sphere in ``dim`` dimensions: 2 pi^(n/2) / Gamma(n/2)."""
    if dim < 2:
        raise ValueError(f"sphere area needs dimension >= 2, got {dim}")
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


@dataclass(frozen=True)
class FundamentalSolution:
    """Free-space kernel whose Laplacian is the unit point source.

    Logarithmic in the plane, ``-|x|^(2-n) / ((n-2) s_n)`` for n >= 3 with
    ``s_n`` the unit sphere area.
    """

    dim: int
    unit_sphere_area: float = 0.0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"fundamental solutions need dimension >= 2, got {self.dim}")
        object.__setattr__(self, "unit_sphere_area", sphere_area(self.dim))

    def radial(self, r: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Kernel value at distance ``r > 0`` from the source."""
        if self.dim == 2:
            return np.log(r) / (2.0 * math.pi)
        return -(r ** (2.0 - self.dim)) / ((self.dim - 2.0) * self.unit_sphere_area)

    def evaluate(self, x: Sequence[float]) -> float:
        point = tuple(float(v) for v in x)
        if len(point) != self.dim:
            raise ValueError(f"point must have dimension {self.dim}")
        # fsum is exactly rounded, so the value is invariant under coordinate
        # permutations and sign flips, not merely close.
        r = math.sqrt(math.fsum(v * v for v in point))
        if r == 0.0:
            raise ValueError(
                "fundamental solution is singular at the origin; use cell_average"
            )
        return float(self.radial(r))

    def cell_average(self, h: float, subdivisions: int = 8) -> float:
        """Average over the h-cell centered at the singularity, by midpoint subcells."""
        if subdivisions < 2:
            raise ValueError("cell averaging needs at least 2 subdivisions per axis")
        offsets = -h / 2.0 + (np.arange(subdivisions) + 0.5) * (h / subdivisions)
        meshes = np.meshgrid(*([offsets] * self.dim), indexing="ij")
        r = np.sqrt(sum(m * m for m in meshes))
        return float(np.mean(self.radial(r)))


def newtonian_potential(
    fs: FundamentalSolution,
    source: GridFunction,
    targets: GridSpec,
    singular_subdivisions: int = 8,
) -> GridFunction:
    """Volume potential of a compactly supported source.

    ``u(x) = h^n * sum_y K(x - y) f(y)`` where the self cell (target on a
    source node) contributes the cell average of the kernel instead of the
    singular point value.  The source must vanish on its grid boundary layer.

    Targets on the source lattice (``grid._lattice_offset``) see a
    translation-invariant kernel, so the sum is a zero-padded discrete
    convolution evaluated by FFT (Hockney's free-space method).  Any other
    targets take the direct sum over (target, source) pairs, with each pair's
    squared distance built from per-axis distance tables.
    """
    n = fs.dim
    if source.spec.dim != n or targets.dim != n:
        raise ValueError("source and target dimensions must match the kernel dimension")
    boundary = _boundary_mask(source.spec.extents)
    if np.any(source.values[boundary] != 0.0):
        bad = np.argwhere(boundary & (source.values != 0.0))[0]
        raise ValueError(
            f"source is not compactly supported: nonzero boundary value at node "
            f"{tuple(int(i) for i in bad)}"
        )
    if not np.any(source.values):
        return GridFunction(targets, np.zeros(targets.extents))
    offset = _lattice_offset(source.spec, targets)
    if offset is not None:
        out = _hockney_potential(fs, source, targets.extents, offset, singular_subdivisions)
    else:
        out = _direct_potential(fs, source, targets, singular_subdivisions)
    return GridFunction(targets, out.reshape(targets.extents))


def _kernel_of_squared_distance(
    fs: FundamentalSolution, d2: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Kernel values from squared distances; entries with ``d2 == 0`` are not finite.

    The values go to ``out`` when given (``out=d2`` overwrites the distances).
    """
    n = fs.dim
    with np.errstate(divide="ignore"):
        if n == 2:
            # log(r) = log(r^2) / 2, skipping the sqrt pass
            vals = np.log(d2, out=out)
            vals *= 1.0 / (4.0 * math.pi)
        else:
            vals = np.power(d2, (2.0 - n) / 2.0, out=out)
            vals *= -1.0 / ((n - 2.0) * fs.unit_sphere_area)
    return vals


def _hockney_potential(
    fs: FundamentalSolution,
    source: GridFunction,
    target_extents: Sequence[int],
    offset: Sequence[int],
    singular_subdivisions: int,
) -> np.ndarray:
    """The lattice sum for targets ``offset`` cells from the source origin, by FFT.

    Target node t sees source node s at displacement ``offset + t - s``, so
    the sum is the valid convolution of the source with the kernel tabulated
    on displacements ``offset - (Ns-1) ... offset + Nt - 1`` per axis; that
    table's extent ``Ns + Nt - 1`` is never below the source's ``Ns``.
    """
    h = source.spec.h
    src_extents = source.spec.extents
    displacements = np.ix_(
        *(h * np.arange(o - s + 1, o + t) for o, s, t in zip(offset, src_extents, target_extents))
    )
    table = _kernel_of_squared_distance(fs, sum(d * d for d in displacements))
    zero = tuple(s - 1 - o for o, s in zip(offset, src_extents))
    if all(0 <= z < length for z, length in zip(zero, table.shape)):
        table[zero] = fs.cell_average(h, singular_subdivisions)
    return h**fs.dim * _valid_convolve(table, source.values)


def _direct_potential(
    fs: FundamentalSolution,
    source: GridFunction,
    targets: GridSpec,
    singular_subdivisions: int,
) -> np.ndarray:
    """The lattice sum on the nodes of ``targets``, flattened in row-major order.

    Both grids are tensor grids, so the squared distance from target node
    ``(i_0, i_1, ...)`` to nonzero source node ``s`` is
    ``T_0[i_0, s] + T_1[i_1, s] + ...`` with ``T_a = (target_a - source_a)^2``,
    summed in axis order.  The targets go in blocks that are boxes: one index
    on each axis before a split axis, a run of indices on it, and every index
    on the axes after it.  A block's distances are one broadcast add into a
    reused buffer, on which the kernel is then taken in place.  The near-pair
    test runs only on blocks whose axis-0 terms hold a near entry, since no
    sum of squares is below its axis-0 term.
    """
    n = fs.dim
    h = source.spec.h
    keep = source.values != 0.0
    weights = source.values[keep]
    count = weights.size
    src = [source.spec.axis_coords(a)[i] for a, i in enumerate(np.nonzero(keep))]
    coords = [targets.axis_coords(a) for a in range(n)]

    def table(axis: int, rows: slice) -> np.ndarray:
        diff = coords[axis][rows, None] - src[axis]
        diff *= diff
        return diff

    extents = targets.extents
    self_value = fs.cell_average(h, singular_subdivisions)
    near_sq = (1e-9 * h) ** 2
    # About 2 MB per (block x sources) temporary, so each fits one core's L2
    # cache; the axis tables after the split axis are no larger than a block.
    chunk = max(1, 250_000 // max(1, count))
    split = next(a for a in range(n) if math.prod(extents[a + 1 :]) <= chunk)
    tail = extents[split + 1 :]
    step = min(extents[split], chunk // math.prod(tail))
    trailing = [
        table(a, slice(None)).reshape(extents[a], *(1,) * (n - 1 - a), count)
        for a in range(split + 1, n)
    ]
    buf = np.empty(chunk * count)
    out = np.empty(math.prod(extents))
    start = 0
    for prefix in np.ndindex(*extents[:split]):
        leading = [table(a, slice(i, i + 1)) for a, i in enumerate(prefix)]
        for lo in range(0, extents[split], step):
            rows = table(split, slice(lo, lo + step))
            block = (len(rows), *tail)
            size = math.prod(block)
            terms = [*leading, rows.reshape(len(rows), *(1,) * len(tail), count), *trailing]
            head = terms[0]
            for term in terms[1:-1]:
                head = head + term
            d2 = buf[: size * count].reshape(*block, count)
            np.add(head, terms[-1], out=d2)
            near = d2 <= near_sq if np.any(terms[0] <= near_sq) else None
            vals = _kernel_of_squared_distance(fs, d2, out=d2)
            if near is not None:
                vals[near] = self_value
            out[start : start + size] = h**n * (vals.reshape(size, count) @ weights)
            start += size
    return out


@dataclass(frozen=True)
class SolveReport:
    """Result of an iterative solve.

    ``final_residual`` is the max-norm residual of the discrete operator the
    solver targets; for the biharmonic splitting it is the residual of the
    composed fourth-order operator while ``converged`` refers to the stage
    tolerances.
    """

    solution: GridFunction
    iterations: int
    final_residual: float
    converged: bool
    stage_residuals: tuple[float, ...] | None = None


def _boundary_mask(extents: Sequence[int]) -> np.ndarray:
    mask = np.ones(tuple(extents), dtype=bool)
    mask[tuple(slice(1, -1) for _ in extents)] = False
    return mask


def _sor_dirichlet(
    boundary: GridFunction,
    rhs_values: np.ndarray | None,
    tol: float,
    max_iter: int,
    residual_scale: float,
) -> SolveReport:
    """Red-black SOR for the centered operator with Dirichlet data.

    The boundary ring of ``boundary`` is held fixed; its interior is the
    initial guess.  The relaxation factor is the model-problem optimum
    ``2 / (1 + sin(pi h / L))`` with L the longest box side.

    An interior node is red when the sum of its interior indices is even.
    The grid is copied into an array whose axes after the first are padded
    with zeros to an odd length, so every stride is odd and a node's color
    is the parity of its flat index.  The sweep keeps the even and the odd
    flat indices as two contiguous halves, so each color and each of its
    neighbour shifts is one contiguous slice of one half (:class:`_Color`);
    the halves are interleaved back once, when the sweep ends.  Every
    neighbour of a node has the other color, so two half-grid neighbour sums
    per iteration serve everything: black's serve the black relaxation and
    the black residual, red's, taken after the black relaxation, serve the
    red residual and the next red relaxation.

    The color slices also cover ring and pad nodes: their updates are
    computed and then overwritten with the saved values, and may overflow
    without harm.  An interior residual that is not finite raises
    ``OverflowError``.
    """
    spec = boundary.spec
    extents = spec.extents
    n = spec.dim
    if any(e < 3 for e in extents):
        raise ValueError("solver needs at least 3 nodes per axis")
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    h = spec.h
    grid = tuple(slice(0, e) for e in extents)
    interior = tuple(slice(1, e - 1) for e in extents)
    u = np.zeros(extents[:1] + tuple(e | 1 for e in extents[1:]))
    u[grid] = boundary.values
    b = None
    if rhs_values is not None:
        b = np.zeros_like(u)
        b[interior] = (h * h) * rhs_values[interior]
        b = b.reshape(-1)
    inside = np.zeros(u.shape, dtype=bool)
    inside[interior] = True
    flat = u.reshape(-1)
    halves = (flat[0::2].copy(), flat[1::2].copy())
    steps = [s // u.itemsize for s in u.strides]
    first = sum(steps)  # node (1, ..., 1), which is red
    stop = sum((e - 2) * s for e, s in zip(extents, steps)) + 1
    red, black = (
        _Color(halves, b, inside.reshape(-1), steps, start, stop) for start in (first, first + 1)
    )
    length = max((e - 1) * h for e in extents)
    omega = 2.0 / (1.0 + math.sin(math.pi * h / length))
    # 0-d arrays: numpy combines them with arrays faster than Python floats
    two_n, w, keep = np.array(2.0 * n), np.array(omega), np.array(1.0 - omega)

    iterations = 0
    best = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        red.neighbor_sum()
        for iterations in range(1, max_iter + 1):
            red.relax(two_n, w, keep)
            black.neighbor_sum()
            black.relax(two_n, w, keep)
            red.neighbor_sum()
            largest = (red.residual(two_n), black.residual(two_n))
            if not all(map(math.isfinite, largest)):
                raise OverflowError(f"SOR sweep overflows at iteration {iterations}")
            best = max(largest) * residual_scale
            if best <= tol:
                break
    flat[0::2], flat[1::2] = halves
    return SolveReport(
        solution=GridFunction(spec, u[grid]),
        iterations=iterations,
        final_residual=best,
        converged=best <= tol,
    )


_ZERO = np.array(0.0)


class _Color:
    """The nodes of one color from node (1, ..., 1) to the last interior node.

    ``halves`` holds the even and the odd flat indices of the padded grid as
    two contiguous arrays.  Every stride is odd, so flat index ``j`` is entry
    ``j // 2`` of half ``j % 2``, and the color's nodes (flat indices ``start,
    start + 2, ...`` below ``stop``) are one contiguous slice ``u`` of one
    half; their neighbours along an axis, shifted by that axis's stride, are
    one contiguous slice of the other half.  ``b`` (the scaled right-hand
    side, None for Laplace, where it is zero) is a contiguous copy of the same
    nodes; ``ns`` holds the neighbour sum and ``tmp`` scratch space.

    Every step works elementwise in the order of the full-grid formulas (``0 +
    (up + dn)`` axis by axis, ``(ns - b) / 2n``, ``(1 - omega) u + omega
    target``, ``ns - 2n u - b``), so the iterates are bit-for-bit those of a
    full-grid sweep that updates one color through a boolean mask.  Skipping
    a zero ``b`` changes no bit, since ``x - 0.0`` is ``x``.  The slice also
    covers ring and pad nodes: ``relax`` updates them with the rest and then
    writes their saved values back through the index array ``outside``, and
    ``residual`` zeroes their entries before taking the maximum.
    """

    def __init__(
        self,
        halves: tuple[np.ndarray, np.ndarray],
        b: np.ndarray | None,
        inside: np.ndarray,
        steps: Sequence[int],
        start: int,
        stop: int,
    ):
        span = slice(start, stop, 2)
        count = len(range(start, stop, 2))

        def run(j: int) -> np.ndarray:
            """The ``count`` nodes from flat index ``j`` in steps of 2."""
            return halves[j % 2][j // 2 : j // 2 + count]

        self.u = run(start)
        self.pairs = [(run(start + s), run(start - s)) for s in steps]
        self.b = None if b is None else b[span].copy()
        self.outside = np.flatnonzero(~inside[span])
        self.fixed = self.u[self.outside]
        self.ns = np.empty(count)
        self.tmp = np.empty(count)

    def neighbor_sum(self) -> None:
        (up, dn), *rest = self.pairs
        np.add(up, dn, out=self.ns)
        # 0 + x, as when summing into zeros: turns a -0.0 sum into +0.0
        self.ns += _ZERO
        for up, dn in rest:
            np.add(up, dn, out=self.tmp)
            self.ns += self.tmp

    def relax(self, two_n: np.ndarray, omega: np.ndarray, keep: np.ndarray) -> None:
        """``u = keep u + omega (ns - b) / 2n`` on the interior, with ``keep = 1 - omega``."""
        if self.b is None:
            t = np.divide(self.ns, two_n, out=self.tmp)
        else:
            t = np.subtract(self.ns, self.b, out=self.tmp)
            t /= two_n
        t *= omega
        self.u *= keep
        self.u += t
        self.u[self.outside] = self.fixed

    def residual(self, two_n: np.ndarray) -> float:
        """The largest ``|ns - 2n u - b|`` over the interior nodes of this color."""
        r = np.multiply(self.u, two_n, out=self.tmp)
        np.subtract(self.ns, r, out=r)
        if self.b is not None:
            r -= self.b
        r[self.outside] = 0.0
        return float(np.abs(r, out=r).max(initial=0.0))


def solve_laplace_dirichlet(
    boundary: GridFunction, tol: float = SOLVE_TOL, max_iter: int = SOLVE_MAX_ITER
) -> SolveReport:
    """Solve the centered discrete Laplace equation with the given Dirichlet ring.

    The residual is the max norm of the unscaled centered sum over the
    interior.  Non-convergence is reported, not raised.
    """
    return _sor_dirichlet(boundary, None, tol, max_iter, 1.0)


def solve_poisson_dirichlet(
    f: GridFunction, boundary: GridFunction, tol: float = SOLVE_TOL, max_iter: int = SOLVE_MAX_ITER
) -> SolveReport:
    """Solve the centered discrete Poisson equation; residual against the h^(-2) operator."""
    if f.spec != boundary.spec:
        raise ValueError("right-hand side and boundary data must share one grid")
    h = boundary.spec.h
    if h * h == 0.0 or math.isinf(1.0 / (h * h)):
        raise OverflowError(f"scale factor h^(-2) overflows at h = {h!r}")
    return _sor_dirichlet(boundary, f.values, tol, max_iter, 1.0 / (h * h))


def _centered_laplacian(values: np.ndarray, h: float) -> np.ndarray:
    """Scaled centered second-difference sum on the interior (shrinks by one)."""
    n = values.ndim
    interior = (slice(1, -1),) * n
    s = np.zeros(tuple(e - 2 for e in values.shape))
    for a in range(n):
        up, dn = list(interior), list(interior)
        up[a], dn[a] = slice(2, None), slice(None, -2)
        s += values[tuple(up)] + values[tuple(dn)]
    return (s - 2.0 * n * values[interior]) / (h * h)


def solve_biharmonic(
    rhs: GridFunction,
    boundary: GridFunction,
    laplacian_boundary: GridFunction,
    tol: float = SOLVE_TOL,
    max_iter: int = SOLVE_MAX_ITER,
) -> SolveReport:
    """Solve the fourth-order problem by splitting into two Poisson solves.

    First the Laplacian surrogate v with boundary ``laplacian_boundary`` and
    right-hand side ``rhs``, then u with boundary ``boundary`` and right-hand
    side v.  ``final_residual`` is the composed centered fourth-order residual
    on the doubly shrunk interior; ``converged`` means both stages met ``tol``.
    """
    spec = boundary.spec
    if rhs.spec != spec or laplacian_boundary.spec != spec:
        raise ValueError("rhs and both boundary grids must share one grid")
    if any(e < 5 for e in spec.extents):
        raise ValueError("biharmonic splitting needs at least 5 nodes per axis")
    stage1 = solve_poisson_dirichlet(rhs, laplacian_boundary, tol, max_iter)
    stage2 = solve_poisson_dirichlet(stage1.solution, boundary, tol, max_iter)
    h = spec.h
    composed = _centered_laplacian(_centered_laplacian(stage2.solution.values, h), h)
    inner2 = tuple(slice(2, -2) for _ in range(spec.dim))
    residual = float(np.abs(composed - rhs.values[inner2]).max())
    return SolveReport(
        solution=stage2.solution,
        iterations=stage1.iterations + stage2.iterations,
        final_residual=residual,
        converged=stage1.converged and stage2.converged,
        stage_residuals=(stage1.final_residual, stage2.final_residual),
    )


def _interpolate(u: GridFunction, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation at arbitrary in-hull points, shape (m, dim)."""
    spec = u.spec
    n = spec.dim
    if any(e < 2 for e in spec.extents):
        raise ValueError("interpolation needs at least 2 nodes per axis")
    t = (points - np.asarray(spec.origin)) / spec.h
    upper = np.asarray(spec.extents) - 1
    if np.any(t < -1e-9) or np.any(t > upper + 1e-9):
        bad = points[np.argmax(np.any((t < -1e-9) | (t > upper + 1e-9), axis=1))]
        raise ValueError(f"point {tuple(bad)} is outside the grid")
    base = np.clip(np.floor(t).astype(int), 0, upper - 1)
    frac = t - base
    out = np.zeros(points.shape[0])
    for corner in np.ndindex(*([2] * n)):
        weight = np.ones(points.shape[0])
        for a in range(n):
            weight *= frac[:, a] if corner[a] else 1.0 - frac[:, a]
        idx = tuple(base[:, a] + corner[a] for a in range(n))
        out += weight * u.values[idx]
    return out


def _sphere_directions(dim: int, count: int) -> np.ndarray:
    if dim == 1:
        return np.array([[-1.0], [1.0]])
    if dim == 2:
        angles = 2.0 * math.pi * np.arange(count) / count
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if dim == 3:
        # Fibonacci lattice: near-uniform coverage without randomness.
        k = np.arange(count) + 0.5
        z = 1.0 - 2.0 * k / count
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        golden = math.pi * (3.0 - math.sqrt(5.0))
        phi = golden * k
        return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    rng = np.random.default_rng(12345)
    vecs = rng.standard_normal((count, dim))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def mean_value_check(
    u: GridFunction, center: Sequence[float], radius: float, num_points: int = 64
) -> float:
    """Deviation between the center value and the sphere average at ``radius``.

    Sphere samples are interpolated multilinearly; for discretely harmonic
    data the deviation is bounded by the interpolation error.
    """
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    if num_points < 1:
        raise ValueError("need at least one sphere point")
    center_arr = np.asarray(center, dtype=float).reshape(1, -1)
    if center_arr.shape[1] != u.spec.dim:
        raise ValueError("center dimension does not match the grid")
    directions = _sphere_directions(u.spec.dim, num_points)
    points = center_arr + radius * directions
    try:
        sphere_vals = _interpolate(u, points)
        center_val = _interpolate(u, center_arr)[0]
    except ValueError as exc:
        raise ValueError(f"sphere of radius {radius} exits the grid: {exc}") from None
    return float(abs(center_val - sphere_vals.mean()))


def max_principle_check(
    u: GridFunction, tol: float = 0.0
) -> tuple[bool, tuple[int, ...] | None]:
    """Check that both extrema are attained on the boundary ring (ties allowed).

    Returns ``(True, None)`` or ``(False, witness_node)`` with the witness an
    interior node whose value escapes the boundary range by more than ``tol``.
    """
    extents = u.spec.extents
    if any(e < 3 for e in extents):
        raise ValueError("max principle check needs a nonempty interior")
    boundary = _boundary_mask(extents)
    bvals = u.values[boundary]
    bmax = float(bvals.max())
    bmin = float(bvals.min())
    interior = tuple(slice(1, -1) for _ in extents)
    ivals = u.values[interior]
    if ivals.max() > bmax + tol:
        witness = np.unravel_index(int(np.argmax(ivals)), ivals.shape)
        return False, tuple(int(i) + 1 for i in witness)
    if ivals.min() < bmin - tol:
        witness = np.unravel_index(int(np.argmin(ivals)), ivals.shape)
        return False, tuple(int(i) + 1 for i in witness)
    return True, None


@dataclass(frozen=True)
class HarnackVerdict:
    """Outcome of the monotone-sequence limit check.

    ``finite_limit`` carries the margin-shrunk limit grid and its forward
    difference harmonicity residual; ``violation`` carries a witness
    ``(step, node)`` where monotonicity fails.
    """

    outcome: str  # finite_limit | divergent | violation
    deviations: tuple[float, ...]
    limit: GridFunction | None = None
    limit_residual: float | None = None
    witness: tuple | None = None


def harnack_limit(
    seq: Sequence[GridFunction], compact_margin: Margins, tol: float
) -> HarnackVerdict:
    """Classify a pointwise monotone sequence of grids on a compact sub-box.

    Monotonicity ``u_k <= u_{k+1}`` is required everywhere (else a violation
    with witness).  On the margin-shrunk sub-box the sequence is a finite
    limit when the last successive max-norm deviation falls below ``tol``,
    and divergent when the minimum of the last grid exceeds ``1/tol``; a
    monotone sequence still moving at ``tol`` but below the threshold is also
    reported divergent (not settled).
    """
    grids = list(seq)
    if len(grids) < 3:
        raise ValueError(f"need at least 3 grids, got {len(grids)}")
    spec = grids[0].spec
    if any(g.spec != spec for g in grids[1:]):
        raise ValueError("all grids must share one spec")
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    pairs = _normalize_margins(compact_margin, spec.dim)
    window = tuple(slice(lo, e - hi) for (lo, hi), e in zip(pairs, spec.extents))
    for k in range(len(grids) - 1):
        diff = grids[k + 1].values - grids[k].values
        if np.any(diff < 0.0):
            witness = np.unravel_index(int(np.argmin(diff)), diff.shape)
            return HarnackVerdict(
                outcome="violation",
                deviations=(),
                witness=(k, tuple(int(i) for i in witness)),
            )
    deviations = tuple(
        float(np.abs(grids[k + 1].values[window] - grids[k].values[window]).max())
        for k in range(len(grids) - 1)
    )
    last = grids[-1].values[window]
    if float(last.min()) > 1.0 / tol:
        return HarnackVerdict(outcome="divergent", deviations=deviations)
    if deviations[-1] <= tol:
        limit = shrink(grids[-1], compact_margin)
        residual = None
        if all(e >= 3 for e in limit.spec.extents):
            applied = laplace_stencil(spec.dim, spec.h).apply(limit)
            residual = float(np.abs(applied.values).max())
        return HarnackVerdict(
            outcome="finite_limit",
            deviations=deviations,
            limit=limit,
            limit_residual=residual,
        )
    return HarnackVerdict(outcome="divergent", deviations=deviations)


def _box_specs(
    origin: Sequence[float], lengths: Sequence[float], h_list: Sequence[float]
) -> list[GridSpec]:
    """The box ``origin + [0, length]`` per axis at each spacing, every one checked first.

    Lengths and spacings must be positive and finite, and no side may hold
    ``MAX_NODES`` nodes or more.
    """
    if not all(v > 0.0 and math.isfinite(v) for v in (*lengths, *h_list)):
        raise ValueError(
            f"lengths {list(lengths)} and spacings {list(h_list)} must be positive and finite"
        )
    specs = []
    for h in h_list:
        for length in lengths:
            if not length / h < MAX_NODES:  # inf when it overflows
                raise ValueError(
                    f"spacing {h} puts more than {MAX_NODES} nodes on a side of {length}"
                )
        specs.append(GridSpec(origin, h, tuple(round(length / h) + 1 for length in lengths)))
    return specs


def harmonicity_residual(
    expression: Union[CoeffExpr, str],
    origin: Sequence[float],
    lengths: Sequence[float],
    h_list: Sequence[float],
) -> tuple[list[tuple[float, float]], float | None]:
    """Sup-residual of the forward difference Laplace operator per spacing.

    Samples the expression on boxes ``origin + [0, length]`` per axis at each
    spacing, applies the unscaled forward operator, and fits the observed
    order (slope of log residual vs log h).  Returns ``(pairs, order)`` with
    ``order`` None when the residuals sit at roundoff (discretely exact).
    """
    origin = tuple(float(v) for v in origin)
    lengths = tuple(float(v) for v in lengths)
    if len(lengths) != len(origin):
        raise ValueError("origin and lengths must have one entry per axis")
    if not h_list:
        raise ValueError("h_list must not be empty")
    dim = len(origin)
    pairs: list[tuple[float, float]] = []
    floors: list[float] = []
    for spec in _box_specs(origin, lengths, h_list):
        h = spec.h
        u = sample(expression, spec)
        applied = laplace_stencil(dim, h).apply(u)
        res = float(np.abs(applied.values).max())
        pairs.append((float(h), res))
        floors.append(1e-13 * max(1.0, float(np.abs(u.values).max())))
    meaningful = [(h, r) for (h, r), fl in zip(pairs, floors) if r > fl]
    order: float | None = None
    if len(meaningful) >= 2:
        logs_h = np.log([h for h, _ in meaningful])
        logs_r = np.log([r for _, r in meaningful])
        order = float(np.polyfit(logs_h, logs_r, 1)[0])
    return pairs, order


@dataclass(frozen=True)
class ConvergenceRow:
    """One spacing of a convergence study.

    ``order`` is the observed order against the previous spacing; it is None
    on the first row and on ``exact`` rows, where both errors sit at the
    solver tolerance and no order can be observed.
    """

    h: float
    error: float
    order: float | None
    exact: bool
    converged: bool


def convergence_study(
    problem: str,
    reference: str,
    rhs: str | None,
    origin: Sequence[float],
    length: float,
    h_list: Sequence[float],
    tol: float = SOLVE_TOL,
    max_iter: int = SOLVE_MAX_ITER,
) -> list[ConvergenceRow]:
    """Per-spacing max-norm error of a Dirichlet solve against a reference expression.

    ``problem`` is ``laplace`` or ``poisson``; each spacing solves on the box
    ``origin + [0, length]`` per axis with the reference as boundary data.
    Non-convergence is reported, not raised: the study stops after the first
    spacing whose solve does not converge, and that row has ``converged``
    False.  Every grid is checked against the node limit before any solve.
    """
    if len(h_list) < 2:
        raise ValueError("convergence study needs at least 2 spacings")
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        raise ValueError("spacings must be strictly decreasing")
    ref = parse(reference)
    rhs_expr = parse(rhs) if rhs else None
    if problem == "poisson" and rhs_expr is None:
        raise ValueError("a poisson study needs --rhs")
    specs = _box_specs(origin, (length,) * len(origin), h_list)
    rows: list[ConvergenceRow] = []
    for spec in specs:
        h = spec.h
        g = sample(ref, spec)
        if problem == "laplace":
            report = solve_laplace_dirichlet(g, tol, max_iter)
        else:
            report = solve_poisson_dirichlet(sample(rhs_expr, spec), g, tol, max_iter)
        error = float(np.abs(report.solution.values - g.values).max())
        order, exact = None, False
        if rows:
            prev = rows[-1]
            if error == 0.0 or max(error, prev.error) <= 100.0 * tol:
                exact = True
            else:
                order = math.log(prev.error / error) / math.log(prev.h / h)
        rows.append(ConvergenceRow(h, error, order, exact, report.converged))
        if not report.converged:
            break
    return rows
