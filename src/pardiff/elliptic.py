"""Dirichlet solvers, fundamental-solution potentials, and harmonicity validators.

Boundary-value problems use the centered second-difference operator

    sum_a [u(x + h e_a) - 2 u(x) + u(x - h e_a)]

with a red-black SOR iteration (relaxation factor from the model-problem
optimum for the box).  Each color is swept as strided sublattices, and the
neighbour sums one half-sweep computes are reused for the residual and the
next half-sweep, since they read only the other color.  The forward-shifted
operator remains available through the stencil module for verification of
the difference equations themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .expr import CoeffExpr, parse
from .grid import GridFunction, GridSpec, Margins, _normalize_margins, sample, shrink
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
]


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

    Targets on the source lattice (the same spacing to 1e-12 relative, and
    an origin a whole number of cells from the source origin, to 1e-9 cells)
    see a translation-invariant kernel, so the sum is a zero-padded discrete
    convolution evaluated by FFT (Hockney's free-space method).  Any other
    targets take the direct pairwise sum.
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
        points = np.stack([m.reshape(-1) for m in targets.meshes()], axis=1)
        out = _direct_potential(fs, source, points, singular_subdivisions)
    return GridFunction(targets, out.reshape(targets.extents))


def _kernel_of_squared_distance(fs: FundamentalSolution, d2: np.ndarray) -> np.ndarray:
    """Kernel values from squared distances; entries with ``d2 == 0`` are not finite."""
    n = fs.dim
    with np.errstate(divide="ignore"):
        if n == 2:
            # log(r) = log(r^2) / 2, skipping the sqrt pass
            vals = np.log(d2)
            vals *= 1.0 / (4.0 * math.pi)
        else:
            vals = d2 ** ((2.0 - n) / 2.0)
            vals *= -1.0 / ((n - 2.0) * fs.unit_sphere_area)
    return vals


def _lattice_offset(source: GridSpec, targets: GridSpec) -> tuple[int, ...] | None:
    """Whole-cell offset of the target origin from the source origin, or None off-lattice."""
    h = source.h
    if not math.isclose(targets.h, h, rel_tol=1e-12):
        return None
    cells = [(t - s) / h for t, s in zip(targets.origin, source.origin)]
    offset = tuple(round(c) for c in cells)
    if any(abs(c - k) > 1e-9 for c, k in zip(cells, offset)):
        return None
    return offset


def _hockney_potential(
    fs: FundamentalSolution,
    source: GridFunction,
    target_extents: Sequence[int],
    offset: Sequence[int],
    singular_subdivisions: int,
) -> np.ndarray:
    """The lattice sum for targets ``offset`` cells from the source origin, by FFT.

    Target node t sees source node s at displacement ``offset + t - s``, so
    the sum is a linear convolution of the source with the kernel tabulated
    on displacements ``offset - (Ns-1) ... offset + Nt - 1`` per axis.  A
    cyclic convolution of length ``Ns + Nt - 1`` wraps around only below
    index ``Ns - 1``, outside the window read back.
    """
    n = fs.dim
    h = source.spec.h
    src_extents = source.spec.extents
    shape = tuple(s + t - 1 for s, t in zip(src_extents, target_extents))
    displacements = np.ix_(
        *(h * np.arange(o - s + 1, o + t) for o, s, t in zip(offset, src_extents, target_extents))
    )
    table = _kernel_of_squared_distance(fs, sum(d * d for d in displacements))
    zero = tuple(s - 1 - o for o, s in zip(offset, src_extents))
    if all(0 <= z < length for z, length in zip(zero, shape)):
        table[zero] = fs.cell_average(h, singular_subdivisions)
    axes = tuple(range(n))
    spectrum = np.fft.rfftn(table, shape, axes=axes)
    spectrum *= np.fft.rfftn(source.values, shape, axes=axes)
    full = np.fft.irfftn(spectrum, shape, axes=axes)
    window = tuple(slice(s - 1, s - 1 + t) for s, t in zip(src_extents, target_extents))
    return h**n * full[window]


def _direct_potential(
    fs: FundamentalSolution,
    source: GridFunction,
    points: np.ndarray,
    singular_subdivisions: int,
) -> np.ndarray:
    """The lattice sum at arbitrary target points, shape (m, n), pair by pair."""
    n = fs.dim
    h = source.spec.h
    keep = source.values != 0.0
    src_points = np.stack([m[keep] for m in source.spec.meshes()], axis=1)
    weights = source.values[keep]
    out = np.zeros(points.shape[0])
    self_value = fs.cell_average(h, singular_subdivisions)
    near_sq = (1e-9 * h) ** 2
    # About 2 MB per (block x sources) temporary, so each fits one core's L2 cache.
    chunk = max(1, int(250_000 // max(1, src_points.shape[0])))
    for start in range(0, points.shape[0], chunk):
        block = points[start : start + chunk]
        diff = block[:, 0, None] - src_points[None, :, 0]
        d2 = diff * diff
        for a in range(1, n):
            diff = block[:, a, None] - src_points[None, :, a]
            d2 += diff * diff
        vals = _kernel_of_squared_distance(fs, d2)
        vals[d2 <= near_sq] = self_value
        out[start : start + chunk] = h**n * (vals @ weights)
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
    mask = np.zeros(tuple(extents), dtype=bool)
    for a in range(len(extents)):
        edge = [slice(None)] * len(extents)
        edge[a] = 0
        mask[tuple(edge)] = True
        edge[a] = extents[a] - 1
        mask[tuple(edge)] = True
    return mask


def _neighbor_sum(u: np.ndarray) -> np.ndarray:
    n = u.ndim
    s = np.zeros(tuple(e - 2 for e in u.shape))
    for a in range(n):
        up = [slice(1, -1)] * n
        dn = [slice(1, -1)] * n
        up[a] = slice(2, None)
        dn[a] = slice(None, -2)
        s += u[tuple(up)] + u[tuple(dn)]
    return s


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

    An interior node is red when the sum of its interior indices is even,
    and each color is swept as strided sublattices, one per index parity.
    Every neighbour of a node has the other color, so two half-grid
    neighbour sums per iteration serve everything: black's serve the black
    relaxation and the black residual, red's, taken after the black
    relaxation, serve the red residual and the next red relaxation.
    """
    spec = boundary.spec
    n = spec.dim
    if any(e < 3 for e in spec.extents):
        raise ValueError("solver needs at least 3 nodes per axis")
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    h = spec.h
    u = boundary.values.copy()
    interior = tuple(slice(1, -1) for _ in range(n))
    b_int = (
        np.zeros(tuple(e - 2 for e in spec.extents))
        if rhs_values is None
        else (h * h) * rhs_values[interior]
    )
    length = max((e - 1) * h for e in spec.extents)
    omega = 2.0 / (1.0 + math.sin(math.pi * h / length))
    # 0-d arrays: numpy combines them with arrays faster than Python floats
    two_n, w, keep = np.array(2.0 * n), np.array(omega), np.array(1.0 - omega)
    res = np.empty_like(b_int)
    red, black = _color_sublattices(u, b_int, res)
    for sub in red:
        sub.neighbor_sum()

    iterations = 0
    best = math.inf
    for iterations in range(1, max_iter + 1):
        for sub in red:
            sub.relax(two_n, w, keep)
        for sub in black:
            sub.neighbor_sum()
            sub.relax(two_n, w, keep)
        for sub in red:
            sub.neighbor_sum()
        for sub in red + black:
            sub.residual(two_n)
        best = float(np.abs(res, out=res).max()) * residual_scale
        if best <= tol:
            break
    return SolveReport(
        solution=GridFunction(spec, u),
        iterations=iterations,
        final_residual=best,
        converged=best <= tol,
    )


_ZERO = np.array(0.0)


class _Sublattice:
    """The interior nodes ``1 + p + 2k`` of one index parity ``p``, as strided views.

    ``u``, its 2n neighbour views and its slice of the residual are views
    taken once.  The rows of ``buffers`` hold contiguous copies of its slice
    of the scaled right-hand side ``b``, its neighbour sum ``ns`` and scratch
    space.  Every step works elementwise in the order of the full-grid
    formulas (``_neighbor_sum``, ``(ns - b) / 2n``, ``(1 - omega) u + omega
    target``, ``ns - 2n u - b``), so the iterates are bit-for-bit those of a
    full-grid sweep that updates one color through a boolean mask.
    """

    def __init__(
        self,
        u: np.ndarray,
        b_int: np.ndarray,
        res: np.ndarray,
        parity: Sequence[int],
        buffers: np.ndarray,
    ):
        own = [slice(1 + p, e - 1, 2) for p, e in zip(parity, u.shape)]
        self.u = u[tuple(own)]
        self.pairs = []
        for a, (p, e) in enumerate(zip(parity, u.shape)):
            up, dn = list(own), list(own)
            up[a] = slice(2 + p, e, 2)
            dn[a] = slice(p, e - 2, 2)
            self.pairs.append((u[tuple(up)], u[tuple(dn)]))
        inner = tuple(slice(p, None, 2) for p in parity)
        self.res = res[inner]
        self.b, self.ns, self.tmp = (row[: self.u.size].reshape(self.u.shape) for row in buffers)
        self.b[...] = b_int[inner]

    def neighbor_sum(self) -> None:
        (up, dn), *rest = self.pairs
        np.add(up, dn, out=self.ns)
        # 0 + x, as when summing into zeros: turns a -0.0 sum into +0.0
        self.ns += _ZERO
        for up, dn in rest:
            np.add(up, dn, out=self.tmp)
            self.ns += self.tmp

    def relax(self, two_n: np.ndarray, omega: np.ndarray, keep: np.ndarray) -> None:
        """``u = keep u + omega (ns - b) / 2n``, with ``keep = 1 - omega``."""
        t = np.subtract(self.ns, self.b, out=self.tmp)
        t /= two_n
        t *= omega
        self.u *= keep
        self.u += t

    def residual(self, two_n: np.ndarray) -> None:
        r = np.multiply(self.u, two_n, out=self.res)
        np.subtract(self.ns, r, out=r)
        r -= self.b


def _color_sublattices(
    u: np.ndarray, b_int: np.ndarray, res: np.ndarray
) -> tuple[list[_Sublattice], list[_Sublattice]]:
    """The nonempty sublattices of the red and of the black interior nodes."""
    colors: tuple[list[_Sublattice], list[_Sublattice]] = ([], [])
    # One allocation for all sublattices: an array per sublattice (about
    # 128 KiB each at 257^2) fragmented the heap, and peak memory rose by
    # about 1 MiB over a minute of repeated solves.
    buffers = np.empty((3, res.size))
    start = 0
    for parity in np.ndindex(*([2] * u.ndim)):
        sub = _Sublattice(u, b_int, res, parity, buffers[:, start:])
        start += sub.u.size
        if sub.u.size:
            colors[sum(parity) % 2].append(sub)
    return colors


def solve_laplace_dirichlet(
    boundary: GridFunction, tol: float = 1e-10, max_iter: int = 100_000
) -> SolveReport:
    """Solve the centered discrete Laplace equation with the given Dirichlet ring.

    The residual is the max norm of the unscaled centered sum over the
    interior.  Non-convergence is reported, not raised.
    """
    return _sor_dirichlet(boundary, None, tol, max_iter, 1.0)


def solve_poisson_dirichlet(
    f: GridFunction, boundary: GridFunction, tol: float = 1e-10, max_iter: int = 100_000
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
    interior = tuple(slice(1, -1) for _ in range(n))
    return (_neighbor_sum(values) - 2.0 * n * values[interior]) / (h * h)


def solve_biharmonic(
    rhs: GridFunction,
    boundary: GridFunction,
    laplacian_boundary: GridFunction,
    tol: float = 1e-10,
    max_iter: int = 100_000,
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
    for h in h_list:
        extents = tuple(int(round(length / h)) + 1 for length in lengths)
        spec = GridSpec(origin, h, extents)
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
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> list[ConvergenceRow]:
    """Per-spacing max-norm error of a Dirichlet solve against a reference expression.

    ``problem`` is ``laplace`` or ``poisson``; each spacing solves on the box
    ``origin + [0, length]`` per axis with the reference as boundary data.
    Non-convergence is reported, not raised: the study stops after the first
    spacing whose solve does not converge, and that row has ``converged``
    False.
    """
    if len(h_list) < 2:
        raise ValueError("convergence study needs at least 2 spacings")
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        raise ValueError("spacings must be strictly decreasing")
    ref = parse(reference)
    rhs_expr = parse(rhs) if rhs else None
    if problem == "poisson" and rhs_expr is None:
        raise ValueError("a poisson study needs --rhs")
    rows: list[ConvergenceRow] = []
    for h in h_list:
        h = float(h)
        extents = tuple(int(round(length / h)) + 1 for _ in origin)
        spec = GridSpec(origin, h, extents)
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
