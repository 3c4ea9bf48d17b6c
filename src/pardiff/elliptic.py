"""Dirichlet solvers, fundamental-solution potentials, and harmonicity validators.

Boundary-value problems use the centered second-difference operator

    sum_a [u(x + h e_a) - 2 u(x) + u(x - h e_a)]

with a red-black SOR iteration (relaxation factor from the model-problem
optimum for the box).  The grid is padded to odd strides and split into its
even and odd flat indices, so each color and each of its neighbour shifts is
one contiguous slice of one half, and the neighbour sums one half-sweep
computes are reused for the residual and the next half-sweep, since they
read only the other color.  The convergence check takes the full residual
only when a window of it is already at or below the tolerance, and a
periodic magnitude check proves that no skipped residual could have
overflowed, so iterates, iteration counts and final residuals are those of a
full check on every iteration.  A sweep that overflows on an interior node
raises ``OverflowError``.  The forward-shifted operator remains available
through the stencil module for verification of the difference equations
themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence, Union

import numpy as np

from .expr import CoeffExpr, _first_failing, parse
from .grid import (
    MAX_NODES, GridFunction, GridSpec, Margins, _check_length, _check_tolerance,
    _lattice_offset, _normalize_margins, _scale_factor, _valid_convolve, sample, shrink,
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
    ``s_n`` the unit sphere area, which is derived from ``dim`` and cannot be
    given.  Every value comes from :func:`_kernel_of_squared_distance`.
    """

    dim: int
    unit_sphere_area: float = field(init=False)

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"fundamental solutions need dimension >= 2, got {self.dim}")
        object.__setattr__(self, "unit_sphere_area", sphere_area(self.dim))

    def radial(self, r: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Kernel value at distance ``r > 0`` from the source."""
        return _kernel_of_offsets(self, (np.asarray(r, dtype=float),))

    def evaluate(self, x: Sequence[float]) -> float:
        point = tuple(float(v) for v in x)
        if len(point) != self.dim or not all(map(math.isfinite, point)):
            raise ValueError(f"point must have {self.dim} finite coordinates, got {point}")
        if not any(point):
            raise ValueError(
                "fundamental solution is singular at the origin; use cell_average"
            )
        # fsum is exactly rounded, so the value is invariant under coordinate
        # permutations and sign flips, not merely close.
        return float(_kernel_of_offsets(self, point, math.fsum))

    def cell_average(self, h: float, subdivisions: int = 8) -> float:
        """Average over the h-cell centered at the singularity, by midpoint subcells."""
        _check_length(h, "cell size")
        if subdivisions < 2:
            raise ValueError("cell averaging needs at least 2 subdivisions per axis")
        offsets = -h / 2.0 + (np.arange(subdivisions) + 0.5) * (h / subdivisions)
        meshes = np.meshgrid(*([offsets] * self.dim), indexing="ij")
        return float(np.mean(_kernel_of_offsets(self, meshes)))


def newtonian_potential(
    fs: FundamentalSolution, source: GridFunction, targets: GridSpec
) -> GridFunction:
    """Volume potential of a compactly supported source.

    ``u(x) = h^n * sum_y K(x - y) f(y)`` where the self cell (target on a
    source node) contributes ``fs.cell_average(h)``, the kernel's average
    over that cell, instead of the singular point value.  The source must
    vanish on its grid boundary layer; an all-zero source gives exact zeros.

    :func:`_potential_plan` is the one place the path is chosen: Hockney's
    lattice FFT, the plane expansion or the direct sum.
    """
    if not source.spec.dim == targets.dim == fs.dim:
        raise ValueError("source and target dimensions must match the kernel dimension")
    supported = ~_boundary_mask(source.spec.extents) | (source.values == 0.0)
    if not supported.all():
        raise ValueError(
            f"source is not compactly supported: nonzero boundary value at node "
            f"{_first_failing(supported)}"
        )
    plan = _potential_plan(source, targets)
    path = dict(fft=_hockney_potential, expansion=_multipole_potential, direct=_direct_potential)
    out = path[plan.path](fs, source, targets, plan)
    out *= plan.scale
    return GridFunction(targets, out.reshape(targets.extents))


@dataclass(frozen=True)
class _PotentialPlan:
    """The path that sums one potential and the inputs it reads, from :func:`_potential_plan`."""

    path: str
    scale: float
    offset: tuple[int, ...] | None = None
    coords: tuple[np.ndarray, ...] = ()
    weights: np.ndarray | None = None
    centre: complex = 0j
    radius: float = 0.0
    scaled: np.ndarray | None = None
    terms: int = 0


def _potential_plan(source: GridFunction, targets: GridSpec) -> _PotentialPlan:
    """The path of :func:`newtonian_potential` and the inputs it reads.

    ``scale``, ``h^n``, is taken first, so its overflow raises before any
    path runs.  Targets on the source lattice (``grid._lattice_offset``) see
    a translation-invariant kernel, so the sum is a zero-padded discrete
    convolution evaluated by FFT (Hockney's free-space method) at their
    whole-cell ``offset``.  Off the lattice, the nonzero sources' per-axis
    ``coords`` and ``weights`` are taken once.  Plane targets that are all
    far from the sources take a multipole expansion about ``c``
    (``centre``), the centre of the nonzero nodes' bounding box, with ``R``
    (``radius``) their largest distance from it.  The targets are far when
    every target node is at least ``max(2R, h)`` from ``c``.  Then
    ``rho = R / min|t - c|`` is at most 1/2, and every target is at least
    ``h/2`` from every source (two nonzero nodes give ``R >= h/2``), so no
    self cell arises.  The ``scaled`` offsets ``(s - c) / R``, as complex
    numbers ``x1 + i x2``, are taken as 0 when ``R = 0``, and p (``terms``)
    is the smallest term count for which ``rho^(p+1) / (1 - rho) <= 2^-53``:
    at most 53, plus ``M_0``.  Any other targets take the direct sum over
    (target, source) pairs.
    """
    spec = source.spec
    scale = _scale_factor(spec.h, spec.dim)
    offset = _lattice_offset(spec, targets)
    if offset is not None:
        return _PotentialPlan("fft", scale, offset)
    keep = source.values != 0.0
    coords = tuple(spec.axis_coords(a)[i] for a, i in enumerate(np.nonzero(keep)))
    direct = _PotentialPlan("direct", scale, coords=coords, weights=source.values[keep])
    if spec.dim != 2 or not keep.any():
        return direct
    mid = [0.5 * (x.min() + x.max()) for x in coords]
    from_centre = np.empty(len(coords[0]), complex)
    from_centre.real = coords[0] - mid[0]
    from_centre.imag = coords[1] - mid[1]
    radius = float(np.abs(from_centre).max())
    # the target node nearest to c is the nearest one on each axis
    nearest = math.hypot(*(np.abs(targets.axis_coords(a) - m).min() for a, m in enumerate(mid)))
    if nearest < max(2.0 * radius, spec.h):
        return direct
    rho = radius / nearest
    terms = 0
    while rho ** (terms + 1) > 2.0**-53 * (1.0 - rho):
        terms += 1
    return replace(direct, path="expansion", centre=complex(*mid), radius=radius,
                   scaled=from_centre / radius if radius else from_centre, terms=terms)


def _kernel_of_squared_distance(
    fs: FundamentalSolution, d2: np.ndarray, out: np.ndarray | None = None, k=0
) -> np.ndarray:
    """Kernel values at the distances ``2^k sqrt(d2)``; entries with ``d2 == 0`` are not finite.

    ``k`` (ints, or an array of them) adds ``k log(2) / 2 pi`` in the plane and
    multiplies by ``2^(k (2 - n))`` otherwise.  The values go to ``out`` when
    given (``out=d2`` overwrites the distances).
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
    if np.any(k):
        ufunc, arg = (np.add, k * (math.log(2.0) / math.tau)) if n == 2 else (np.ldexp, k * (2 - n))
        vals = ufunc(vals, arg, out=out)
    return vals


def _kernel_of_offsets(fs: FundamentalSolution, offsets: Sequence, total: Callable = sum):
    """Kernel values at the per-axis ``offsets`` (arrays of one shape, or floats) from the source.

    The squared distance is ``total`` of the squared offsets.  Where it is not
    a normal float, the offsets are first divided by ``2^k``, with ``k`` the
    binary exponent of the largest one, and the kernel is taken with that
    ``k``.  Every other entry has ``k = 0``, so it is the kernel of the
    unscaled squared distance, bit for bit.  A kernel past the float range is
    infinite, with no warning.
    """
    with np.errstate(over="ignore", under="ignore"):
        try:
            d2 = total(np.square(o) for o in offsets)
        except OverflowError:  # math.fsum of finite squares whose sum overflows
            d2 = math.inf
        normal = (d2 >= np.finfo(float).tiny) & (d2 < math.inf)
        k = np.where(normal, 0, np.frexp(np.max(np.abs(offsets), axis=0))[1])
        d2 = total(np.square(np.ldexp(o, -k)) for o in offsets)
        return _kernel_of_squared_distance(fs, d2, k=k)


def _squared_tables(differences: Sequence[np.ndarray]):
    """The per-axis ``differences`` squared and their scale ``k``.

    When the sum of the squares' maxima passes the float range, each difference
    is first divided by ``2^k``, with ``2^(k+500)`` above the largest; else
    ``k = 0``.
    """
    with np.errstate(over="ignore"):
        tables = [np.square(d) for d in differences]
    k = 0
    if sum(float(t.max(initial=0.0)) for t in tables) == math.inf:
        k = math.frexp(max(float(np.abs(d).max()) for d in differences))[1] - 500
        tables = [np.square(np.ldexp(d, -k)) for d in differences]
    return tables, k


def _hockney_potential(
    fs: FundamentalSolution, source: GridFunction, targets: GridSpec, plan: _PotentialPlan
) -> np.ndarray:
    """The lattice sum less ``h^n`` for targets ``offset`` cells from the source origin, by FFT.

    Target node t sees source node s at displacement ``offset + t - s``, so
    the sum is the valid convolution of the source with the kernel tabulated
    on displacements ``offset - (Ns-1) ... offset + Nt - 1`` per axis; that
    table's extent ``Ns + Nt - 1`` is never below the source's ``Ns``.  The
    kernel is built in the sum of the direct sum's squares (:func:`_squared_tables`).
    Its self cell is where every axis's square is 0: the zero displacement
    ``Ns - 1 - offset`` when the table holds it, a box where ``h^2`` underflows.
    """
    axes = zip(plan.offset, source.spec.extents, targets.extents)
    displacements = [source.spec.h * (float(o) + np.arange(1 - s, t)) for o, s, t in axes]
    tables, k = _squared_tables(displacements)
    d2 = sum(np.ix_(*tables))
    table = _kernel_of_squared_distance(fs, d2, out=d2, k=k)
    table[np.ix_(*(t == 0.0 for t in tables))] = fs.cell_average(source.spec.h)
    return _valid_convolve(table, source.values)


def _multipole_potential(
    fs: FundamentalSolution, source: GridFunction, targets: GridSpec, plan: _PotentialPlan
) -> np.ndarray:
    """The plane lattice sum less ``h^2`` at far targets, by an expansion about ``plan.centre``.

    With points as complex numbers and ``|s - c| < |t - c|``,
    ``log(t - s) = log(t - c) - sum_k ((s - c) / (t - c))^k / k``, so the sum is
    ``1 / 2 pi * Re[M_0 log(t - c) - sum_{k=1..p} M_k (R / (t - c))^k]`` with
    ``M_k = sum_s f_s ((s - c) / R)^k / k`` (Greengard & Rokhlin, J. Comput.
    Phys. 1987): every power is at most 1 in magnitude.  The series is summed
    by Horner's rule in ``R / (t - c)``, one pass over the targets per term,
    and the ``p`` terms of :func:`_potential_plan` leave a tail of at most
    ``2^-53 sum|f|``.  High powers that underflow for distant targets are
    benign.
    """
    with np.errstate(under="ignore"):
        moments = []
        power = plan.weights.astype(complex)
        for k in range(1, plan.terms + 1):
            power *= plan.scaled
            moments.append(power.sum() / k)
        z = np.empty(targets.extents, complex)
        z.real = (targets.axis_coords(0) - plan.centre.real)[:, None]
        z.imag = targets.axis_coords(1) - plan.centre.imag
        ratio = plan.radius / z
        series = np.zeros(targets.extents, complex)
        for moment in reversed(moments):
            series += moment
            series *= ratio
        return (1.0 / (2.0 * math.pi)) * (plan.weights.sum() * np.log(np.abs(z)) - series.real)


def _direct_potential(
    fs: FundamentalSolution, source: GridFunction, targets: GridSpec, plan: _PotentialPlan
) -> np.ndarray:
    """The lattice sum less ``h^n`` on the nodes of ``targets``, shape (leading, last nodes).

    Both grids are tensor grids, so the squared distance from target node
    ``(i_0, i_1, ...)`` to nonzero source node ``s`` is
    ``T_0[i_0, s] + T_1[i_1, s] + ...`` with ``T_a = (target_a - source_a)^2``,
    summed in axis order.  A block is a run of ``step`` flattened leading
    multi-indices (every axis but the last) times a run of ``run`` last-axis
    indices.  Each run of leading rows gathers its leading sum from the tables
    once; a block's distances are then one broadcast add of that sum and the
    last axis's table into a reused buffer, on which the kernel is taken in
    place.  A pair within ``1e-9 h`` is a self cell; that test runs only when
    the leading sum holds a near entry, since no sum of squares is below its
    leading terms.  The tables come from :func:`_squared_tables`, scaled when
    the distances' squares pass the float range.
    """
    h = source.spec.h
    self_value = fs.cell_average(h)
    count = plan.weights.size
    differences = [targets.axis_coords(a)[:, None] - c for a, c in enumerate(plan.coords)]
    tables, k = _squared_tables(differences)
    near_sq = _scale_factor(math.ldexp(1e-9 * h, -k), 2)
    *leading, last = targets.extents
    # About 2 MB per (block x sources) temporary, so each fits one core's L2 cache.
    chunk = max(1, 250_000 // max(1, count))
    step, run = max(1, chunk // last), min(last, chunk)
    buf = np.empty(step * run * count)
    out = np.empty((math.prod(leading), last))
    for lo in range(0, len(out), step):
        index = np.unravel_index(np.arange(lo, min(lo + step, len(out))), leading)
        head = tables[0][index[0]]
        for table, i in zip(tables[1:-1], index[1:]):
            head += table[i]
        gate = np.any(head <= near_sq)
        for col in range(0, last, run):
            cols = tables[-1][col : col + run]
            block = (len(head), len(cols))
            d2 = buf[: math.prod(block) * count].reshape(*block, count)
            np.add(head[:, None], cols, out=d2)
            near = d2 <= near_sq if gate else None
            vals = _kernel_of_squared_distance(fs, d2, out=d2, k=k)
            if near is not None:
                vals[near] = self_value
            sums = vals.reshape(math.prod(block), count) @ plan.weights
            out[lo : lo + block[0], col : col + block[1]] = sums.reshape(block)
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
    boundary: GridFunction, rhs: GridFunction | None, tol: float, max_iter: int
) -> SolveReport:
    """Red-black SOR for the centered operator with Dirichlet data.

    The boundary ring of ``boundary`` is held fixed; its interior is the
    initial guess.  The relaxation factor is the model-problem optimum
    ``2 / (1 + sin(pi h / L))`` with L the longest box side.

    ``rhs`` is the Poisson right-hand side, on the grid of ``boundary``, or
    None for Laplace.  The residual is the max norm of the unscaled centered
    sum over the interior, times ``h^(-2)`` for Poisson, so that it is
    measured against the scaled operator; an ``h^2`` or ``h^(-2)`` that
    overflows raises ``OverflowError`` before any sweep.

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

    Each iteration relaxes red, sums and relaxes black, sums red and then
    checks convergence.  The relaxation divides by 2n, or multiplies by
    ``1 / 2n`` when 2n is a power of two (dimensions 1, 2, 4 and 8): both
    round the same real number, so they give the same bits.  The check
    first takes the residual on a window of black
    (:meth:`_Color.window_residual`).  Its entries are entries of the full
    residual, so its maximum is a lower bound of the full one; when that
    bound times the scale is above ``tol`` the iteration cannot converge and
    the full residual of both colors is skipped.  It is taken on every
    iteration the window does not rule out, and always on iteration
    ``max_iter``, so ``iterations``, ``final_residual`` and ``converged``
    are those of a full check on every iteration.  The skip decision sits in
    one place, where a caller that needs the full residual on some
    iterations can force it.

    A skip must not hide a residual that is not finite, so it is allowed
    only while a certificate holds.  At iterations 1, 1 + K, 1 + 2K, ...
    (K = ``_GUARD_SWEEPS`` = 32) every entry of both halves, ring and pad
    included, is checked to be at most T = ``_GUARD_BOUND`` = 2^800 in
    magnitude, and every entry of ``b = h^2 f`` once.  Over the K
    iterations that follow, no value can then overflow.  With m the largest
    ``|u|`` before a relaxation, B = max ``|b|``, ``|ns| <= 2n m`` and
    ``1 <= omega < 2``, one relaxation gives ``|(1 - omega) u + omega (ns -
    b) / 2n| <= m + 2 (m + B / 2n) <= 3 m + B``, up to a rounding factor of
    at most ``(1 + 2^-53)^(2n + 6)``.  K iterations are 2K = 64 relaxations,
    so every ``|u|`` stays below ``3^64 (T + T)`` times a rounding factor
    under 1.001, which is below ``2^102 2^801 1.001 < 2^904``: n is at most
    15, since every axis has at least 3 nodes and a grid at most 2^24 <
    3^16.  A neighbour sum and ``2n u`` then stay below ``30 2^904``, and a
    residual entry below ``2^911``, far from the largest double (about
    2^1024).  A failed check, a NaN, or a ``b`` past T takes the full
    residual on every iteration until a later check passes.
    """
    spec = boundary.spec
    h = spec.h
    residual_scale = 1.0
    if rhs is not None:
        if rhs.spec != spec:
            raise ValueError("right-hand side and boundary data must share one grid")
        _scale_factor(h, 2), _scale_factor(h, -2)  # taken as h * h below, for their bits
        residual_scale = 1.0 / (h * h)
    extents = spec.extents
    n = spec.dim
    if any(e < 3 for e in extents):
        raise ValueError("solver needs at least 3 nodes per axis")
    _check_tolerance(tol)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    grid = tuple(slice(0, e) for e in extents)
    interior = tuple(slice(1, e - 1) for e in extents)
    u = np.zeros(extents[:1] + tuple(e | 1 for e in extents[1:]))
    u[grid] = boundary.values
    b = None
    if rhs is not None:
        b = np.zeros_like(u)
        b[interior] = (h * h) * rhs.values[interior]
        b = b.reshape(-1)
    inside = np.zeros(u.shape, dtype=bool)
    inside[interior] = True
    flat = u.reshape(-1)
    halves = (_aligned_copy(flat[0::2]), _aligned_copy(flat[1::2]))
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
    # x / 2n and x * (1 / 2n) round the same real number when 2n is a power of two
    if math.frexp(2.0 * n)[0] == 0.5:
        scale = (np.multiply, np.array(1.0 / (2.0 * n)))
    else:
        scale = (np.divide, two_n)
    small_rhs = b is None or _magnitude_at_most((b,), _GUARD_BOUND)

    iterations = 0
    residual = math.inf
    certified = False
    with np.errstate(over="ignore", invalid="ignore"):
        red.neighbor_sum()
        for iterations in range(1, max_iter + 1):
            if (iterations - 1) % _GUARD_SWEEPS == 0:
                certified = small_rhs and _magnitude_at_most(halves, _GUARD_BOUND)
            red.relax(scale, w, keep)
            black.neighbor_sum()
            black.relax(scale, w, keep)
            red.neighbor_sum()
            # The only place that skips the full residual: a caller that needs
            # it on some iterations forces it here.
            if (
                certified
                and iterations < max_iter
                and black.window_residual(two_n) * residual_scale > tol
            ):
                continue
            largest = (red.residual(two_n), black.residual(two_n))
            if not all(map(math.isfinite, largest)):
                raise OverflowError(f"SOR sweep overflows at iteration {iterations}")
            residual = max(largest) * residual_scale
            if residual <= tol:
                break
    flat[0::2], flat[1::2] = halves
    return SolveReport(
        solution=GridFunction(spec, u[grid]),
        iterations=iterations,
        final_residual=residual,
        converged=residual <= tol,
    )


_ZERO = np.array(0.0)

# Sweeps between two checks of the overflow certificate, and the magnitude
# bound the check asks of every entry; see _sor_dirichlet.
_GUARD_SWEEPS = 32
_GUARD_BOUND = 2.0**800

# Smallest window of a color whose residual screens the full residual, and the
# share of the color's nodes it covers when that is more.
_WINDOW_NODES = 256
_WINDOW_SHARE = 16


def _magnitude_at_most(arrays: Sequence[np.ndarray], bound: float) -> bool:
    """Whether no entry of ``arrays`` exceeds ``bound`` in magnitude; False on a NaN.

    Plain max and min reductions, so no BLAS call and no temporary array.
    """
    return all(-bound <= a.min() and a.max() <= bound for a in arrays)


# Byte boundary every working array of the sweep starts on.  Its vector loops
# run about a fifth slower when an array starts off a 64-byte cache line, and
# where malloc puts an array depends on what the process allocated before, so
# without it one solve's time varies from process to process.
_ALIGN = 64


def _aligned_empty(count: int) -> np.ndarray:
    """An uninitialised float array of ``count`` entries that starts on an ``_ALIGN``-byte boundary."""
    raw = np.empty(count + _ALIGN // 8)
    skip = -raw.ctypes.data % _ALIGN // 8
    return raw[skip : skip + count]


def _aligned_copy(a: np.ndarray) -> np.ndarray:
    """The entries of the 1-D float array ``a`` in an array from :func:`_aligned_empty`."""
    out = _aligned_empty(a.size)
    out[...] = a
    return out


class _Color:
    """The nodes of one color from node (1, ..., 1) to the last interior node.

    ``halves`` holds the even and the odd flat indices of the padded grid as
    two contiguous arrays.  Every stride is odd, so flat index ``j`` is entry
    ``j // 2`` of half ``j % 2``, and the color's nodes (flat indices ``start,
    start + 2, ...`` below ``stop``) are one contiguous slice ``u`` of one
    half; their neighbours along an axis, shifted by that axis's stride, are
    one contiguous slice of the other half.  ``b`` (the scaled right-hand
    side, None for Laplace, where it is zero) is a contiguous copy of the same
    nodes; ``ns`` holds the neighbour sum and ``tmp`` scratch space.  The
    halves, ``b``, ``ns`` and ``tmp`` each start on an ``_ALIGN``-byte
    boundary.

    Every step works elementwise in the order of the full-grid formulas (``0 +
    (up + dn)`` axis by axis, ``(ns - b) / 2n``, ``(1 - omega) u + omega
    target``, ``ns - 2n u - b``), so the iterates are bit-for-bit those of a
    full-grid sweep that updates one color through a boolean mask.  Skipping
    a zero ``b`` changes no bit, since ``x - 0.0`` is ``x``.  The slice also
    covers ring and pad nodes: ``relax`` updates them with the rest and then
    writes their saved values back through the index array ``outside``, and
    ``residual`` zeroes their entries before taking the maximum.

    ``window`` is the contiguous middle run of about a sixteenth of the
    color's nodes, and at least ``_WINDOW_NODES`` of them (all, on a small
    grid); ``window_outside`` indexes its ring and pad entries.
    :meth:`window_residual` computes the entries of :meth:`residual` on it
    alone, with the same elementwise formula, so its maximum is never above
    the full one.
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
        self.b = None if b is None else _aligned_copy(b[span])
        self.outside = np.flatnonzero(~inside[span])
        self.fixed = self.u[self.outside]
        self.ns = _aligned_empty(count)
        self.tmp = _aligned_empty(count)
        size = min(count, max(_WINDOW_NODES, count // _WINDOW_SHARE))
        lo = (count - size) // 2
        self.window = slice(lo, lo + size)
        self.window_outside = self.outside[(self.outside >= lo) & (self.outside < lo + size)] - lo

    def neighbor_sum(self) -> None:
        (up, dn), *rest = self.pairs
        np.add(up, dn, out=self.ns)
        # 0 + x, as when summing into zeros: turns a -0.0 sum into +0.0
        self.ns += _ZERO
        for up, dn in rest:
            np.add(up, dn, out=self.tmp)
            self.ns += self.tmp

    def relax(
        self, scale: tuple[Callable, np.ndarray], omega: np.ndarray, keep: np.ndarray
    ) -> None:
        """``u = keep u + omega (ns - b) / 2n`` on the interior, with ``keep = 1 - omega``.

        ``scale`` is ``(np.divide, 2n)``, or ``(np.multiply, 1 / 2n)`` when
        that gives the same bits.
        """
        op, factor = scale
        t = self.ns if self.b is None else np.subtract(self.ns, self.b, out=self.tmp)
        t = op(t, factor, out=self.tmp)
        t *= omega
        self.u *= keep
        self.u += t
        self.u[self.outside] = self.fixed

    def residual(self, two_n: np.ndarray) -> float:
        """The largest ``|ns - 2n u - b|`` over the interior nodes of this color."""
        return self._largest_residual(two_n, slice(None), self.outside)

    def window_residual(self, two_n: np.ndarray) -> float:
        """The largest ``|ns - 2n u - b|`` over the interior nodes of ``window``.

        Each entry is the one :meth:`residual` computes, so this is never
        above it.
        """
        return self._largest_residual(two_n, self.window, self.window_outside)

    def _largest_residual(self, two_n: np.ndarray, nodes: slice, outside: np.ndarray) -> float:
        u = self.u[nodes]
        r = np.multiply(u, two_n, out=self.tmp[: len(u)])
        np.subtract(self.ns[nodes], r, out=r)
        if self.b is not None:
            r -= self.b[nodes]
        r[outside] = 0.0
        return float(np.abs(r, out=r).max(initial=0.0))


def solve_laplace_dirichlet(
    boundary: GridFunction, tol: float = SOLVE_TOL, max_iter: int = SOLVE_MAX_ITER
) -> SolveReport:
    """Solve the centered discrete Laplace equation with the given Dirichlet ring.

    The residual is the max norm of the unscaled centered sum over the
    interior.  Non-convergence is reported, not raised.
    """
    return _sor_dirichlet(boundary, None, tol, max_iter)


def solve_poisson_dirichlet(
    f: GridFunction, boundary: GridFunction, tol: float = SOLVE_TOL, max_iter: int = SOLVE_MAX_ITER
) -> SolveReport:
    """Solve the centered discrete Poisson equation; residual against the h^(-2) operator."""
    return _sor_dirichlet(boundary, f, tol, max_iter)


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
    """Multilinear interpolation at in-hull points, shape (m, dim), on 2 or more nodes per axis."""
    spec = u.spec
    n = spec.dim
    with np.errstate(over="ignore"):  # a t beyond the float range is outside the grid
        t = (points - np.asarray(spec.origin)) / spec.h
    upper = np.asarray(spec.extents) - 1
    inside = ((t >= -1e-9) & (t <= upper + 1e-9)).all(axis=1)
    if not inside.all():
        (row,) = _first_failing(inside)
        raise ValueError(f"point {tuple(points[row].tolist())} is outside the grid")
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
    _check_length(radius, "radius")
    if num_points < 1:
        raise ValueError("need at least one sphere point")
    center_arr = np.asarray(center, dtype=float).reshape(1, -1)
    if center_arr.shape[1] != u.spec.dim:
        raise ValueError("center dimension does not match the grid")
    # checked here, so that the exits-the-grid error below is only about points
    if any(e < 2 for e in u.spec.extents):
        raise ValueError("interpolation needs at least 2 nodes per axis")
    directions = _sphere_directions(u.spec.dim, num_points)
    with np.errstate(over="ignore"):  # a point beyond the float range is outside the grid
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
    if not tol >= 0.0:
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
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
    _check_tolerance(tol)
    limit = shrink(grids[-1], compact_margin)  # refuses a margin that empties an axis
    pairs = _normalize_margins(compact_margin, spec.dim)
    window = tuple(slice(lo, e - hi) for (lo, hi), e in zip(pairs, spec.extents))
    steps = []
    for k in range(len(grids) - 1):
        diff = grids[k + 1].values - grids[k].values
        if np.any(diff < 0.0):
            witness = np.unravel_index(int(np.argmin(diff)), diff.shape)
            return HarnackVerdict("violation", (), witness=(k, tuple(int(i) for i in witness)))
        steps.append(float(np.abs(diff[window]).max()))
    deviations = tuple(steps)
    if float(limit.values.min()) > 1.0 / tol or deviations[-1] > tol:
        return HarnackVerdict("divergent", deviations)
    residual = None
    if all(e >= 3 for e in limit.spec.extents):
        residual = float(np.abs(laplace_stencil(spec.dim, spec.h).apply(limit).values).max())
    return HarnackVerdict("finite_limit", deviations, limit=limit, limit_residual=residual)


def _box_specs(
    origin: Sequence[float], lengths: Sequence[float], h_list: Sequence[float]
) -> list[GridSpec]:
    """The box ``origin + [0, length]`` per axis at each spacing, every one checked first.

    Lengths and spacings must be positive and finite, and no side may hold
    ``MAX_NODES`` nodes or more.
    """
    for length in lengths:
        _check_length(length, "box length")
    for h in h_list:
        _check_length(h, "spacing")
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

    ``problem`` is ``laplace``, which takes no ``rhs``, or ``poisson``, which
    needs one; each spacing solves on the box ``origin + [0, length]`` per
    axis with the reference as boundary data.
    Non-convergence is reported, not raised: the study stops after the first
    spacing whose solve does not converge, and that row has ``converged``
    False.  Every grid is checked against the node limit before any solve.
    """
    if problem not in ("laplace", "poisson"):
        raise ValueError(f"unknown problem {problem!r}: expected laplace or poisson")
    if problem == "poisson" and rhs is None:
        raise ValueError("a poisson study needs --rhs")
    if problem == "laplace" and rhs is not None:
        raise ValueError("a laplace study takes no --rhs")
    if len(h_list) < 2:
        raise ValueError("convergence study needs at least 2 spacings")
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        raise ValueError("spacings must be strictly decreasing")
    ref = parse(reference)
    rhs_expr = None if rhs is None else parse(rhs)
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
