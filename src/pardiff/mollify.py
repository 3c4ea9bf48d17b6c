"""Smoothing kernels with compact support and discrete convolution.

The kernel family is built from the bump profile ``exp(-1/(1-s))`` composed
with the squared radius, normalized to unit integral and scaled to support
radius eps.  Kernels are sampled on the same lattice pitch as the grid they
will smooth, so convolution is a plain lattice sum with no interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .grid import (
    GridFunction, GridSpec, _check_length, _same_pitch, _scale_factor, _valid_convolve, restrict,
)

__all__ = [
    "MollifierKernel",
    "MollifierError",
    "bump",
    "make_mollifier",
    "mollifier_for",
    "convolve",
    "l1_convergence",
    "derivative_commute",
]


class MollifierError(ValueError):
    """Raised when a kernel cannot be constructed or applied as requested."""


# Largest normalization quadrature, panels**dim points: one plane of doubles
# (8 B a point, 32 MiB at 2048^2 in 2-D) bounds its memory, and in 3-D the
# plane loop stays within 161 passes.
MAX_QUADRATURE_POINTS = 2**22

# Points per row block of a quadrature plane: its temporaries stay near 128 KiB,
# and a 3-D plane of up to 161^2 points still takes two blocks at most.
_QUADRATURE_BLOCK = 2**14

_EMPTY_REGION = "empty valid region: the grid does not contain the kernel support"


def bump(s: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """The compactly supported profile: ``exp(-1/(1-s))`` for s < 1, else 0."""
    scalar = np.ndim(s) == 0
    arr = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.zeros_like(arr)
    mask = arr < 1.0
    with np.errstate(under="ignore", over="ignore", divide="ignore"):
        out[mask] = np.exp(-1.0 / (1.0 - arr[mask]))
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class MollifierKernel:
    """A sampled, normalized smoothing kernel with support radius ``eps``.

    ``samples`` covers [-eps, eps]^dim on a lattice of pitch ``spacing``
    centered at the origin.  ``mass`` is the discrete integral (1 to within
    rounding after normalization); ``normalization`` is the integral of the
    unscaled profile over the unit box, used during construction.
    """

    dim: int
    eps: float
    spacing: float
    samples: GridFunction
    mass: float
    normalization: float
    raw_mass: float

    @property
    def radius_cells(self) -> int:
        """Nodes from the center to the support edge along one axis."""
        return (self.samples.spec.extents[0] - 1) // 2

    @property
    def support_radius(self) -> float:
        """Largest distance from the center of a nonzero sample; at most ``eps``."""
        radius = np.sqrt(sum(m * m for m in self.samples.spec.meshes()))
        return float(radius.max(initial=0.0, where=self.samples.values != 0.0))

    @property
    def symmetry_deviation(self) -> float:
        """Largest ``|k(x) - k(-x)|`` over the samples; 0 for an even kernel."""
        kv = self.samples.values
        return float(np.abs(kv - np.flip(kv)).max())


def _profile_box_integral(dim: int, panels: int) -> float:
    """Midpoint tensor quadrature of bump(|x|^2) over [-1, 1]^dim.

    Each ``(panels, panels)`` plane is filled in row blocks of about
    ``_QUADRATURE_BLOCK`` points and summed whole, so the sum is the same
    pairwise sum as over a plane built in one piece, bit for bit.
    """
    t = -1.0 + (np.arange(panels) + 0.5) * (2.0 / panels)
    sq = t * t
    if dim == 1:
        total = float(bump(sq).sum())
    else:
        plane = np.empty((panels, panels))
        rows = max(1, _QUADRATURE_BLOCK // panels)
        total = 0.0
        for idx in np.ndindex(*((panels,) * (dim - 2))):
            offset = sum(sq[i] for i in idx)
            for lo in range(0, panels, rows):
                plane[lo:lo + rows] = bump(sq[lo:lo + rows, None] + sq[None, :] + offset)
            total += float(plane.sum())
    return total * _scale_factor(2.0 / panels, dim)


def _radius_cells(eps: float, spacing: float) -> float:
    """Nodes from the kernel center to its support edge; inf when ``eps / spacing`` overflows."""
    return float(np.ceil(eps / spacing - 1e-12))


def make_mollifier(dim: int, eps: float, spacing: float, refine: int = 8) -> MollifierKernel:
    """Build a kernel of support radius ``eps`` sampled at pitch ``spacing``.

    ``refine`` is the number of quadrature subsamples per lattice cell used
    for the normalization integral, whose ``panels**dim`` points may not
    exceed ``MAX_QUADRATURE_POINTS``.  The discrete mass is renormalized to 1
    to within rounding (an ulp or two); a pre-normalization mass off by more
    than 10% means the lattice under-resolves the kernel and is an error, as
    is ``eps < spacing``.
    """
    if dim < 1:
        raise ValueError(f"dimension must be at least 1, got {dim}")
    _check_length(eps, "support radius")
    _check_length(spacing, "spacing")
    if refine < 1:
        raise ValueError(f"refine must be at least 1, got {refine}")
    if eps < spacing:
        raise MollifierError(
            f"support radius {eps} is below the lattice pitch {spacing}: "
            "the kernel would be sub-resolved"
        )
    panels = 2.0 * eps * refine / spacing - 1e-12  # inf when it overflows
    if not panels <= MAX_QUADRATURE_POINTS or math.ceil(panels) ** dim > MAX_QUADRATURE_POINTS:
        raise MollifierError(
            f"normalization quadrature of {panels:.4g} panels per axis in {dim}-D exceeds "
            f"{MAX_QUADRATURE_POINTS} points: lower refine"
        )
    normalization = _profile_box_integral(dim, math.ceil(panels))
    if normalization == 0.0:  # every point at |x| >= 1: two panels per axis from 4-D up
        raise MollifierError(
            f"normalization quadrature of {math.ceil(panels)} panels per axis in {dim}-D misses "
            f"the kernel's support: raise refine (now {refine})"
        )

    r = int(_radius_cells(eps, spacing))
    axis = np.arange(-r, r + 1) * spacing
    meshes = np.meshgrid(*([axis] * dim), indexing="ij")
    s2 = sum((m / eps) ** 2 for m in meshes)
    _scale_factor(eps, -dim, "eps")  # the kernel's peak is of the order of eps^(-n)
    values = bump(s2) / (normalization * _scale_factor(eps, dim, "eps"))
    raw_mass = float(_scale_factor(spacing, dim) * values.sum())
    if abs(raw_mass - 1.0) > 0.1:
        raise MollifierError(
            f"kernel resolution too coarse: discrete mass {raw_mass:.6f} "
            "deviates from 1 by more than 10% before normalization"
        )
    values = values / raw_mass
    mass = float(_scale_factor(spacing, dim) * values.sum())
    spec = GridSpec((-r * spacing,) * dim, spacing, (2 * r + 1,) * dim)
    return MollifierKernel(
        dim=dim,
        eps=float(eps),
        spacing=float(spacing),
        samples=GridFunction(spec, values),
        mass=mass,
        normalization=normalization,
        raw_mass=raw_mass,
    )


def mollifier_for(spec: GridSpec, eps: float, refine: int = 8) -> MollifierKernel:
    """:func:`make_mollifier` for smoothing functions on ``spec``.

    A kernel whose ``2 r + 1`` nodes per axis do not fit inside the grid is
    refused before anything is built.
    """
    _check_length(eps, "support radius")
    if 2.0 * _radius_cells(eps, spec.h) + 1.0 > min(spec.extents):
        raise MollifierError(_EMPTY_REGION)
    return make_mollifier(spec.dim, eps, spec.h, refine)


def convolve(f: GridFunction, kernel: MollifierKernel) -> GridFunction:
    """Smooth ``f`` by the kernel on the interior shrunk by the kernel radius.

    The value at node z is ``h^dim * sum_x f(x) k(z - x)``; the kernel pitch
    must equal the grid spacing.
    """
    spec = f.spec
    if spec.dim != kernel.dim:
        raise ValueError(f"kernel dimension {kernel.dim} does not match grid {spec.dim}")
    if not _same_pitch(spec.h, kernel.spacing):
        raise MollifierError(
            f"kernel pitch {kernel.spacing} does not match grid spacing {spec.h}"
        )
    kv = kernel.samples.values
    if any(fs < ks for fs, ks in zip(f.values.shape, kv.shape)):
        raise MollifierError(_EMPTY_REGION)
    r = kernel.radius_cells
    out_spec = spec.shrunk([r] * spec.dim, [r] * spec.dim)
    return GridFunction(out_spec, _scale_factor(spec.h, spec.dim) * _valid_convolve(f.values, kv))


def l1_convergence(
    f: GridFunction, eps_list: Sequence[float], refine: int = 8
) -> tuple[list[float], bool]:
    """Discrete L1 distances between ``f`` and its smoothings, per support radius.

    ``eps_list`` must be strictly descending with positive, finite radii.
    Errors are measured on the common interior (that of the widest kernel).
    Returns the error sequence and whether it is non-increasing within 5% slack.
    """
    radii = [float(e) for e in eps_list]
    if not radii:
        raise ValueError("eps_list must not be empty")
    for e in radii:
        _check_length(e, "support radius")
    if any(a <= b for a, b in zip(radii, radii[1:])):
        raise ValueError(f"eps_list must be strictly descending, got {radii}")
    kernels = [mollifier_for(f.spec, e, refine) for e in radii]
    smoothed = [convolve(f, k) for k in kernels]
    common = smoothed[0].spec  # widest kernel shrinks the most
    f_common = restrict(f, common)
    diffs = (restrict(s, common).values - f_common.values for s in smoothed)
    errors = [float(_scale_factor(f.spec.h, f.spec.dim) * np.abs(d).sum()) for d in diffs]
    non_increasing = all(b <= a * 1.05 for a, b in zip(errors, errors[1:]))
    return errors, non_increasing


def derivative_commute(f: GridFunction, kernel: MollifierKernel, axis: int) -> float:
    """Max deviation between differencing after and before smoothing.

    Compares the centered difference along the 1-based ``axis`` of the
    smoothed grid against convolution with the centered-differenced kernel.
    The two are rearrangements of the same finite double sum, so the
    deviation is pure roundoff.
    """
    dim = f.spec.dim
    if not 1 <= axis <= dim:
        raise ValueError(f"axis {axis} out of range for dimension {dim}")
    a = axis - 1
    h = f.spec.h
    smoothed = convolve(f, kernel)
    if smoothed.spec.extents[a] < 3:
        raise MollifierError("insufficient margin for the centered difference")
    lead = (slice(None),) * a

    def centered(v: np.ndarray) -> np.ndarray:
        return (v[lead + (slice(2, None),)] - v[lead + (slice(None, -2),)]) / (2.0 * h)

    side_a = centered(smoothed.values)
    pad = [(0, 0)] * dim
    pad[a] = (2, 2)
    dk = centered(np.pad(kernel.samples.values, pad))

    side_b = _scale_factor(h, dim) * _valid_convolve(f.values, dk)
    return float(np.abs(side_a - side_b).max())
