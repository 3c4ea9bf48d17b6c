"""Pointwise type classification of difference operators.

The coefficient matrix of a stencil at a point x has entries

    A[k, l] = sum_i  shift_i[k] * shift_i[l] * coeff_i(x),

a symmetric matrix whose definiteness class labels the operator: definite is
elliptic, indefinite is hyperbolic, semidefinite (a near-zero eigenvalue and
no sign conflict) is parabolic.  The overall h^(-p) scale of the stencil is a
positive factor and is ignored.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .grid import GridSpec, _check_tolerance
from .stencil import Stencil

__all__ = [
    "CoefficientMatrix",
    "ClassificationReport",
    "DEFAULT_TOL",
    "coefficient_matrix",
    "eigen_symmetric",
    "classify_at",
    "classify_region",
]

DEFAULT_TOL = 1e-9

LABELS = ("elliptic", "hyperbolic", "parabolic")


@dataclass(frozen=True)
class CoefficientMatrix:
    """Symmetric coefficient matrix of a stencil evaluated at one point."""

    dim: int
    entries: np.ndarray
    point: tuple[float, ...]

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.shape != (self.dim, self.dim):
            raise ValueError(f"entries must be {self.dim}x{self.dim}, got {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "point", tuple(float(v) for v in self.point))


@dataclass(frozen=True)
class ClassificationReport:
    """Per-point eigenvalues and labels over a probe region."""

    points: np.ndarray  # (m, dim)
    eigenvalues: np.ndarray  # (m, dim), ascending per row
    labels: tuple[str, ...]
    tol: float
    counts: dict[str, int]


@np.errstate(over="ignore", invalid="ignore")
def _coefficient_stack(s: Stencil, probe: GridSpec) -> np.ndarray:
    """The (m, n, n) coefficient matrices at the probe's m nodes, in row-major node order."""
    if probe.dim != s.dim:
        raise ValueError(f"probe dimension {probe.dim} does not match stencil {s.dim}")
    entries = np.zeros((probe.node_count, s.dim, s.dim))
    for t, gamma in s.coefficients(probe):
        rho = np.asarray(t.shift, dtype=float)
        entries += np.reshape(gamma, (-1, 1, 1)) * np.outer(rho, rho)
    if not np.isfinite(entries).all():
        raise OverflowError("coefficient matrices overflow")
    return entries


def _point_probe(x: Sequence[float]) -> GridSpec:
    """The one-node probe grid at the point ``x``."""
    return GridSpec(tuple(x), 1.0, (1,) * len(x))


def coefficient_matrix(s: Stencil, x: Sequence[float]) -> CoefficientMatrix:
    """The symmetric coefficient matrix of ``s`` at ``x``: a one-node probe at ``x``."""
    probe = _point_probe(x)
    return CoefficientMatrix(s.dim, _coefficient_stack(s, probe)[0], probe.origin)


def eigen_symmetric(matrix: Union[CoefficientMatrix, np.ndarray]) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending, from ``np.linalg.eigvalsh``.

    The matrix must be square and symmetric to 1e-12 of its largest entry.
    A 1x1 matrix gives its entry and a zero matrix gives zeros, exactly.
    """
    a = matrix.entries if isinstance(matrix, CoefficientMatrix) else matrix
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(a).max()))):
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(a)


def _labels(eigenvalues: np.ndarray, tol: float) -> tuple[str, ...]:
    """Label each row of an (m, n) eigenvalue array against tol * max(1, |lambda|max)."""
    if not np.isfinite(eigenvalues).all():
        raise OverflowError("coefficient matrix eigenvalues overflow")
    threshold = tol * np.maximum(1.0, np.abs(eigenvalues).max(axis=1, keepdims=True))
    positive = eigenvalues > threshold
    negative = eigenvalues < -threshold
    definite = positive.all(axis=1) | negative.all(axis=1)
    indefinite = positive.any(axis=1) & negative.any(axis=1)
    codes = np.where(definite, 0, np.where(indefinite, 1, 2))
    return tuple(LABELS[k] for k in codes.tolist())


def classify_at(s: Stencil, x: Sequence[float], tol: float = DEFAULT_TOL) -> str:
    """Label the operator at one point: elliptic, hyperbolic, or parabolic."""
    return classify_region(s, _point_probe(x), tol).labels[0]


def classify_region(s: Stencil, probe: GridSpec, tol: float = DEFAULT_TOL) -> ClassificationReport:
    """Classify at every node of a probe grid (pointwise sampling)."""
    _check_tolerance(tol)
    points = np.stack([m.reshape(-1) for m in probe.meshes()], axis=1)
    entries = _coefficient_stack(s, probe)
    eigenvalues = np.linalg.eigvalsh(entries)
    labels = _labels(eigenvalues, tol)
    return ClassificationReport(points, eigenvalues, labels, tol, dict(Counter(labels)))
