"""Uniform axis-aligned grids and real-valued functions sampled on them.

A grid is a lattice ``origin + h * (i1, ..., in)`` with one shared spacing
``h`` for every axis.  Values are stored in row-major node order (the last
index varies fastest), the same order used by the grid file format.
"""

from __future__ import annotations

import errno
import itertools
import math
import os
import re
import stat
import tempfile
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .expr import CoeffExpr, _first_failing, evaluate_nodes, parse

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

# Largest grid, in nodes: 4096^2 or 256^3, one 128 MiB array of doubles.
MAX_NODES = 2**24

# Values per block of a grid file's body, read or written.
_BLOCK_VALUES = 4096


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
        _check_length(self.h, "grid spacing")
        if any(e < 1 for e in self.extents):
            raise ValueError(f"every extent must be at least 1, got {self.extents}")
        if self.node_count > MAX_NODES:
            raise ValueError(f"grid of {self.node_count} nodes exceeds the limit of {MAX_NODES}")
        corner = tuple(o + self.h * (e - 1) for o, e in zip(self.origin, self.extents))
        if not all(math.isfinite(v) for v in self.origin + corner):
            raise ValueError(f"grid nodes must be finite: origin {self.origin}, corner {corner}")

    @property
    def dim(self) -> int:
        return len(self.extents)

    @property
    def node_count(self) -> int:
        return math.prod(self.extents)

    def axis_coords(self, axis: int) -> np.ndarray:
        """Node coordinates along a 0-based axis; index 0 is the origin as given (-0.0 too)."""
        coords = self.origin[axis] + self.h * np.arange(self.extents[axis])
        coords[0] = self.origin[axis]
        return coords

    def meshes(self) -> list[np.ndarray]:
        """Per-axis coordinate arrays of shape ``extents`` (row-major node order)."""
        axes = [self.axis_coords(a) for a in range(self.dim)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def node(self, index: Sequence[int]) -> tuple[float, ...]:
        return tuple(o + self.h * i if i else o for o, i in zip(self.origin, index))

    def shrunk(self, lo: Sequence[int], hi: Sequence[int]) -> "GridSpec":
        extents = tuple(e - l - u for e, l, u in zip(self.extents, lo, hi))
        if any(e < 1 for e in extents):
            raise ValueError(f"shrinking by {tuple(lo)}/{tuple(hi)} leaves an empty axis")
        return GridSpec(self.node(lo), self.h, extents)


@dataclass(frozen=True)
class GridFunction:
    """Immutable real samples on a :class:`GridSpec`.

    ``values`` has shape ``spec.extents``; a flat row-major array of matching
    length is also accepted.  All entries must be finite.  The values are
    always copied, so the grid owns them and later writes to the array passed
    in do not reach it.
    """

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float, order="C")
        if arr.size != self.spec.node_count:
            raise ValueError(
                f"values have {arr.size} entries, grid has {self.spec.node_count} nodes"
            )
        arr = arr.reshape(self.spec.extents)
        finite = np.isfinite(arr)
        if not finite.all():
            raise ValueError(f"non-finite value at node {_first_failing(finite)}")
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
        return float(_scale_factor(u.spec.h, u.spec.dim) * np.abs(u.values).sum())
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
    """Extract the sub-grid of ``u`` that coincides with ``spec``, on the same lattice."""
    if u.spec.dim != spec.dim:
        raise ValueError("incompatible specs: dimensions differ")
    offsets = _lattice_offset(u.spec, spec)
    if offsets is None:
        raise ValueError(f"incompatible specs: {spec} is off the lattice of {u.spec}")
    for a, (k, e) in enumerate(zip(offsets, spec.extents)):
        if k < 0 or k + e > u.spec.extents[a]:
            raise ValueError(f"incompatible specs: axis {a} window exits the grid")
    window = tuple(slice(k, k + e) for k, e in zip(offsets, spec.extents))
    return GridFunction(spec, u.values[window])


def _check_length(value: float, what: str) -> None:
    """Refuse a length, spacing or radius that is not positive and finite; NaN is refused too."""
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{what} must be positive and finite, got {value}")


def _scale_factor(base: float, p: int, name: str = "h") -> float:
    """``base ** p`` by Python's float power, 0 where it underflows: every power of a spacing
    or a radius.  One that overflows raises ``scale factor h^(-2) overflows at h = 1e-200``."""
    base = float(base)
    try:
        return base**p
    except OverflowError:
        power = p if p >= 0 else f"({p})"
        raise OverflowError(f"scale factor {name}^{power} overflows at {name} = {base!r}") from None


def _check_tolerance(tol: float) -> None:
    """Refuse a tolerance that is not a positive number; NaN is refused too."""
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")


def _same_pitch(a: float, b: float) -> bool:
    """Whether two lattice spacings agree to 1e-12 relative."""
    return math.isclose(a, b, rel_tol=1e-12)


def _lattice_offset(source: GridSpec, target: GridSpec) -> tuple[int, ...] | None:
    """Whole-cell offset of the target origin from the source origin; None off the lattice.

    On it, the spacings are the same pitch (:func:`_same_pitch`) and each
    offset is a finite cell count within 1e-9 cells of a whole number.
    """
    cells = [(t - s) / source.h for t, s in zip(target.origin, source.origin)]
    if not (_same_pitch(target.h, source.h) and all(map(math.isfinite, cells))):
        return None
    offset = tuple(round(c) for c in cells)
    if any(abs(c - k) > 1e-9 for c, k in zip(cells, offset)):
        return None
    return offset


def _fast_length(n: int) -> int:
    """The smallest ``2^a 3^b 5^c`` that is at least ``n``: a length numpy's FFT transforms fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _cyclic_convolve(x: np.ndarray, y: np.ndarray, lengths: tuple[int, ...]) -> np.ndarray:
    """The cyclic convolution of ``x`` and ``y``, each zero-padded to ``lengths``."""
    axes = tuple(range(x.ndim))
    return np.fft.irfftn(np.fft.rfftn(x, lengths, axes) * np.fft.rfftn(y, lengths, axes), lengths, axes)


def _valid_convolve(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``out[m] = sum_j k[j] a[m + K-1 - j]`` wherever every tap of ``k`` lies inside ``a``.

    One cyclic FFT convolution with each axis of length N zero-padded to
    ``_fast_length(N)``: a cyclic length of at least N puts the wrap-around
    below index ``K-1``, outside the window ``[K-1, N)`` read back.  Both
    operands are scaled to a largest magnitude in [1/2, 1) by powers of two,
    which leaves every rounding as it is and keeps the FFT's sums finite for
    data near the overflow threshold.

    Where no nonzero of ``k`` meets a nonzero of ``a`` the result is an exact
    0 (``-0.0`` counts as a zero).  When ``a`` has no zero, every node meets
    all of ``k``'s nonzeros, so only an all-zero ``k`` forces zeros.
    Otherwise a second FFT, of the two nonzero indicators, counts the pairs;
    its counts are integers up to rounding, so ``count < 0.5`` is an exact
    test.
    """
    lengths = tuple(_fast_length(n) for n in a.shape)
    window = tuple(slice(ks - 1, n) for ks, n in zip(k.shape, a.shape))
    ea, ek = (np.frexp(np.abs(x).max())[1] for x in (a, k))
    out = np.ldexp(_cyclic_convolve(np.ldexp(a, -ea), np.ldexp(k, -ek), lengths)[window], ea + ek)
    a_nonzero = a != 0.0
    if a_nonzero.all():
        if not k.any():
            out[...] = 0.0
    else:
        out[_cyclic_convolve(a_nonzero, k != 0.0, lengths)[window] < 0.5] = 0.0
    return out


def _table_chunks(head: str, columns: Sequence[np.ndarray | Sequence[str]]) -> Iterator[str]:
    """``head``, then one line per row of ``columns`` in blocks of at most ``_BLOCK_VALUES``
    rows: a numpy array column's values in ``.17g`` and a ``str`` column's as they are,
    joined by commas.  One ``%`` row template serves the whole table."""
    yield head
    template = ",".join("%.17g" if isinstance(c, np.ndarray) else "%s" for c in columns) + "\n"
    block = _BLOCK_VALUES
    for lo in range(0, len(columns[0]), block):
        parts = [c[lo:lo + block] for c in columns]
        parts = [p.tolist() if isinstance(p, np.ndarray) else p for p in parts]
        values = parts[0] if len(parts) == 1 else itertools.chain.from_iterable(zip(*parts))
        yield (template * len(parts[0])) % tuple(values)


def grid_file_chunks(u: GridFunction) -> Iterator[str]:
    """The grid file serialization in pieces: the header lines, then blocks of
    at most ``_BLOCK_VALUES`` values, one per line."""
    spec = u.spec
    head = (
        f"dim {spec.dim}\n"
        f"origin {' '.join(format(v, '.17g') for v in spec.origin)}\n"
        f"h {format(spec.h, '.17g')}\n"
        f"extents {' '.join(str(e) for e in spec.extents)}\n"
    )
    return _table_chunks(head, [u.flat()])


# A process's descriptor directory, where /dev/fd, /dev/stdout and the like lead.
_DESCRIPTOR_DIR = re.compile(r"/proc/[^/]+(?:/task/[^/]+)?/fd")


def _names_a_descriptor(path: str) -> bool:
    """Whether ``path``, or a link on the way to its file, lies in a descriptor
    directory such as ``/proc/<pid>/fd``.

    Such a link names an open descriptor, not a file: ``realpath`` reads it
    as the file behind the descriptor (a shell's ``> log`` redirect for
    ``/dev/stdout``), and staging and renaming over that file would replace
    what the descriptor's owner has written and go on writing to.
    """
    p = os.path.join(os.getcwd(), path)
    for _ in range(40):  # the kernel's own limit on links in one lookup
        if _DESCRIPTOR_DIR.fullmatch(os.path.realpath(os.path.dirname(p))):
            return True
        if not os.path.islink(p):
            return False
        p = os.path.join(os.path.dirname(p), os.readlink(p))
    return False


def _check_targets(paths: Iterable[str]) -> list[tuple[str, int | None]]:
    """Each output path resolved through its symlinks, with the permission bits
    of the file already there (None for a new file).

    Refused, by an ``OSError`` naming the path as given: an empty path, a
    directory, a missing parent, a parent that is not a directory, and an
    existing target that is not a regular file (a FIFO or a device cannot be
    staged and renamed over), nor a path that names an open descriptor, such
    as ``/dev/stdout`` (see :func:`_names_a_descriptor`), whatever it is open
    on.  No target is opened, so a FIFO with no reader never blocks.
    """
    out = []
    for path in paths:
        if not path:
            raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        if _names_a_descriptor(path):
            raise OSError(errno.EINVAL, "Not a regular file", path)
        resolved = os.path.realpath(path)
        try:
            st = os.stat(path)
        except FileNotFoundError:
            try:
                parent = os.stat(os.path.dirname(resolved))
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
            if not stat.S_ISDIR(parent.st_mode):
                raise OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path) from None
            out.append((resolved, None))
            continue
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
        if stat.S_ISDIR(st.st_mode):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not stat.S_ISREG(st.st_mode):
            raise OSError(errno.EINVAL, "Not a regular file", path)
        out.append((resolved, stat.S_IMODE(st.st_mode)))
    return out


def _atomic_write(files: Sequence[tuple[str, str | Iterable[str]]]) -> None:
    """Write each ``(path, text)`` pair of ``files``: every path, or none of them.

    A text is one ``str`` or an iterable of ``str`` chunks, written as they
    come.  Every path first passes :func:`_check_targets`; a symlink is
    followed, so the file it names is written and the link stays.  Each text
    goes to a new ``.pardiff-*`` file beside the resolved target (``O_EXCL``,
    mode 0o666 so the umask sets the permissions of a new file, as for
    ``open(path, "w")``; an existing target's permission bits are kept), and
    none is renamed until all are written: a failure before then, in a chunk
    iterable too, removes every temporary and leaves every path as it was.
    Errors name the path as given, not its temporary.  One window stays open:
    a rename that fails after an earlier rename succeeded does not undo the
    earlier one.
    """
    targets = _check_targets(path for path, _ in files)
    staged: list[tuple[str, str]] = []  # (temporary, resolved target) pairs not yet renamed
    try:
        for (path, text), (target, mode) in zip(files, targets):
            tmp = tempfile.mktemp(prefix=".pardiff-", dir=os.path.dirname(target))
            try:
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
            staged.append((tmp, target))
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                if mode is not None and stat.S_IMODE(os.fstat(fd).st_mode) != mode:
                    try:
                        os.fchmod(fd, mode)
                    except OSError as exc:
                        raise OSError(exc.errno, exc.strerror, path) from None
                fh.writelines([text] if isinstance(text, str) else text)
        while staged:
            os.replace(*staged[0])
            del staged[0]
    except BaseException:
        for tmp, _ in staged:
            os.unlink(tmp)
        raise


def save_grid(u: GridFunction, path: str) -> None:
    """Write the line-oriented grid file format (header then one value per line), atomically.

    The text is written one block of values at a time, so it never exists
    whole; memory beyond the grid stays small and does not grow with it.
    """
    _atomic_write([(path, grid_file_chunks(u))])


def _read_text(path: str, error: type[ValueError] = GridFileError) -> str:
    """The whole file, decoded as UTF-8 with universal newlines.

    Bytes that are not UTF-8 raise ``error`` with the offset of the first one
    in the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error(
                f"{path}: not valid UTF-8 at byte offset {exc.start}: {exc.reason}"
            ) from None


def _content_lines(text: str, lineno: int = 1) -> list[tuple[int, str]]:
    """Stripped lines of ``text`` numbered from ``lineno``, without blank and ``#`` lines."""
    out = []
    for n, raw in enumerate(text.split("\n"), start=lineno):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            out.append((n, stripped))
    return out


def _header_fields(path: str, lineno: int, line: str, key: str, count: int | None) -> list[str]:
    fields = line.split()
    if fields[0] != key:
        raise GridFileError(f"{path}:{lineno}: expected '{key} ...', got {line!r}")
    if count is not None and len(fields) != count + 1:
        raise GridFileError(f"{path}:{lineno}: '{key}' needs {count} values, got {len(fields) - 1}")
    return fields[1:]


def _grid_header(path: str, lines: list[tuple[int, str]]) -> GridSpec:
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
        return GridSpec(origin, h, extents)
    except ValueError as exc:
        raise GridFileError(f"{path}: {exc}") from None


def _bulk_values(lines: list[str]) -> np.ndarray | None:
    """One ``float`` pass over a block of body ``lines``; None, for the per-line
    reader to take over, unless ``float`` takes each.

    ``float`` refuses a blank line and a line that holds ``#``, so a block
    with comments gets None too.
    """
    try:
        return np.fromiter(map(float, lines), float, len(lines))
    except ValueError:
        return None


def _body_values(path: str, lines: Iterable[str], lineno: int, values: np.ndarray,
                 filled: int) -> None:
    """The per-line reader: the rest of the body, ``lines`` from line ``lineno`` on,
    into ``values[filled:]``; ``values[:filled]`` already holds the lines before.

    It reads to the end, so a wrong number of value lines is reported before
    a bad value, and it names the first bad value's line.
    """
    bad = None  # (line number, text) of the first value float refuses
    for n, raw in enumerate(lines, start=lineno):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if filled < values.size and bad is None:
            try:
                values[filled] = float(line)
            except ValueError:
                bad = (n, line)
        filled += 1
    if filled != values.size:
        raise GridFileError(f"{path}: expected {values.size} value lines, found {filled}")
    if bad is not None:
        raise GridFileError(f"{path}:{bad[0]}: invalid value {bad[1]!r}")


def load_grid(path: str) -> GridFunction:
    """Read a grid file written by :func:`save_grid`.  ``#`` lines are comments.

    The file is read as a stream (UTF-8, universal newlines): the header lines
    first, from which the :class:`GridSpec` is built, then the body in blocks
    of ``_BLOCK_VALUES`` lines into one preallocated array.  A block of one
    value per line takes one ``float`` pass; from the first block with a
    comment, a blank line or a bad value on, or past the expected number of
    lines, the per-line reader takes over and names the line at fault.
    Beyond the grid's own values, memory stays about one more array of them.
    An undecodable byte is reported with its offset in the whole file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header: list[tuple[int, str]] = []
            lineno = 0
            while len(header) < 4:
                raw = fh.readline()
                if not raw:
                    raise GridFileError(f"{path}: truncated grid file")
                lineno += 1
                header += _content_lines(raw.rstrip("\n"), lineno)
            try:
                spec = _grid_header(path, header)
            except GridFileError:
                for _ in fh:  # a byte that does not decode, anywhere, is the error to report
                    pass
                raise
            values = np.empty(spec.node_count)
            filled = 0
            while block := list(itertools.islice(fh, _BLOCK_VALUES)):
                bulk = None if filled + len(block) > values.size else _bulk_values(block)
                if bulk is None:
                    break
                values[filled:filled + len(block)] = bulk
                filled += len(block)
                lineno += len(block)
            if block or filled != values.size:
                _body_values(path, itertools.chain(block, fh), lineno + 1, values, filled)
    except UnicodeDecodeError:
        _read_text(path)  # reads the file again for the offset and raises its GridFileError
        raise
    try:
        return GridFunction(spec, values)
    except ValueError as exc:
        raise GridFileError(f"{path}: {exc}") from None
