"""Mode mapping, basis-function tables and the nonuniform radial grid.

The projection matrix is indexed by flat mode numbers n, each standing for
an ordered triple (i, j, k) of 1D basis-function indices.  Real pipelines
read an optimised mapping from file; the default here enumerates all
ordered triples below ``p_max`` in k-major order.  The basis tables are
synthetic but shaped like their cosmological counterparts: a smooth
polynomial late-time basis, a Sachs-Wolfe-like power spectrum and a
projected basis sharply peaked near the radius of last scattering.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .gamma import _check_budget
from .quadrature import _legendre_rows

__all__ = [
    "ModeMapping",
    "BasisTables",
    "RadialGrid",
    "MappingFormatError",
    "default_mode_mapping",
    "load_mode_mapping",
    "save_mode_mapping",
    "default_radial_grid",
    "synthesize_basis",
]

# Radial peak parameters (plumbing constants; the physical input only pins
# the peak location near r ~ 14000).
R_PEAK = 14000.0
R_SIGMA = 150.0
W_FLOOR = 0.05
R_MAX = 16000.0


class MappingFormatError(ValueError):
    """Malformed mode-mapping file."""


# a mapping file's name for each fault of ``_mapping_faults``
_FAULTS = ("unordered triple", "index out of range [0, p_max)",
           "duplicate triple")


def _sha256(*chunks) -> str:
    """Digest of the concatenated bytes or C-contiguous buffers."""
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()[:16]


def _mapping_faults(e: np.ndarray, p_max: int) -> tuple[int, int, int]:
    """The first row of the int64 triples ``e`` [n, 3] that is unordered
    (not i <= j <= k), that has an index outside [0, p_max) and that
    repeats an earlier row, each n if none does.  Repeats are found by a
    stable sort of the rows, which, unlike a flat key, cannot overflow."""
    order = np.lexsort(e.T)
    same = np.ones(max(len(e) - 1, 0), dtype=bool)
    for col in e.T:
        s = col[order]
        same &= s[1:] == s[:-1]
    return tuple(int(np.min(rows, initial=len(e))) for rows in (
        np.flatnonzero((e[:, 0] > e[:, 1]) | (e[:, 1] > e[:, 2])),
        np.flatnonzero(((e < 0) | (e >= p_max)).any(axis=1)),
        order[1:][same]))


@dataclass(frozen=True)
class ModeMapping:
    """Injective map n -> (i, j, k) with i <= j <= k < p_max."""

    entries: np.ndarray          # int array [n_max, 3]
    p_max: int

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.int64).reshape(-1, 3)
        object.__setattr__(self, "entries", e)
        if len(e) == 0:
            raise ValueError("mode mapping must contain at least one entry")
        unordered, out_of_range, repeat = _mapping_faults(e, self.p_max)
        if out_of_range < len(e):
            raise ValueError("mapping indices must lie in [0, p_max)")
        if unordered < len(e):
            raise ValueError("mapping triples must satisfy i <= j <= k")
        if repeat < len(e):
            raise ValueError("mapping contains duplicate triples")

    @property
    def n_max(self) -> int:
        return len(self.entries)

    def triple(self, n: int) -> tuple[int, int, int]:
        i, j, k = self.entries[n]
        return int(i), int(j), int(k)

    def fingerprint(self) -> str:
        return _sha256(np.int64(self.p_max).tobytes(), self.entries.tobytes())


# the six orderings of a basis triple, in one fixed order for every engine
_PERMS3 = tuple(permutations((0, 1, 2)))


def _ordering_index(mapping: ModeMapping, p: int) -> np.ndarray:
    """idx [6, n_max]: the flat index (a p + b) p + c of ordering s
    (``_PERMS3``) of mapping triple n at idx[s, n], ``p`` the tables'
    p_max.  Both engines symmetrise with this one table."""
    return (mapping.entries[:, _PERMS3] @ np.array([p * p, p, 1])).T


def _check_mapping_budget(n_max: int) -> int:
    """A bound on the peak bytes of ``default_mode_mapping`` with n_max
    entries, sized with tracemalloc: the int64 entries and
    ``_mapping_faults``' sort order, sorted column and masks take 50
    bytes per entry at p_max 80, so 64 are counted, and the sort's own
    buffers 11 KiB, so 16 KiB.  Over ``MEMORY_BUDGET`` is refused."""
    return _check_budget(f"a mode mapping of {n_max} entries needs",
                         64 * n_max + (1 << 14))


def default_mode_mapping(p_max: int) -> ModeMapping:
    """All ordered triples i <= j <= k < p_max, enumerated k-major
    (k ascending, then j, then i); n_max = C(p_max+2, 3).  A mapping
    whose peak (``_check_mapping_budget``) would exceed ``MEMORY_BUDGET``
    raises MemoryError before it is built."""
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    _check_mapping_budget(math.comb(p_max + 2, 3))
    # the pairs i <= j, j-major: the first (k+1)(k+2)/2 have j <= k
    j, i = np.tril_indices(p_max)
    return ModeMapping(np.concatenate([
        np.stack([i[:m], j[:m], np.full(m, k)], axis=1)
        for k, m in enumerate(np.cumsum(np.arange(1, p_max + 1)))]), p_max)


def save_mode_mapping(mapping: ModeMapping, path) -> None:
    """Write the ``modalmap v1`` text format."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"modalmap v1 p_max={mapping.p_max} n_max={mapping.n_max}\n")
        for n, (i, j, k) in enumerate(mapping.entries):
            f.write(f"{n} {i} {j} {k}\n")


def load_mode_mapping(path) -> ModeMapping:
    """Parse the ``modalmap v1`` file at ``path``.

    Raises MappingFormatError for text that is not UTF-8, for a file with
    no entries, and, naming the line, for malformed records, duplicate or
    unordered triples, out-of-range indices and non-ascending mode numbers.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except UnicodeDecodeError as exc:
        raise MappingFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    if not lines:
        raise MappingFormatError("empty mapping file")
    header = lines[0].split()
    if (len(header) != 4 or header[0] != "modalmap" or header[1] != "v1"
            or not header[2].startswith("p_max=")
            or not header[3].startswith("n_max=")):
        raise MappingFormatError(f"bad header line: {lines[0]!r}")
    try:
        p_max = int(header[2][6:])
        n_max = int(header[3][6:])
    except ValueError as exc:
        raise MappingFormatError(f"bad header line: {lines[0]!r}") from exc

    # records up to the first malformed one; an earlier bad triple goes first
    entries, linenos, error = [], [], None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            n, i, j, k = (int(p) for p in line.split())
        except ValueError:
            error = "malformed record"
        else:
            if n != len(linenos):
                error = "mode index not ascending"
            elif max(abs(i), abs(j), abs(k)) >> 63:    # past int64
                error = _FAULTS[i <= j <= k]    # unordered, else range
        if error:
            break
        entries += (i, j, k)
        linenos.append(lineno)
    e = np.array(entries, dtype=np.int64).reshape(-1, 3)
    faults = _mapping_faults(e, p_max)
    row = min(faults)
    if row < len(e):
        raise MappingFormatError(
            f"{_FAULTS[faults.index(row)]} at line {linenos[row]}")
    if error:
        raise MappingFormatError(f"{error} at line {lineno}")
    if len(e) != n_max:
        raise MappingFormatError(
            f"header says n_max={n_max} but file has {len(e)} entries")
    if not len(e):
        raise MappingFormatError("mapping file has no entries")
    return ModeMapping(e, p_max)


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radial samples with three resolution zones."""

    r: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=np.float64)
        object.__setattr__(self, "r", r)
        if np.any(np.diff(r) <= 0) or r[0] < 0:
            raise ValueError("radial samples must be >= 0 and increasing")

    def __len__(self) -> int:
        return len(self.r)

    def fingerprint(self) -> str:
        return _sha256(self.r.tobytes())


def default_radial_grid(n_total: int = 216) -> RadialGrid:
    """Three-zone radial grid: 25% of the points before the peak window
    [R_PEAK - 5 R_SIGMA, R_PEAK + 5 R_SIGMA], 50% inside it, 25% after,
    uniform within each zone.  First sample is 0, last is R_MAX."""
    if n_total < 12:
        raise ValueError("n_total must be >= 12")
    lo = R_PEAK - 5 * R_SIGMA
    hi = R_PEAK + 5 * R_SIGMA
    n1 = round(n_total / 4)
    n3 = round(n_total / 4)
    n2 = n_total - n1 - n3
    zone1 = lo * np.arange(n1) / n1                      # [0, lo)
    zone2 = np.linspace(lo, hi, n2)                      # [lo, hi]
    zone3 = hi + (R_MAX - hi) * np.arange(1, n3 + 1) / n3  # (hi, R_MAX]
    return RadialGrid(np.concatenate([zone1, zone2, zone3]))


def radial_peak_weight(r) -> np.ndarray:
    """Peaked-plus-floor radial profile used by the synthetic basis."""
    r = np.asarray(r, dtype=np.float64)
    return np.exp(-((r - R_PEAK) ** 2) / (2.0 * R_SIGMA**2)) + W_FLOOR


@dataclass(frozen=True)
class BasisTables:
    """Sampled 1D basis functions and per-multipole weights.

    q[i, l-l_min] is the late-time basis, q_tilde[i, x, l-l_min] the
    projected primordial basis on the radial grid, C the power spectrum
    and v = (2l+1)^(1/6).  All tables index multipoles by l - l_min.
    """

    q: np.ndarray          # [p_max, L]
    q_tilde: np.ndarray    # [p_max, R, L]
    C: np.ndarray          # [L]
    v: np.ndarray          # [L]
    l_min: int
    l_max: int

    def __post_init__(self):
        for name in ("q", "q_tilde", "C", "v"):
            # contiguous, so fingerprint() can hash the buffers uncopied
            a = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, a)
            if not np.all(np.isfinite(a)):
                raise ValueError(f"table {name} contains non-finite values")
        L = self.l_max - self.l_min + 1
        if self.q.shape[1] != L or self.q_tilde.shape[2] != L \
                or self.C.shape != (L,) or self.v.shape != (L,):
            raise ValueError("table shapes inconsistent with l range")
        if np.any(self.C <= 0):
            raise ValueError("power spectrum C_l must be strictly positive")
        if np.any(self.v <= 0):
            raise ValueError("v_l must be strictly positive")

    @property
    def p_max(self) -> int:
        return self.q.shape[0]

    @property
    def n_radial(self) -> int:
        return self.q_tilde.shape[1]

    def ells(self) -> np.ndarray:
        return np.arange(self.l_min, self.l_max + 1)

    def fingerprint(self) -> str:
        return _sha256(self.q, self.q_tilde, self.C, self.v,
                       np.int64([self.l_min, self.l_max]))


def _check_table_budget(p_max: int, l_min: int, l_max: int,
                        n_r: int) -> int:
    """A bound on the peak bytes of an n_r-point radial grid, the basis
    tables on it and their integration weights, sized with tracemalloc:
    q_tilde and its finiteness mask take 9 bytes per entry, and the grid
    and the spline weights' work arrays 136 bytes per radial point.  Over
    ``MEMORY_BUDGET`` is refused."""
    return _check_budget("basis tables need",
                         9 * p_max * n_r * (l_max - l_min + 1) + 136 * n_r)


def synthesize_basis(p_max: int, l_min: int, l_max: int,
                     grid: RadialGrid) -> BasisTables:
    """Deterministic synthetic basis tables.

    q_i is the shifted Legendre polynomial of degree i on the l range,
    C_l = 1/(l(l+1)), v_l = (2l+1)^(1/6), and q_tilde_i(r, l) =
    q_i(l) * w(r) with w peaked at the last-scattering radius plus a flat
    floor.  Bit-reproducible for fixed parameters.  Tables whose peak
    (``_check_table_budget``) would exceed ``MEMORY_BUDGET`` raise
    MemoryError before they are allocated.
    """
    if p_max < 1 or not 2 <= l_min <= l_max:
        raise ValueError("require p_max >= 1 and 2 <= l_min <= l_max")
    _check_table_budget(p_max, l_min, l_max, len(grid))
    ells = np.arange(l_min, l_max + 1, dtype=np.float64)
    span = max(l_max - l_min, 1)
    q = _legendre_rows(p_max, 2.0 * (ells - l_min) / span - 1.0)
    C = 1.0 / (ells * (ells + 1.0))
    v = (2.0 * ells + 1.0) ** (1.0 / 6.0)
    w = radial_peak_weight(grid.r)
    q_tilde = q[:, None, :] * w[None, :, None]
    return BasisTables(q=q, q_tilde=q_tilde, C=C, v=v,
                       l_min=l_min, l_max=l_max)

