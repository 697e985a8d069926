"""What both engines share: the dense projection-matrix container, the
provenance ``meta`` builder and the memory budget."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

__all__ = ["GammaMatrix"]

# bytes one engine's table or working block may take before it is refused
MEMORY_BUDGET = 2 << 30


def _check_budget(what: str, need: int) -> int:
    """``need``, the bytes that ``what`` needs: refused over the budget."""
    if need > MEMORY_BUDGET:
        raise MemoryError(f"{what} {need} bytes but the budget allows "
                          f"{MEMORY_BUDGET}")
    return need


@dataclass
class GammaMatrix:
    """Projection matrix: rows are late-time modes n, columns primordial
    modes n'.  ``meta`` records full provenance (engine id, l range,
    p_max, integrator, input fingerprints, engine knobs)."""

    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError("gamma matrix must be 2-dimensional")
        if not np.all(np.isfinite(v)):
            raise ValueError("gamma matrix contains non-finite entries")
        self.values = v

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@cache
def _blas() -> str:
    """name-version of the BLAS numpy was built with, without spaces; the
    bits of every GEMM depend on it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return "".join(f"{blas['name']}-{blas['version']}".split())
    except (TypeError, KeyError):
        return "unknown"


def _base_meta(tables, grid, mapping, engine, integrator, extra=None):
    """Plain-Python provenance ``meta`` shared by every engine and oracle."""
    meta = {
        "engine": engine,
        "l_min": int(tables.l_min),
        "l_max": int(tables.l_max),
        "p_max": tables.p_max,
        "n_max": mapping.n_max,
        "integrator": integrator,
        "tables": tables.fingerprint(),
        "grid": grid.fingerprint(),
        "mapping": mapping.fingerprint(),
        "blas": _blas(),
    }
    if extra:
        meta.update(extra)
    return meta
