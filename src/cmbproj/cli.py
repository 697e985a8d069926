"""Command-line driver.

Exit status: 0 on success, 2 for configuration errors, 3 for numerical
errors, 4 for I/O or file-format errors.  Flags override values from an
optional key=value config file.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from typing import NamedTuple

from .basis import MappingFormatError
from .geometry import H2_MODES
from .harness import (FORMATS, INTEGRATOR_NAMES, MODES, ConfigError,
                      GammaFormatError, RunConfig, _csv_lines, _write_lines,
                      run_convergence_study, run_crosscheck, run_gamma,
                      serialize_gamma)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

# glibc's mallopt parameters and the values the command line sets for its
# own process.  The engines allocate and free each radial slab's
# temporaries (a few MB) in turn; at glibc's defaults these are mapped
# and unmapped, or trimmed from the heap top, and each slab faults its
# pages in afresh.  Temporaries of up to 32 MiB come from the heap, and up
# to 64 MiB of freed heap stays mapped, so each slab reuses the last
# slab's pages; larger arrays, such as a big P table, are still mapped and
# returned.  Both are set: on a ladder run (--mode convergence --lmax 16
# --pmax 3, 2 vCPUs) either alone was slower than glibc's defaults
# (0.60 s trim, 0.45 s mmap, 0.39 s default), and both together took
# 0.29 s.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


class _Key(NamedTuple):
    field: str                      # RunConfig attribute
    type: type = str
    choices: tuple | None = None
    help: str | None = None


# Every run setting: the config-file key is the flag name without "--".
_KEYS = {
    "mode": _Key("mode", choices=MODES),
    "lmin": _Key("l_min", int),
    "lmax": _Key("l_max", int),
    "pmax": _Key("p_max", int),
    "mapping": _Key("mapping", help="'default' or a modalmap v1 file path"),
    "r-samples": _Key("r_samples", int),
    "integrator": _Key("integrator", choices=INTEGRATOR_NAMES),
    "h2": _Key("h2_mode", choices=H2_MODES),
    "block": _Key("block", int),
    "workers": _Key("workers", int),
    "out": _Key("out"),
    "format": _Key("fmt", choices=FORMATS),
}


def _parse_config_file(path) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        s = line.split("#", 1)[0].strip()
        if not s:
            continue
        if "=" not in s:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, raw = s.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _KEYS[key].type(raw.strip())
        except ValueError as exc:
            raise ConfigError(
                f"{path}:{lineno}: bad value for {key!r}") from exc
    return values


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cmbproj",
        description="Projection-matrix computation between primordial and "
                    "late-time bispectrum bases.")
    for key, spec in _KEYS.items():
        p.add_argument(f"--{key}", type=spec.type, choices=spec.choices,
                       help=spec.help)
    p.add_argument("--config", help="key=value config file; flags override")
    return p


def config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if args.config:
        for key, value in _parse_config_file(args.config).items():
            setattr(config, _KEYS[key].field, value)
    for key, spec in _KEYS.items():
        value = getattr(args, key.replace("-", "_"))
        if value is not None:
            setattr(config, spec.field, value)
    return config.validate()


def _set_allocator_policy() -> None:
    """Set the mmap and trim thresholds above, where the C library is
    glibc; elsewhere do nothing.  Library callers keep their defaults."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    _set_allocator_policy()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        if config.mode in ("gamma2d", "gamma3d"):
            gamma = run_gamma(config)
            if config.out:
                serialize_gamma(gamma, config.out, config.fmt)
                print(f"wrote {gamma.shape[0]}x{gamma.shape[1]} matrix "
                      f"to {config.out} ({config.fmt})")
            else:
                frobenius = float((gamma.values**2).sum())**0.5
                _emit([f"matrix {gamma.shape[0]}x{gamma.shape[1]} "
                       f"frobenius={frobenius:.17g}"], config)
        elif config.mode == "crosscheck":
            _emit(run_crosscheck(config).lines(), config)
        elif config.mode == "convergence":
            _emit(_csv_lines(run_convergence_study(config)), config)
        return EXIT_OK
    except (ConfigError, MappingFormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FloatingPointError, MemoryError, RuntimeError,
            ZeroDivisionError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, GammaFormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def _emit(lines, config) -> None:
    """The provenance header and ``lines``: written atomically to ``--out``
    if it is set, else printed."""
    lines = config.header_lines() + lines
    if config.out:
        _write_lines(config.out, lines)
        print(f"wrote {len(lines)} lines to {config.out}")
    else:
        for line in lines:
            print(line)


if __name__ == "__main__":
    sys.exit(main())
