"""File formats: echo records, magnetization snapshots, raw grids, PGM.

Everything numeric is little-endian float64; headers are single text
lines so the files stay trivially consumable by other tools.
"""

from __future__ import annotations

import json
import math
import time
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidParameter, ParseError

ECHO_MAGIC = "MRSIM1"


def write_echo_file(path: str, matrix: np.ndarray, manifest: Optional[dict] = None) -> None:
    """Echo output: text header ``MRSIM1 n_acq n_samples`` followed by
    little-endian float64 (re, im) pairs, acquisition-major.

    A JSON manifest with run metadata is always written alongside as
    ``<path>.manifest.json``.  It is strict JSON: a non-finite float is
    written as the string "inf", "-inf" or "nan", which ``float()`` reads
    back.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2:
        raise InvalidParameter(f"echo matrix must be 2-D, got shape {matrix.shape}")
    n_acq, n_samples = matrix.shape
    with open(path, "wb") as fh:
        fh.write(f"{ECHO_MAGIC} {n_acq} {n_samples}\n".encode("ascii"))
        interleaved = np.empty((n_acq, n_samples, 2))
        interleaved[:, :, 0] = matrix.real
        interleaved[:, :, 1] = matrix.imag
        fh.write(interleaved.astype("<f8").tobytes())
    meta = dict(manifest or {})
    meta.setdefault("written_at", time.strftime("%Y-%m-%dT%H:%M:%S%z"))
    meta["n_acq"] = n_acq
    meta["n_samples"] = n_samples
    with open(path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(_finite(meta), fh, indent=2, default=_json_default, allow_nan=False)
        fh.write("\n")


def _finite(obj):
    """``obj`` with every non-finite float, in lists and dict values too,
    as its string "inf", "-inf" or "nan"."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(float(obj))
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return obj


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return _finite(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return _finite(obj.item())
    return str(obj)


def read_echo_file(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        if len(header) != 3 or header[0] != ECHO_MAGIC:
            raise ParseError(f"{path} is not an echo file (bad header {header!r})")
        n_acq, n_samples = int(header[1]), int(header[2])
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != n_acq * n_samples * 2:
        raise ParseError(f"{path}: expected {n_acq * n_samples * 2} floats, found {data.size}")
    data = data.reshape(n_acq, n_samples, 2)
    return data[:, :, 0] + 1j * data[:, :, 1]


def write_snapshot_file(path: str, t: float, magnetization: np.ndarray) -> None:
    """Snapshot: text header ``n_spins t_s`` + float64 (Mx, My, Mz)
    triples in rasterization order."""
    arr = np.asarray(magnetization, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise InvalidParameter(f"snapshot must be (n, 3), got {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(f"{arr.shape[0]} {t!r}\n".encode("ascii"))
        fh.write(arr.astype("<f8").tobytes())


def read_snapshot_file(path: str) -> Tuple[float, np.ndarray]:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        if len(header) != 2:
            raise ParseError(f"{path} is not a snapshot file")
        n, t = int(header[0]), float(header[1])
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != 3 * n:
        raise ParseError(f"{path}: expected {3 * n} floats, found {data.size}")
    return t, data.reshape(n, 3)


def write_raw_grid(path: str, grid: np.ndarray) -> None:
    """Raw grid: text header ``nx ny dtype=c128|f64`` + little-endian
    payload, row-major with x fastest (grid indexed [y, x])."""
    grid = np.asarray(grid)
    if grid.ndim != 2:
        raise InvalidParameter(f"raw grid must be 2-D, got shape {grid.shape}")
    if np.iscomplexobj(grid):
        dtype, cast = "c128", "<c16"
    else:
        dtype, cast = "f64", "<f8"
    ny, nx = grid.shape
    with open(path, "wb") as fh:
        fh.write(f"{nx} {ny} dtype={dtype}\n".encode("ascii"))
        fh.write(np.ascontiguousarray(grid).astype(cast).tobytes())


def read_raw_grid(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        if len(header) != 3 or not header[2].startswith("dtype="):
            raise ParseError(f"{path} is not a raw grid file")
        nx, ny = int(header[0]), int(header[1])
        dtype = header[2].split("=", 1)[1]
        cast = {"c128": "<c16", "f64": "<f8"}.get(dtype)
        if cast is None:
            raise ParseError(f"{path}: unknown dtype {dtype}")
        data = np.frombuffer(fh.read(), dtype=cast)
    if data.size != nx * ny:
        raise ParseError(f"{path}: expected {nx * ny} values, found {data.size}")
    return data.reshape(ny, nx)


def write_pgm(path: str, image: np.ndarray, window: Optional[Tuple[float, float]] = None) -> None:
    """8-bit binary PGM (P5) after linear window/level mapping."""
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise InvalidParameter(f"image must be 2-D, got shape {img.shape}")
    if window is None:
        lo, hi = float(img.min()), float(img.max())
    else:
        lo, hi = float(window[0]), float(window[1])
    span = hi - lo
    if span <= 0.0:
        scaled = np.zeros_like(img)
    else:
        scaled = np.clip((img - lo) / span, 0.0, 1.0)
    data = np.round(scaled * 255.0).astype(np.uint8)
    ny, nx = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{nx} {ny}\n255\n".encode("ascii"))
        fh.write(data.tobytes())
