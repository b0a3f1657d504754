"""K-space assembly, inverse-FFT reconstruction and relaxometry fitting.

Transform conventions (pinned by the Parseval and round-trip tests):
the k sample of column n sits at k_n = k0 + n*dk; image pixel p sits at
x_p = (p - N/2)*dx with dx = 2*pi/(N*dk) (k-space center at matrix
index N/2 for even N); the inverse transform carries the 1/N
normalization per axis and is evaluated as a centered FFT with an exact
phase correction for the half-sample offset of symmetric readouts.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import List, Optional, Sequence as TySequence, Tuple

import numpy as np

from .errors import FitDiverged, InvalidParameter, TrajectoryMismatch


@dataclass
class KSpaceMatrix:
    """Complex sample grid of one image volume.

    ``k0``/``dk`` give the spatial frequency of row/column 0 and the
    step per axis ((ky0, kx0), (dky, dkx)); rows never filled are marked
    in ``row_filled``.
    """

    data: np.ndarray  # (ny, nx) complex
    row_filled: np.ndarray  # (ny,) bool
    k0: Tuple[float, float]
    dk: Tuple[float, float]
    volume: int = 0


@dataclass
class ImageVolume:
    """Reconstructed image: magnitude and phase on a centered grid."""

    complex_image: np.ndarray
    pixel_size: Tuple[float, float]

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.complex_image)

    @property
    def phase(self) -> np.ndarray:
        return np.angle(self.complex_image)

    def axis_coords(self, axis: int) -> np.ndarray:
        n = self.complex_image.shape[axis]
        return (np.arange(n) - n // 2) * self.pixel_size[axis]


def standard_axes(fov: float, n: int) -> Tuple[float, float]:
    """(k0, dk) of an n-sample symmetric readout over the given FOV."""
    dk = 2.0 * math.pi / fov
    return (-(n - 1) / 2.0 * dk, dk)


def trajectory_table(mode: str, n_acq: int) -> List[tuple]:
    """Built-in (volume, row, reversed) tables.

    ``se``: one row per acquisition in order; ``epi``: meandering, odd
    acquisitions sample-reversed; ``tse-seq``: the ``se`` table, which
    sequential sorting fills for any turbo factor.
    """
    if mode in ("se", "tse-seq"):
        return [(0, i, False) for i in range(n_acq)]
    if mode == "epi":
        return [(0, i, i % 2 == 1) for i in range(n_acq)]
    raise InvalidParameter(f"unknown trajectory mode {mode!r}")


def assemble_kspace(
    echoes: np.ndarray,
    trajectory: TySequence[tuple],
    n_rows: Optional[int] = None,
    fov: Optional[float] = None,
) -> List[KSpaceMatrix]:
    """Sort echo records into k-space matrices (one per volume).

    ``trajectory`` holds one (volume, row, reversed) triple per
    acquisition; reversed rows are sample-flipped before placement.
    Every row must be filled at most once per volume; missing rows stay
    zero and are flagged.  Without ``n_rows`` the matrix runs to the
    largest row.  Raises InvalidParameter for a ``fov`` that is not > 0
    and finite and an ``n_rows`` that is not an integer >= 1, and
    TrajectoryMismatch for an acquisition without a row (None), a row
    outside the matrix, or for no row >= 0 to size it by.
    """
    if fov is not None and not 0.0 < fov < math.inf:
        raise InvalidParameter(f"fov must be > 0 and finite, got {fov!r}")
    if n_rows is not None and not (isinstance(n_rows, numbers.Integral) and n_rows >= 1):
        raise InvalidParameter(f"n_rows must be an integer >= 1, got {n_rows!r}")
    echoes = np.asarray(echoes, dtype=complex)
    if echoes.ndim != 2:
        raise InvalidParameter(f"echo matrix must be 2-D, got {echoes.shape}")
    if len(trajectory) != echoes.shape[0]:
        raise TrajectoryMismatch(
            f"{echoes.shape[0]} acquisitions but {len(trajectory)} trajectory entries"
        )
    rowless = [acq for acq, (_, row, _) in enumerate(trajectory) if row is None]
    if rowless:
        raise TrajectoryMismatch(f"acquisition {rowless[0]} has no k-space row")
    nx = echoes.shape[1]
    volumes = sorted({int(v) for v, _, _ in trajectory})
    if n_rows is None:
        n_rows = max((int(r) for _, r, _ in trajectory), default=-1) + 1
        if n_rows < 1:
            raise TrajectoryMismatch("no row >= 0 in the trajectory to size the matrix by")
    if fov is not None:
        kx0, dkx = standard_axes(fov, nx)
        ky0, dky = standard_axes(fov, n_rows)
    else:
        kx0, dkx = standard_axes(2.0 * math.pi, nx)
        ky0, dky = standard_axes(2.0 * math.pi, n_rows)
    out = []
    for vol in volumes:
        data = np.zeros((n_rows, nx), dtype=complex)
        filled = np.zeros(n_rows, dtype=bool)
        for acq, (v, row, rev) in enumerate(trajectory):
            if int(v) != vol:
                continue
            row = int(row)
            if not 0 <= row < n_rows:
                raise TrajectoryMismatch(f"row {row} outside matrix of {n_rows} rows")
            if filled[row]:
                raise TrajectoryMismatch(f"row {row} of volume {vol} filled twice")
            line = echoes[acq]
            data[row] = line[::-1] if rev else line
            filled[row] = True
        out.append(
            KSpaceMatrix(
                data=data,
                row_filled=filled,
                k0=(ky0, kx0),
                dk=(dky, dkx),
                volume=vol,
            )
        )
    return out


def _centered_ifft2(data: np.ndarray) -> np.ndarray:
    return np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(data)))


def _centered_fft2(data: np.ndarray) -> np.ndarray:
    return np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(data)))


def _offset_phase(k: KSpaceMatrix) -> Tuple[np.ndarray, np.ndarray, Tuple[float, float]]:
    ny, nx = k.data.shape
    dy = 2.0 * math.pi / (ny * k.dk[0])
    dx = 2.0 * math.pi / (nx * k.dk[1])
    y = (np.arange(ny) - ny // 2) * dy
    x = (np.arange(nx) - nx // 2) * dx
    koff_y = k.k0[0] + (ny // 2) * k.dk[0]
    koff_x = k.k0[1] + (nx // 2) * k.dk[1]
    return np.exp(1j * koff_y * y)[:, None], np.exp(1j * koff_x * x)[None, :], (dy, dx)


def reconstruct(k: KSpaceMatrix) -> ImageVolume:
    """Centered inverse DFT of a k-space matrix.

    Exact for the actual sample positions: symmetric readouts place
    samples half a step off the integer FFT grid, which the phase ramp
    below compensates; without it every reconstructed phase map would
    carry a spurious linear ramp.
    """
    py, px, (dy, dx) = _offset_phase(k)
    img = _centered_ifft2(k.data) * py * px
    return ImageVolume(complex_image=img, pixel_size=(dy, dx))


def forward_dft(img: ImageVolume, k0: Tuple[float, float], dk: Tuple[float, float]) -> KSpaceMatrix:
    """Adjoint-convention forward transform (test partner of reconstruct)."""
    ny, nx = img.complex_image.shape
    template = KSpaceMatrix(
        data=np.zeros((ny, nx), dtype=complex),
        row_filled=np.ones(ny, dtype=bool),
        k0=k0,
        dk=dk,
    )
    py, px, _ = _offset_phase(template)
    data = _centered_fft2(img.complex_image / (py * px))
    template.data = data
    return template


# ---------------------------------------------------------------------------
# relaxometry fit
# ---------------------------------------------------------------------------


# convergence tolerance and evaluation budget of the T2 fit
_FIT_TOL = 1e-10
_FIT_MAX_NFEV = 300


@dataclass(frozen=True)
class ExponentialFit:
    rho: float
    t2: float
    residual_norm: float


def cpmg_fit(times, intensities) -> ExponentialFit:
    """Fit I(t) = rho * exp(-t/T2) to a pixel-intensity series.

    Damped least squares seeded by a log-linear regression; raises
    FitDiverged when no decay is observable within the sampled window
    (T2 far beyond the largest echo time) or the iteration fails, and
    InvalidParameter for times or intensities that are not finite.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(intensities, dtype=float)
    if t.shape != y.shape or t.size < 2:
        raise InvalidParameter("need equally many times and intensities (>= 2)")
    for name, values in (("times", t), ("intensities", y)):
        bad = int(np.count_nonzero(~np.isfinite(values)))
        if bad:
            raise InvalidParameter(f"{name} must be finite; {bad} of {values.size} are not")
    positive = y > 0
    if np.sum(positive) < 2:
        raise FitDiverged("intensity series has fewer than two positive samples")
    slope, intercept = np.polyfit(t[positive], np.log(y[positive]), 1)
    span = float(t.max() - t.min())
    if slope >= 0.0 or -1.0 / slope > 100.0 * span:
        raise FitDiverged("no decay observable within the sampled echo times")
    seed = np.array([math.exp(intercept), -1.0 / slope])
    (rho, t2), residual, converged = _fit_decay(t, y, seed)
    if not converged or t2 > 1000.0 * span:
        raise FitDiverged(f"fit did not converge (T2 = {t2:.3g})")
    return ExponentialFit(
        rho=float(rho),
        t2=float(t2),
        residual_norm=float(np.linalg.norm(residual)),
    )


def _fit_decay(t, y, x):
    """Levenberg-Marquardt least squares of rho * exp(-t/T2) - y over
    x = (rho, T2), from the seed x; returns (x, residual, converged).

    The damping is Marquardt's, a multiple of diag(J^T J), and is
    updated by the gain ratio as Nielsen proposes (Madsen, Nielsen and
    Tingleff, *Methods for Non-Linear Least Squares Problems*, 2004).
    A step to T2 <= 0 is refused like one that raises the cost.  It
    has converged when the residual is orthogonal to every column of J
    to within ``_FIT_TOL`` (MINPACK's gtol), or when a step, measured
    in the column norms of J, is at most ``_FIT_TOL`` of x (its xtol).
    MINPACK's third test, a gain of at most ``_FIT_TOL`` of the cost,
    is left out: on a noisy series it can stop with the parameters
    still sqrt(_FIT_TOL) of their noise uncertainty from the minimum.
    Each evaluation of the model counts against ``_FIT_MAX_NFEV``.
    """
    tol = _FIT_TOL

    def evaluate(x):
        decay = np.exp(-t / x[1])
        return x[0] * decay - y, decay

    r, decay = evaluate(x)
    cost = float(r @ r)
    nfev, damping, growth, relinearize = 1, 1e-3, 2.0, True
    while nfev < _FIT_MAX_NFEV:
        if relinearize:
            jac = np.column_stack([decay, x[0] * t / (x[1] * x[1]) * decay])
            g, a = jac.T @ r, jac.T @ jac
            scale = np.sqrt(np.diag(a))  # column norms of J
            if not np.all(scale > 0.0):
                return x, r, False  # a parameter that moves no residual
            if not np.any(np.abs(g) > tol * scale * math.sqrt(cost)):
                return x, r, True
        step = np.linalg.solve(a + damping * np.diag(scale * scale), -g)
        trial = x + step
        # cost - |r + J step|^2, written without its cancellation
        predicted = float(step @ a @ step + 2.0 * damping * np.sum((scale * step) ** 2))
        small_step = np.linalg.norm(scale * step) <= tol * np.linalg.norm(scale * x)
        if trial[1] > 0.0:
            r_trial, decay_trial = evaluate(trial)
            nfev += 1
            cost_trial = float(r_trial @ r_trial)
            actual = cost - cost_trial
        else:
            actual = -math.inf
        relinearize = actual > 0.0
        if relinearize:
            x, r, decay, cost = trial, r_trial, decay_trial, cost_trial
            damping *= max(1.0 / 3.0, 1.0 - (2.0 * actual / predicted - 1.0) ** 3)
            growth = 2.0
        else:
            damping *= growth
            growth *= 2.0
        if small_step:
            return x, r, True
    return x, r, False


def export_image(img: ImageVolume, path: str, window: Optional[Tuple[float, float]] = None):
    """Write the magnitude as 8-bit PGM plus the raw complex grid.

    The raw grid (``<path>.raw``) is the archival output; the PGM is a
    windowed preview only.
    """
    from .io import write_pgm, write_raw_grid

    write_pgm(path, img.magnitude, window=window)
    write_raw_grid(path + ".raw", img.complex_image)
    return path
