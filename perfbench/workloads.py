"""Seeded benchmark workloads.

Each workload turns a seed into mrsim inputs (sequence, phantom,
system), runs one *operation* (simulation, reconstruction and, for the
CPMG workloads, the T2 fit) and checks the outputs.  The seed moves box
origins by sub-voxel offsets and scales T2 by up to 3 %, so every seed
asks for the same amount of work.  Only the generated inputs reach
mrsim; the simulator is driven through ``mrsim.run``,
``mrsim.simulate_kt``, ``mrsim.assemble_kspace``, ``mrsim.reconstruct``
and ``mrsim.cpmg_fit``, looked up at call time so a tracer can wrap them.

``size="tiny"`` shrinks every workload for the self-test; the benchmark
always runs ``size="full"``.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import mrsim
from mrsim.ktspace import box_spectrum
from mrsim.phantom import SHEPP_LOGAN_T1, shepp_logan_m0
from mrsim.system import complex_weight

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# reference echoes keep every REFERENCE_STRIDE-th acquisition; a result
# must match them to this difference energy (deterministic reduction
# reproduces them to -inf dB, a reassociated sum to about -300 dB)
REFERENCE_STRIDE = 8
REFERENCE_MAX_DB = -200.0
T2_JITTER = 0.03


@dataclass
class Outcome:
    """One operation's outputs plus its timings."""

    echoes: np.ndarray  # (acquisitions, samples), the compared result
    images: list
    time_to_image: float
    run_wall: Optional[float] = None  # wall time of mrsim.run
    spins: int = 0
    busy_fraction: Optional[float] = None  # program-reported, mean over workers
    fits: list = field(default_factory=list)
    rho_scale: float = 0.0  # image intensity of unit m0 (CPMG workloads)


def _thin_box(x0, y0, sx, sy, **props):
    return mrsim.PhantomBox(origin=(x0, y0, -5e-4), size=(sx, sy, 1e-3), **props)


def _quiet_run(exp):
    # overridden spacings warn when they exceed the relaxation-free bound
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return mrsim.run(exp)


class Workload:
    name = ""

    def __init__(self, seed: int, size: str = "full"):
        if size not in ("full", "tiny"):
            raise ValueError(f"unknown size {size!r}")
        self.seed = seed
        self.size = size
        self.rng = np.random.default_rng(seed)
        self.exp = self.build()

    def build(self) -> mrsim.Experiment:
        raise NotImplementedError

    def traced_experiment(self) -> mrsim.Experiment:
        """Experiment of the traced run: one process, same blocks."""
        return replace(self.exp, workers=1)

    def t2(self, nominal: float) -> float:
        return nominal * (1.0 + self.rng.uniform(-T2_JITTER, T2_JITTER))

    def offset(self, voxel: float) -> np.ndarray:
        return self.rng.uniform(-0.5, 0.5, size=2) * voxel

    def operate(self, exp: Optional[mrsim.Experiment] = None) -> Outcome:
        exp = self.exp if exp is None else exp
        started = time.perf_counter()
        result = _quiet_run(exp)
        run_wall = time.perf_counter() - started
        echoes = result.echo_matrix()
        outcome = Outcome(
            echoes=echoes,
            images=[],
            time_to_image=0.0,
            run_wall=run_wall,
            spins=result.spin_count,
            busy_fraction=float(np.mean(list(result.metrics.busy_fraction.values()))),
        )
        self.finish(outcome, result)
        outcome.time_to_image = time.perf_counter() - started
        return outcome

    def finish(self, outcome: Outcome, result) -> None:
        """Reconstruct (and fit) inside the timed region."""
        seq = self.exp.sequence
        volumes = mrsim.assemble_kspace(
            outcome.echoes, seq.trajectory_table(), n_rows=seq.meta["n"], fov=seq.meta["fov"]
        )
        outcome.images = [mrsim.reconstruct(k) for k in volumes]

    def check(self, outcome: Outcome) -> List[str]:
        """Physics checks valid for every seed; returns failure messages."""
        problems = []
        if not np.all(np.isfinite(outcome.echoes)):
            problems.append("echoes are not finite")
        return problems

    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.npy"

    def reference_echoes(self, echoes: np.ndarray) -> np.ndarray:
        return echoes[::REFERENCE_STRIDE]

    def check_reference(self, outcome: Outcome) -> List[str]:
        """Compare with the checked-in echoes of the default seed."""
        if self.seed != DEFAULT_SEED or self.size != "full":
            return []
        ref = np.load(self.reference_path())
        test = self.reference_echoes(outcome.echoes)
        if ref.shape != test.shape:
            return [f"reference shape {ref.shape} != result shape {test.shape}"]
        cmp = mrsim.compare_results(ref, test)
        if not cmp.delta_e_db <= REFERENCE_MAX_DB:
            return [
                f"echoes differ from the reference by {cmp.delta_e_db:.1f} dB "
                f"(limit {REFERENCE_MAX_DB} dB, {cmp.exceedances} samples off by "
                f"more than {cmp.rel_threshold:g})"
            ]
        return []


# ---------------------------------------------------------------------------
# TSE-128 through the worker pool
# ---------------------------------------------------------------------------


class Tse128Pool(Workload):
    name = "tse128_pool"

    def build(self):
        n = 128 if self.size == "full" else 32
        side = 0.07 if self.size == "full" else 0.03
        spacing = 1.4e-3
        fov = 0.5
        seq = mrsim.build_tse(
            fov=fov,
            n=n,
            turbo_factor=2,
            echo_spacing=0.04,
            tr=3.0,
            readout_grad=mrsim.readout_gradient(fov, n, 0.01),
        )
        dx, dy = self.offset(spacing)
        box = _thin_box(
            -side / 2 + dx, -side / 2 + dy, side, side, m0=1.0, t1=0.8, t2=self.t2(0.1)
        )
        self.expected_spins = int(math.floor(side / spacing + 1e-9)) ** 2
        return mrsim.Experiment(
            sequence=seq,
            phantom=mrsim.Phantom([box]),
            spacing=(spacing, spacing, 2e-3),
            workers=2,
            blocks=4,
        )

    def check(self, outcome):
        problems = super().check(outcome)
        if outcome.spins != self.expected_spins:
            problems.append(f"{outcome.spins} spins, expected {self.expected_spins}")
        return problems


# ---------------------------------------------------------------------------
# CPMG-12 relaxometry: spin route with automatic spacing, and k-t route
# ---------------------------------------------------------------------------

# (center, m0, T2) of the four tissue boxes; T1 = 0.3 s for all
CPMG_PROBES = (
    ((-0.09, -0.09), 0.9, 0.05),
    ((+0.09, -0.09), 0.7, 0.10),
    ((-0.09, +0.09), 0.5, 0.15),
    ((+0.09, +0.09), 0.3, 0.20),
)
CPMG_BOX = 0.09
CPMG_T1 = 0.3
CPMG_THICKNESS = 1e-3
CPMG_T2_TOL = 0.02  # crit. 9's tolerance
CPMG_MASK = 0.03


class Cpmg12Auto(Workload):
    name = "cpmg12_auto"
    matrix = 32

    def build(self):
        self.fov = 0.375
        self.n = self.matrix if self.size == "full" else 16
        # crit. 9 holds rho to 2 % at 64^2.  At 32^2, 9 spins per box side
        # on 11.7 mm pixels leave a partial-volume ripple of up to 3.3 %
        # in the masked mean as the seed moves the boxes against the
        # pixel grid; at 16^2 a box spans 3.8 pixels and truncation
        # ringing moves the masked mean by up to 9 %.
        self.rho_tol = 0.05 if self.n >= 32 else 0.10
        seq = mrsim.build_cpmg(
            fov=self.fov,
            n=self.n,
            n_echoes=12,
            dte=0.02,
            tr=2.0,
            readout_grad=mrsim.readout_gradient(self.fov, self.n, 0.012),
        )
        self.tissues = []
        boxes = []
        for (cx, cy), m0, t2 in CPMG_PROBES:
            dx, dy = self.offset(self.fov / self.n)
            center = (cx + dx, cy + dy)
            t2 = self.t2(t2)
            self.tissues.append((center, m0, t2))
            boxes.append(
                _thin_box(
                    center[0] - CPMG_BOX / 2,
                    center[1] - CPMG_BOX / 2,
                    CPMG_BOX,
                    CPMG_BOX,
                    m0=m0,
                    t1=CPMG_T1,
                    t2=t2,
                )
            )
        return mrsim.Experiment(sequence=seq, phantom=mrsim.Phantom(boxes), spacing=None)

    def finish(self, outcome, result):
        super().finish(outcome, result)
        outcome.rho_scale = (self.fov * self.fov) / (
            self.n * self.n * result.spin_count * result.spacing[0] * result.spacing[1]
        )
        self.fit(outcome)

    def fit(self, outcome):
        te = np.array(self.exp.sequence.meta["echo_times"])
        xs, ys = outcome.images[0].axis_coords(1), outcome.images[0].axis_coords(0)
        outcome.fits = []
        for (cx, cy), _m0, _t2 in self.tissues:
            mask = (np.abs(xs[None, :] - cx) <= CPMG_MASK) & (np.abs(ys[:, None] - cy) <= CPMG_MASK)
            series = np.array([img.magnitude[mask].mean() for img in outcome.images])
            outcome.fits.append(mrsim.cpmg_fit(te, series))

    def check(self, outcome):
        problems = super().check(outcome)
        for ((_c, m0, t2), fit) in zip(self.tissues, outcome.fits):
            rho_err = abs(fit.rho / outcome.rho_scale / m0 - 1.0)
            t2_err = abs(fit.t2 / t2 - 1.0)
            if rho_err > self.rho_tol or t2_err > CPMG_T2_TOL:
                problems.append(
                    f"tissue m0={m0}, T2={t2:.4f}: rho off by {100 * rho_err:.2f} % "
                    f"(limit {100 * self.rho_tol:.0f} %), T2 off by {100 * t2_err:.2f} % "
                    f"(limit {100 * CPMG_T2_TOL:.0f} %)"
                )
        return problems


class KtCpmg12(Cpmg12Auto):
    """The CPMG-12 design and tissues at 16^2; echoes predicted by the k-t engine."""

    name = "kt_cpmg12"
    # echo synthesis loops over configurations in Python; a 16^2 matrix
    # keeps one operation near a second
    matrix = 16
    _lattice_err = None

    def operate(self, exp=None):
        seq = self.exp.sequence
        started = time.perf_counter()
        echoes = 0.0
        for center, m0, t2 in self.tissues:
            kt = mrsim.simulate_kt(
                seq,
                mrsim.RelaxationParams(CPMG_T1, t2, 1.0),
                object_spectrum=box_spectrum(
                    (center[0], center[1], 0.0), (CPMG_BOX, CPMG_BOX, CPMG_THICKNESS), m0
                ),
                record_trace=False,
            )
            echoes = echoes + np.array(kt.echoes)
        outcome = Outcome(echoes=echoes, images=[], time_to_image=0.0)
        self.finish(outcome, None)
        outcome.time_to_image = time.perf_counter() - started
        return outcome

    def finish(self, outcome, result):
        Workload.finish(self, outcome, result)
        # box spectra carry the slab thickness instead of a spin count
        outcome.rho_scale = self.fov * self.fov * CPMG_THICKNESS / (self.n * self.n)
        self.fit(outcome)

    def spin_oracle(self):
        """Spin-engine run of the same phantom; returns (result, wall time)."""
        started = time.perf_counter()
        result = _quiet_run(self.exp)
        return result, time.perf_counter() - started

    def check_against_spins(self, outcome: Outcome, result) -> List[str]:
        """k-t echoes vs the spin engine's echoes of the same phantom.

        The spin engine samples each box on the automatic lattice, the
        k-t route sees the continuous box, so they may differ by the
        lattice's own discretization error: the relative difference
        between the lattice sum and the scaled box spectra over the
        image's k grid.  The echoes must agree to 1.5 times that.
        """
        spin_echoes = result.echo_matrix()
        cell = result.spacing[0] * result.spacing[1] * CPMG_THICKNESS
        predicted = outcome.echoes / (cell * result.spin_count)
        echo_err = np.linalg.norm(spin_echoes - predicted) / np.linalg.norm(spin_echoes)
        if self._lattice_err is None:
            self._lattice_err = self._lattice_error(result.spacing, cell)
        lattice_err = self._lattice_err
        if not echo_err <= 1.5 * lattice_err:
            return [
                f"k-t echoes differ from the spin echoes by {echo_err:.3e} (relative L2), "
                f"more than 1.5 times the lattice discretization error {lattice_err:.3e}"
            ]
        return []

    def _lattice_error(self, spacing, cell) -> float:
        k = self._k_grid()
        spins = mrsim.rasterize(self.exp.phantom, spacing)
        pos = np.array([s.position for s in spins])
        m0 = np.array([s.relax.m0 for s in spins])
        lattice = np.exp(-1j * (k @ pos.T)) @ m0
        continuous = np.zeros(k.shape[0], dtype=complex)
        for center, box_m0, _t2 in self.tissues:
            spectrum = box_spectrum(
                (center[0], center[1], 0.0), (CPMG_BOX, CPMG_BOX, CPMG_THICKNESS), box_m0
            )
            continuous += np.array([spectrum(kk) for kk in k]) / cell
        return float(np.linalg.norm(lattice - continuous) / np.linalg.norm(lattice))

    def _k_grid(self) -> np.ndarray:
        """(kx, ky, 0) of every k-space sample of one (square) image."""
        k0, dk = mrsim.recon.standard_axes(self.fov, self.n)
        axis = k0 + dk * np.arange(self.n)
        grid = np.zeros((self.n * self.n, 3))
        grid[:, 0] = np.tile(axis, self.n)
        grid[:, 1] = np.repeat(axis, self.n)
        return grid


# ---------------------------------------------------------------------------
# head phantom with field inhomogeneity and a loop coil
# ---------------------------------------------------------------------------

HEAD_SCALE = 0.255
HEAD_SPINS_PER_PIXEL = 1.5
HEAD_PEARSON_MIN = 0.95
HEAD_SPIN_TOL = 0.10


class Head96Loop(Workload):
    name = "head96_loop"

    def build(self):
        self.fov = 0.5
        self.n = 64 if self.size == "full" else 16
        seq = mrsim.build_spin_echo(
            fov=self.fov, n=self.n, te=0.05, tr=3.0, readout_grad=0.239e-3
        )
        spacing = self.fov / self.n / HEAD_SPINS_PER_PIXEL * 0.999
        # shift the ellipses with the box so the lattice sees the same head
        sx, sy = self.shift = self.offset(spacing)
        thickness = 1e-3
        t2 = self.t2(0.2)
        box = mrsim.PhantomBox(
            origin=(-HEAD_SCALE + sx, -HEAD_SCALE + sy, -thickness / 2.0),
            size=(2.0 * HEAD_SCALE, 2.0 * HEAD_SCALE, thickness),
            m0=lambda x, y, z: shepp_logan_m0(x - sx, y - sy, HEAD_SCALE),
            t1=SHEPP_LOGAN_T1,
            t2=t2,
        )
        self.coil = mrsim.CircularLoop(center=(0.0, 0.0, 0.1), normal=(0.0, 0.0, 1.0), diameter=0.15)
        system = mrsim.SystemModel(
            field=mrsim.StaticField(b0=1.5, inhomogeneity=mrsim.Legendre12Inhomogeneity(c=20e-6, r=0.25)),
            receive=self.coil,
        )
        # crit. 6 places 2120 spins at one per pixel of a 64^2 image
        self.expected_spins = 2120 * (HEAD_SPINS_PER_PIXEL * self.n / 64) ** 2
        self._reference = None
        return mrsim.Experiment(
            sequence=seq,
            phantom=mrsim.Phantom([box]),
            system=system,
            spacing=(spacing, spacing, 1.0),
        )

    def reference_image(self, img) -> np.ndarray:
        """Coil-weighted spin density on the image grid."""
        if self._reference is None:
            sx, sy = self.shift
            xs, ys = img.axis_coords(1), img.axis_coords(0)
            self._reference = np.array(
                [
                    [
                        shepp_logan_m0(x - sx, y - sy, HEAD_SCALE)
                        * abs(complex_weight(self.coil, (x, y, 0.0)))
                        for x in xs
                    ]
                    for y in ys
                ]
            )
        return self._reference

    def check(self, outcome):
        problems = super().check(outcome)
        img = outcome.images[0]
        ref = self.reference_image(img)
        pearson = float(np.corrcoef(img.magnitude.ravel(), ref.ravel())[0, 1])
        if not pearson >= HEAD_PEARSON_MIN:
            problems.append(f"image vs coil-weighted phantom: r = {pearson:.4f} < {HEAD_PEARSON_MIN}")
        if abs(outcome.spins - self.expected_spins) > HEAD_SPIN_TOL * self.expected_spins:
            problems.append(f"{outcome.spins} spins, expected {self.expected_spins:.0f} +- 10 %")
        return problems


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (Tse128Pool, Cpmg12Auto, Head96Loop, KtCpmg12)
}
