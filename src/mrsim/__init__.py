"""Spin-based magnetic resonance imaging simulator.

Point-spin magnetizations evolve through user-defined pulse sequences
via analytic rotating-frame operators; a configuration-tracking (k-t)
engine predicts echoes and derives the spatial discretization the spin
simulation needs; simulation is parallelized by domain decomposition
over spin blocks.
"""

from .bloch import GAMMA_PROTON, HardPulse, RelaxationParams
from .discretize import acquisition_params, max_spacing, rf_sampling_check, steady_state_prune
from .engine import (
    EchoRecord,
    Experiment,
    RunMetrics,
    RunResult,
    compare_results,
    compute_block,
    delta_e_stoer,
    precompute_sequence_tables,
    run,
)
from .errors import (
    ComplexOrderZero,
    FitDiverged,
    IncommensurateMoments,
    InvalidParameter,
    MrSimError,
    OutOfGrid,
    ParseError,
    SpinBudgetExceeded,
    TimingInfeasible,
    TrajectoryMismatch,
    UnitError,
    WorkerPanic,
)
from .ktspace import (
    derive_unit_k,
    export_kt_diagram,
    max_k_excursion,
    simulate_kt,
    synthesize_echo,
)
from .phantom import (
    Phantom,
    PhantomBox,
    SpinList,
    SpinSample,
    parse_object_file,
    rasterize,
    shepp_logan,
)
from .recon import ImageVolume, KSpaceMatrix, assemble_kspace, cpmg_fit, reconstruct
from .sequence import (
    AcquisitionSpec,
    ElementarySequence,
    GradientWaveform,
    Sequence,
    build_cpmg,
    build_gradient_epi,
    build_spin_echo,
    build_tse,
    parse_sequence_file,
    readout_gradient,
    serialize_sequence,
)
from .system import (
    CircularLoop,
    Legendre12Inhomogeneity,
    StaticField,
    SystemModel,
    UniformSensitivity,
    default_system,
    parse_system_file,
    spin_off_resonance,
)

__version__ = "0.1.0"
