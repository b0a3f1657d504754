"""Spin-based magnetic resonance imaging simulator.

Point-spin magnetizations evolve through user-defined pulse sequences
via analytic rotating-frame operators; a configuration-tracking (k-t)
engine predicts echoes and derives the spatial discretization the spin
simulation needs; simulation is parallelized by domain decomposition
over spin blocks.
"""

from .bloch import (
    GAMMA_PROTON,
    FrameContext,
    HardPulse,
    Magnetization,
    RelaxationParams,
    apply_gradient_interval,
    apply_hard_pulse,
    apply_precess_relax,
    apply_shaped_pulse,
    equilibrium,
    small_tip_response,
)
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
    simulate_spin,
)
from .errors import (
    ComplexOrderZero,
    EnvelopeUndersampled,
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
    ConfigurationSet,
    apply_gradient_shift,
    apply_relax_interval,
    apply_rf_split,
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
    coil_weight,
    default_system,
    delta_b0,
    parse_system_file,
    spin_off_resonance,
)

__version__ = "0.1.0"
