"""Spike-field coupling estimation, closed-form asymptotics, and MP significance testing."""

from .errors import (
    ConfigurationError,
    DomainError,
    NumericalError,
    SingularGramError,
    UndefinedEstimateError,
)
from .harness import ExperimentConfig, ExperimentReport, Tolerance, replicate_seed, run_experiment
from .multicoupling import (
    CouplingMatrix,
    SpectrumReport,
    build_coupling_matrix,
    ks_statistic,
    normalize,
    spectrum,
    whitened_coupling,
)
from .pointproc import (
    HomogeneousRate,
    IntensityModel,
    SinusoidRate,
    SpikeData,
    VonMisesRate,
    fourth_moment_oracle,
    simulate_poisson,
)
from .signals import (
    LinearPhase,
    SignalMatrix,
    synthesize_oscillations,
    whiten,
)
from .specfun import MpLaw, mp_cdf, mp_density, mp_law, von_mises_phasor, von_mises_sample
from .unicoupling import (
    AsymptoticLaw,
    estimate_plv,
    plv_asymptotics_sinusoid,
    plv_asymptotics_vonmises,
    plv_law_numeric,
    plv_null_test,
)

__version__ = "0.1.0"
