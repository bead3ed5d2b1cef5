"""Quantitative transport diagnostics for one-dimensional quasiperiodic
Schrodinger operators: continued-fraction arithmetic, periodic (Floquet)
spectral analysis, transfer-matrix growth, Abel-averaged transport moments,
and verification suites tying the pieces together.
"""

__version__ = "0.1.0"

from . import arithmetic, constants, errors, floquet, operator, transfer, \
    transport, verify  # noqa: F401
from .arithmetic import (  # noqa: F401
    Frequency,
    beta_estimate,
    construct_liouville_frequency,
    continued_fraction_expansion,
)
from .operator import (  # noqa: F401
    AmoSampling,
    Chain,
    FiniteOperator,
    PeriodicModel,
    TableSampling,
    ZeroSampling,
    finite_operator,
    periodic_model,
    sample_potential,
)
from .floquet import (  # noqa: F401
    Band,
    BandStructure,
    band_structure,
    derivative_sandwich,
    discriminant,
    discriminant_derivative,
    eigenvalue_derivative,
    floquet_eigensystem,
    floquet_matrix,
    measure_kappa_infimum,
    measure_uniform_lower_bound,
    phi_occupation_measure,
    spectral_measure_interval,
)
from .transfer import (  # noqa: F401
    LyapunovEstimate,
    TransferProduct,
    gordon_block_statistic,
    lyapunov_exponent,
    min_lyapunov_on_spectrum,
    transfer_product,
)
from .transport import (  # noqa: F401
    EvolutionConfig,
    TransportDistribution,
    TransportMoments,
    abel_probability_floquet,
    abel_probability_resolvent,
    abel_probability_time,
    abel_resolvent_profile,
    evolve,
    moments,
    probability_distribution,
    subsequence_times,
    truncation_radius,
)
from .verify import (  # noqa: F401
    bandwidth_proposition_check,
    calibrate_lower_bound,
    floquet_identity_suite,
    lower_bound_scan,
    theorem_demo,
    transport_consistency_suite,
)
