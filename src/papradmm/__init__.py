"""OFDM PAPR reduction by ADMM splitting, with a link-level simulation harness."""

from .dsp import (
    CarrierPlan,
    Constellation,
    DegenerateSymbolError,
    demap_bits,
    fft_oversampled,
    ifft_oversampled,
    map_bits,
    papr,
    papr_db,
)
from .params import AdmmParams, db_to_linear
from .subproblems import (
    c_update,
    uw_update,
    x_update,
    z_projection,
)
from .direct import DirectReport, direct_kkt_residual, direct_solve
from .relax import (
    RelaxReport,
    descent_check,
    feasible_start_state,
    lambda_min_q,
    multiplier_identity_residual,
    relax_solve,
    iteration_complexity_bound,
)
from .rcf import rcf
from .channel import (
    channel_frequency_response,
    equalize_zero_forcing,
    multipath_apply,
    multipath_impulse_response,
    noise_variance_per_sample,
    saturation_amplitude,
    sspa,
)
from .metrics import MetricAccumulator, ccdf, evm_db, psd

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
