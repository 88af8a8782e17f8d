"""The package's public names and the engines' report fields, pinned.

A change that adds or drops a public name, or renames a report field, must
edit these lists on purpose.  ``__all__`` holds every public name of the
package namespace, so it lists the submodules that importing the package
loads as well.
"""

import dataclasses

import papradmm

PUBLIC_NAMES = [
    "AdmmParams",
    "CarrierPlan",
    "Constellation",
    "DegenerateSymbolError",
    "DirectReport",
    "MetricAccumulator",
    "RelaxReport",
    "c_update",
    "ccdf",
    "channel",
    "channel_frequency_response",
    "db_to_linear",
    "demap_bits",
    "descent_check",
    "direct",
    "direct_kkt_residual",
    "direct_solve",
    "dsp",
    "equalize_zero_forcing",
    "evm_db",
    "feasible_start_state",
    "fft_oversampled",
    "ifft_oversampled",
    "iteration_complexity_bound",
    "lambda_min_q",
    "map_bits",
    "metrics",
    "multipath_apply",
    "multipath_impulse_response",
    "multiplier_identity_residual",
    "noise_variance_per_sample",
    "papr",
    "papr_db",
    "params",
    "psd",
    "rcf",
    "relax",
    "relax_solve",
    "saturation_amplitude",
    "sspa",
    "subproblems",
    "sweep",
    "uw_update",
    "x_update",
    "z_projection",
]


def test_public_names_are_pinned():
    assert sorted(papradmm.__all__) == PUBLIC_NAMES


REPORT_FIELDS = {
    "DirectReport": [
        "iterations",
        "bypassed",
        "converged",
        "fcpo_active",
        "residual",
        "y_final",
        "mu_final",
    ],
    "RelaxReport": [
        "iterations",
        "bypassed",
        "converged",
        "fcpo_active",
        "residual",
        "lagrangian_initial",
        "lagrangian",
        "descent_lhs",
        "descent_rhs",
        "identity_residual",
        "consensus_gap",
        "sd_dist_initial",
        "sd_dist_final",
        "uw_gap_final",
        "u_final",
        "w_final",
        "feasible_start",
    ],
}


def test_report_fields_are_pinned():
    for name, fields in REPORT_FIELDS.items():
        report = getattr(papradmm, name)
        assert [f.name for f in dataclasses.fields(report)] == fields, name
