"""Differentially private mechanisms for nonnegative queries.

Laplace-based releases constrained to [0, inf) by post-processing (ramp and
translated-ramp clamping), by restriction (renormalizing the law to the
nonnegative axis), or multiplicatively (releasing q * exp(noise)), together
with exact bias formulas, the worst-case-bias-optimal ramp translation, and
numerical/statistical verification of the privacy and bias guarantees.
"""

from .bias import (
    bias_bit,
    bias_ratio_restricted_vs_bit,
    bias_restricted,
    bias_translated_ramp,
    closed_form_bias,
    expectation_postprocessed_quadrature,
    expectation_translated_ramp,
    max_abs_bias_translated_ramp,
    optimal_alpha,
    quadrature_bias,
)
from .distributions import (
    LaplaceDist,
    RngState,
    laplace_cdf,
    laplace_pdf,
    laplace_quantile,
    log_laplace_mgf,
    sample_laplace,
)
from .mechanisms import (
    MechanismSpec,
    PostProcessor,
    PrivacyParams,
    Variant,
    adjacent_densities,
    apply_postprocessor,
    guaranteed_privacy_level,
    make_laplace_mechanism,
    make_multiplicative_mechanism,
    make_postprocessed_mechanism,
    make_restricted_mechanism,
    restricted_cdf,
    restricted_pdf,
    restricted_quantile,
    sample_mechanism,
    sample_restricted_inverse,
    sample_restricted_rejection,
)
from .queries import (
    Dataset,
    QueryDescriptor,
    QueryKind,
    evaluate_query,
    load_records,
    relative_bound_K,
    sensitivity,
)
from .verify import (
    DivergenceReport,
    DominanceResult,
    DpCertificate,
    McEstimate,
    certify_dp_densities,
    check_divergence_log_laplace,
    check_stochastic_dominance,
    coupling_bias_lower_bound,
    mc_bias,
)

__version__ = "0.1.0"
