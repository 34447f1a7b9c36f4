"""Differentially private mechanisms for nonnegative queries.

Laplace-based releases constrained to [0, inf) by post-processing (ramp and
translated-ramp clamping), by restriction (renormalizing the law to the
nonnegative axis), or multiplicatively (releasing q * exp(noise)), together
with exact bias formulas, the worst-case-bias-optimal ramp translation, and
numerical/statistical verification of the privacy and bias guarantees.
"""

from .bias import *
from .distributions import *
from .mechanisms import *
from .queries import *
from .verify import *

__version__ = "0.1.0"
