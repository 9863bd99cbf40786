"""Numerical operator calculus for the magnetic algebra of the Landau levels.

Exact coefficient arithmetic, the truncated Dirac phase module, singular-value
laws with Dixmier extrapolation, and the three equal cyclic 2-cocycles (trace
pairing, Dirac character, Fredholm character) with their integer pairings.
"""

from .algebra import (
    MagneticElement,
    UnitalElement,
    compose,
    trace_int,
    spatial_derivative,
    random_element,
    landau_projection,
    projection_sum,
    upsilon,
    conjugated_projection,
)
from .basis import (
    QuadratureScheme,
    eval_generalized_laguerre,
    eval_basis_function,
)
from .cocycles import (
    CocycleValue,
    psi,
    gap_label,
    chern_number,
    nc_integral,
    ch_dix,
    ch_hat,
    tau2,
    hochschild_b,
)
from .dirac import DiracContext, QuartetOperator, build_dirac, dirac_phase, reg_inverse
from .kernel import KernelFunction, kernel_of, trace_per_unit_volume
from .spectra import (
    SingularSpectrum,
    IdealVerdict,
    singular_values,
    closed_form_mu,
    classify_decay,
    verify_quasi_even,
)

__version__ = "0.1.0"
