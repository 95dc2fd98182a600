"""Exact genus spectra of finite abelian p-groups.

Minimum genus, reduced spectra, stable upper genus, spectral gaps, and
searches for non-isomorphic groups sharing a spectrum - all in unbounded
exact integer arithmetic.
"""

from types import ModuleType as _ModuleType

from .conjecture import (
    RELATION_MIXED,
    RELATION_SAME,
    CounterexamplePair,
    e3_family,
    genus_progression,
    rho,
    search_counterexamples,
    spectra_equal,
    varying_exponent_pair,
)
from .errors import (
    GenusSpectrumError,
    InputError,
    InvalidInvariantsError,
    InvalidPrimeError,
    OutOfFamilyError,
    OutOfRangeError,
    UnsupportedError,
    VerificationError,
)
from .group import (
    AbelianPGroup,
    GroupInvariants,
    e_prime,
    invariants,
    is_prime,
    new_group,
    parse_group,
)
from .halfint import HalfInt
from .mainline import (
    INFINITY,
    MainlineProfile,
    envelope,
    gap_norm,
    hull,
    is_mainline,
    mainline_profile,
    wp_eval,
)
from .mingenus import (
    IndexMinimum,
    IndexSet,
    MinGenusReport,
    attaining_datum,
    epsilon_i,
    index_set,
    maclachlan_nu,
    min_gamma_A,
    mu0,
)
from .signature import (
    PDatum,
    alpha,
    alpha_inv,
    classify_gamma_seq,
    gamma,
    genus,
    is_admissible,
    parse_datum,
    reduced_genus,
)
from .spectrum import (
    GenusView,
    SmallClass,
    SpectrumDescriptor,
    classify_small,
    closed_form_spectrum,
    full_spectrum,
    genus_view,
    group_for_spectrum,
    has_large_invariants,
    mu0_plus,
    oracle_reduced_spectrum,
    reduced_min_large,
    scan_bound,
    spectrum_bound_formula,
)

__version__ = "0.1.0"

# The imports above are the public API: export every name they bind except
# the submodules, which binding a relative import also sets.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
