"""Exact genus spectra of finite abelian p-groups.

Minimum genus, reduced spectra, stable upper genus, spectral gaps, and
searches for non-isomorphic groups sharing a spectrum - all in unbounded
exact integer arithmetic.

Importing the package loads none of its engines.  Each public name, and each
engine submodule, is imported on first use (PEP 562), so a caller pays only
for the engines it uses.
"""

import importlib

__version__ = "0.1.0"

# Each public name with the submodule that defines it.  This table is the
# public API: __all__ is its keys, and no other list of the names is kept.
_HOMES = {
    name: module
    for module, names in {
        "conjecture": """RELATION_MIXED RELATION_SAME CounterexamplePair e3_family
            genus_progression rho search_counterexamples spectra_equal varying_exponent_pair""",
        "errors": """GenusSpectrumError InputError InvalidInvariantsError InvalidPrimeError
            OutOfFamilyError OutOfRangeError UnsupportedError VerificationError""",
        "group": "AbelianPGroup GroupInvariants e_prime invariants is_prime parse_group",
        "halfint": "HalfInt",
        "mainline": """INFINITY MainlineProfile envelope gap_norm hull is_mainline
            mainline_profile wp_eval""",
        "mingenus": """IndexMinimum IndexSet MinGenusReport attaining_datum epsilon_i index_set
            maclachlan_nu min_gamma_A mu0""",
        "signature": """PDatum alpha alpha_inv classify_gamma_seq gamma genus is_admissible
            parse_datum reduced_genus""",
        "spectrum": """GenusView SmallClass SpectrumDescriptor classify_small closed_form_spectrum
            full_spectrum genus_view group_for_spectrum has_large_invariants mu0_plus
            oracle_reduced_spectrum reduced_min_large scan_bound spectrum_bound_formula""",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    # Called only for a name not yet in globals().  The import lock serialises
    # concurrent first loads; the value is kept in globals(), so later lookups
    # of the name never reach here.
    if name in _HOMES.values():
        # a bare submodule: importing it binds it on the package
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = importlib.import_module(f"{__name__}.{_HOMES[name]}")
    value = globals()[name] = getattr(home, name)
    return value


def __dir__():
    return sorted(globals().keys() | _HOMES.keys())
