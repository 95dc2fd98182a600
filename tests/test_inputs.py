import inspect

import pytest

from genus_spectrum import (
    AbelianPGroup,
    InputError,
    attaining_datum,
    e3_family,
    envelope,
    epsilon_i,
    gamma,
    group_for_spectrum,
    is_mainline,
    is_prime,
    maclachlan_nu,
    mainline_profile,
    min_gamma_A,
    rho,
    search_counterexamples,
    spectrum_bound_formula,
    varying_exponent_pair,
    wp_eval,
)

G = AbelianPGroup(2, (1, 1, 1))  # exponent p^3, large invariants, not cyclic

# (function, valid arguments, position of the int parameter under test)
SCALARS = [
    (is_prime, (43,), 0),
    (rho, (2,), 0),
    (varying_exponent_pair, (3,), 0),
    (spectrum_bound_formula, (2, 3), 0),
    (spectrum_bound_formula, (2, 3), 1),
    (group_for_spectrum, (2, 3, 34), 0),
    (group_for_spectrum, (2, 3, 34), 1),
    (group_for_spectrum, (2, 3, 34), 2),
    (wp_eval, (2, (1, 1)), 0),
    (envelope, (2, (3, 1)), 0),
    (is_mainline, (2, (2, 1), 7), 0),
    (is_mainline, (2, (2, 1), 7), 2),
    (mainline_profile, (2, (2, 1)), 0),
    (gamma, (2, 2, (2, 2, 0)), 0),
    (gamma, (2, 2, (2, 2, 0)), 1),
    (epsilon_i, (G, 1), 1),
    (min_gamma_A, (G, 1), 1),
    (attaining_datum, (G, 1), 1),
    (maclachlan_nu, (G, 0), 1),
    (e3_family, (G, 0), 1),
    (search_counterexamples, (2, 3, 2, 5), 0),
    (search_counterexamples, (2, 3, 2, 5), 1),
    (search_counterexamples, (2, 3, 2, 5), 2),
    (search_counterexamples, (2, 3, 2, 5), 3),
]


def _scalar_id(case) -> str:
    fn, _, k = case
    return f"{fn.__name__}-{list(inspect.signature(fn).parameters)[k]}"


@pytest.mark.parametrize("bad", [float, str, lambda v: None], ids=["float", "str", "None"])
@pytest.mark.parametrize("fn, args, k", SCALARS, ids=map(_scalar_id, SCALARS))
def test_non_integer_scalars_are_refused(fn, args, k, bad):
    # 2.0 or "2" in place of 2 would compute with a float, or fail as a
    # TypeError far from the argument; every int parameter is an int on entry
    fn(*args)  # the valid call passes
    args = list(args)
    args[k] = bad(args[k])
    with pytest.raises(InputError):
        fn(*args)
