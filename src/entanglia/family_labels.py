"""Names of the activable bound entangled family, without numpy: the
command line builds its parser from them before it imports anything else,
and bound_entangled re-exports them."""

LABELS = ("rho+", "rho-", "sigma+", "sigma-")

# The seven family checks, in report order: the flags of a FamilyReport.
CHECKS = (
    "orthogonal",
    "permutation_symmetric",
    "even_cut_ppt",
    "single_vs_rest_npt",
    "pauli_connected",
    "reduced_max_mixed",
    "unlock_ok",
)
