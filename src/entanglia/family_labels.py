"""Names of the activable bound entangled family, without numpy: the
command line builds its parser from them before it imports anything else,
family_classes reads them, and bound_entangled re-exports them."""

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

# Bell state paired with each measurement outcome, per family label.
PAIRING = {
    "rho+": {"rho+": "phi+", "rho-": "phi-", "sigma+": "psi+", "sigma-": "psi-"},
    "rho-": {"rho+": "phi-", "rho-": "phi+", "sigma+": "psi-", "sigma-": "psi+"},
    "sigma+": {"rho+": "psi+", "rho-": "psi-", "sigma+": "phi+", "sigma-": "phi-"},
    "sigma-": {"rho+": "psi-", "rho-": "psi+", "sigma+": "phi-", "sigma-": "phi+"},
}
