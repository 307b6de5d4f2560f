"""Central numerical tolerance constants.

One knob for all numerical gates; modules import from here instead of
hard-coding literals.
"""

# Hermiticity gate: max |H - H^dagger| entry.
HERM_TOL = 1e-9

# Eigen-reconstruction residual gate.
RESID_TOL = 1e-9

# Eigenvalues in [-PSD_CLAMP, 0) are clamped to 0 before sqrt/log.
PSD_CLAMP = 1e-9

# Slack for majorization partial-sum inequalities; boundary cases such as
# the .80 = .80 partial sum in the textbook catalysis pair must pass.
MAJ_TOL = 1e-9

# Two probability/trace totals are "equal" within this.
TRACE_TOL = 1e-9

# Schmidt coefficients below this count as zero rank.
RANK_TOL = 1e-10

# Bound entangled family checks (verify_family).
# Largest |tr(rho_x rho_y)| for two family members to count as orthogonal.
ORTHO_TOL = 1e-12
# Max entry change under an adjacent qubit swap for permutation symmetry.
PERM_TOL = 1e-12
# Max entry distance of each (n-1)-qubit marginal from I / 2^(n-1).
MARGINAL_TOL = 1e-12
# Even:even cuts are PPT when their smallest PT eigenvalue is >= -PPT_TOL.
PPT_TOL = 1e-9
# Max entry distance between a Pauli-conjugated rho+ and its sibling.
PAULI_TOL = 1e-9
# Unlock outcomes: |probability - 1/4| and 1 - Bell fidelity at most this.
UNLOCK_TOL = 1e-9
# 1:(n-1) cuts are NPT when their smallest PT eigenvalue is < -NPT_TOL.
NPT_TOL = 1e-6


def as_dict():
    """Tolerances as a plain dict, embedded in CLI reports."""
    return {
        "herm_tol": HERM_TOL,
        "resid_tol": RESID_TOL,
        "psd_clamp": PSD_CLAMP,
        "maj_tol": MAJ_TOL,
        "trace_tol": TRACE_TOL,
        "rank_tol": RANK_TOL,
        "ortho_tol": ORTHO_TOL,
        "perm_tol": PERM_TOL,
        "marginal_tol": MARGINAL_TOL,
        "ppt_tol": PPT_TOL,
        "pauli_tol": PAULI_TOL,
        "unlock_tol": UNLOCK_TOL,
        "npt_tol": NPT_TOL,
    }
