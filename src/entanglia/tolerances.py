"""Central numerical tolerance constants.

The one knob for every numerical gate: modules read these names, no
public function takes a tolerance argument, and `as_dict()` (echoed in
every CLI report) lists every constant defined here.
"""

# Hermiticity gate: max |H - H^dagger| entry.
HERM_TOL = 1e-9

# Eigenvalues in [-PSD_CLAMP, 0) are numerical noise: clamped to 0 before
# sqrt/log, and not a violation of the reduction criterion.
PSD_CLAMP = 1e-9

# Slack for majorization partial-sum inequalities; boundary cases such as
# the .80 = .80 partial sum in the textbook catalysis pair must pass.
MAJ_TOL = 1e-9

# Two totals are "equal" within this: probability sums, traces, and
# (squared) norms against 1.
TRACE_TOL = 1e-9

# Schmidt coefficients below this count as zero rank (Schmidt decomposition).
RANK_TOL = 1e-10

# Entries at or below this count as zero where a support is read off:
# stripped trailing Schmidt coefficients in locc, the Tiles complement rank.
# A separate decision from RANK_TOL, kept at its own value.
ZERO_TOL = 1e-12

# Negative probability entries down to -NOISE_TOL are rounding noise and
# clamped to 0; anything lower is rejected.
NOISE_TOL = 1e-12

# Largest imaginary part a doubly stochastic matrix may carry.
IMAG_TOL = 1e-12

# An eigenvector's phase is fixed by its first component above this modulus.
PHASE_TOL = 1e-12

# Two Schmidt coefficients within this are tied (classify's interleaving
# chains and strong-incomparability test, distinct-entry checks).
TIE_TOL = 1e-9

# Open interval ends are kept this far away: the catalyst grid stops below
# c = 1, split2's interval stays below 1/2, and it and each piece of its
# window are empty unless start < end - this.
INTERVAL_MARGIN = 1e-12

# cardan_roots accepts G >= -CARDAN_TOL and H^2 <= 4 G^3 + CARDAN_TOL.
CARDAN_TOL = 1e-12

# Angle gadget cases: B within this of 0 is "B=0", A within this of 1/4 is
# "A=1/4".
CASE_TOL = 1e-12

# Bloch vectors: |n| <= 1 + BLOCH_TOL.
BLOCH_TOL = 1e-9

# Maximally entangled fraction above 1/d + FMAX_TOL flags entanglement.
FMAX_TOL = 1e-9

# Seesaw convergence: stop once the objective moves by at most this
# (relative to max(1, |value|) for the fraction seesaw).
FRACTION_SEESAW_TOL = 1e-10
RANK2_SEESAW_TOL = 1e-12
UPB_SEESAW_TOL = 1e-14

# verify_family reads no tolerance: it gates its input and compares exact values.
# Largest |<x|y> - delta_xy| for the Tiles UPB states to count as orthonormal.
ORTHO_TOL = 1e-12
# A partial transpose is PPT when its smallest eigenvalue is >= -PPT_TOL
# (is_ppt); a rank-2 overlap with it below -PPT_TOL certifies distillability.
PPT_TOL = 1e-9


def as_dict():
    """Every constant above, keyed by its lowercased name (embedded in CLI
    reports)."""
    return {name.lower(): value for name, value in globals().items() if name.isupper()}
