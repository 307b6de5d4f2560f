"""Pure-state LOCC convertibility, incomparability-based detection of
impossible operations, activable bound entanglement, and data hiding.

Importing the package loads none of its modules, and so not numpy either:
each name below, and each submodule, is imported on first access (PEP 562).
"""

import importlib

_EXPORTS = {
    "bound_entangled": "BEFamily FamilyReport be_family be_family_direct horodecki_insep horodecki_state "
    "tiles_upb unlock upb_complement upb_unextendibility_score verify_family",
    "gadgets": "GadgetResult angle_preserving_gadget antiunitary_gadget coplanarity_gap flip_gadget",
    "hiding": "CODEBOOK HiddenState decode_by_unlock decode_global hide parity_attack run_demo "
    "string_distribution trace_security",
    "linalg": "EigResult cardan_roots eig_hermitian eigvals_hermitian kron partial_trace "
    "partial_transpose permute_subsystems projector psd_sqrt read_matrix trace_norm "
    "write_matrix",
    "locc": "AssistPlan CatalystSearch CoopPlan PairClass SplitRange assist_max_entangled "
    "catalyst_search classify coop_construct coop_validate "
    "find_catalyst_2x2 min_assist_3x3 multicopy nielsen split_two_copies vec_kron",
    "majorization": "MajVerdict compare ds_witness ensemble_exists is_doubly_stochastic majorizes "
    "spectra_majorized",
    "measures": "binary_entropy concurrence_2q concurrence_pure entanglement_entropy eof_2q "
    "log_negativity negativity shannon von_neumann_entropy",
    "states": "bell random_pure read_state schmidt_vector werner write_state",
    "witness": "WitnessReport chsh_M distillable_rank2 is_ppt max_entangled_fraction reduction_check "
    "witness_report",
}
# the module that defines each exported name
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (*_EXPORTS, "cli", "errors", "family_classes", "family_labels", "pairs", "tolerances")

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value  # later lookups skip this hook
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")  # binds it here
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
