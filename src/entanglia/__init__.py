"""Pure-state LOCC convertibility, incomparability-based detection of
impossible operations, activable bound entanglement, and data hiding."""

from .bound_entangled import (
    BEFamily,
    FamilyReport,
    be_family,
    be_family_direct,
    horodecki_insep,
    horodecki_state,
    tiles_upb,
    unlock,
    upb_complement,
    upb_unextendibility_score,
    verify_family,
)
from .gadgets import (
    GadgetResult,
    angle_preserving_gadget,
    antiunitary_gadget,
    coplanarity_gap,
    flip_gadget,
)
from .hiding import (
    CODEBOOK,
    HiddenState,
    decode_by_unlock,
    decode_global,
    hide,
    parity_attack,
    run_demo,
    string_distribution,
    trace_security,
)
from .linalg import (
    EigResult,
    cardan_roots,
    eig_hermitian,
    eigvals_hermitian,
    kron,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    projector,
    psd_sqrt,
    read_matrix,
    trace_norm,
    write_matrix,
)
from .locc import (
    AssistPlan,
    CatalystSearch,
    CoopPlan,
    PairClass,
    SplitRange,
    assist_max_entangled,
    catalyst_search,
    catalyst_window_2x2,
    classify,
    coop_construct,
    coop_validate,
    find_catalyst_2x2,
    min_assist_3x3,
    multicopy,
    nielsen,
    split_two_copies,
    vec_kron,
)
from .majorization import (
    MajVerdict,
    RowFlags,
    compare,
    compare_rows,
    ds_witness,
    ensemble_exists,
    is_doubly_stochastic,
    majorizes,
    spectra_majorized,
    window_affine,
)
from .measures import (
    binary_entropy,
    concurrence_2q,
    concurrence_pure,
    entanglement_entropy,
    eof_2q,
    log_negativity,
    negativity,
    shannon,
    von_neumann_entropy,
)
from .states import (
    SchmidtDecomposition,
    bell,
    bloch_to_qubit,
    qubit_to_bloch,
    random_pure,
    read_state,
    schmidt,
    schmidt_vector,
    werner,
    write_state,
)
from .witness import (
    WitnessReport,
    chsh_M,
    distillable_rank2,
    is_ppt,
    max_entangled_fraction,
    reduction_check,
    witness_report,
)

__version__ = "0.1.0"
