"""Counting toolkit for list homomorphisms: exact oracles, hardness
classification of target graphs with checkable certificates, path-gadget
algebra, and count-preserving reductions."""

from .graphs import (
    ColourGraph,
    Instance,
    InstanceGraph,
    bipartition,
    connected_components,
    full_lists,
    induced_subgraph,
    instance_components,
    max_degree,
    reflexivity_status,
)
from .oracles import (
    ImplicationFormula,
    count_1p1n,
    count_list_hcol,
    implies,
    ising_partition,
    list_hcol_table,
    unit_neg,
    unit_pos,
)
from .recognizer import (
    ExcludedWitness,
    Hardness,
    StaircaseForm,
    TrichotomyResult,
    classify,
    find_excluded_bp,
    find_excluded_pi,
    find_staircase_adjacency,
    find_staircase_biadjacency,
    is_staircase,
)
from .gadgets import (
    GadgetGraph,
    PathGadget,
    build_symmetrized,
    check_condH,
    find_transposing_automorphism,
    gadget_catalog,
    interaction_matrix,
    interaction_matrix_bruteforce,
    reduce_ising_to_listhcol,
    symmetrize,
    thicken,
    validate_gadget,
)
from .reductions import (
    StaircaseEncoding,
    VariableMap,
    build_staircase_encoding,
    decode_assignment,
    encode_colouring,
    reduce_listhcol_to_1p1n,
    reduce_p4_to_p3star,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
