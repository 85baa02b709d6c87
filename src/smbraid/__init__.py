"""Exact computation with extensions of braid representations to the
singular braid monoid.

The package is organized bottom-up:

* `scalars`  -- exact rationals and Laurent polynomials in t
* `words`    -- words in B_n and SM_n, invariants, rewriting, normal forms
* `algebra`  -- permutations and the formal / matrix / twisted-cyclic backends
* `reps`     -- Burau, permutation, scalar-character and custom matrix reps
* `phi`      -- the extension family, relation checking, character formulas
* `analysis` -- kernel searches, unfaithfulness witnesses, structure checks
* `cli`      -- the `smbraid` command
"""

from .scalars import (
    LaurentPoly,
    ScalarValue,
    T,
    as_scalar,
    format_scalar,
    multinomial_coeff,
    parse_scalar,
)
from .words import (
    BraidWord,
    GenLetter,
    SMWord,
    SM2NormalForm,
    ShapeForm,
    TauBlockForm,
    conjugate,
    decompose_tau_blocks,
    defining_relations,
    enumerate_braid_words,
    free_reduce,
    parse_word,
    permutation_image,
    shape_form,
    sigma,
    sigma_inv,
    sigma_exponent_sum,
    sm2_normal_form,
    tau,
    tau_conjugator,
    tau_count,
    to_s1x_generators,
)
from .algebra import (
    AlgebraElement,
    CyclicElement,
    FormalElement,
    Matrix,
    Permutation,
)
from .reps import (
    BraidRep,
    Faithfulness,
    as_formal,
    burau_reduced,
    burau_unreduced,
    cyclic_rep,
    matrix_rep_from_images,
    permutation_rep,
    rep_eval,
    rep_from_selector,
    scalar_char,
)
from .phi import (
    Extension,
    PhiParams,
    check_relations,
    tau_power_direct,
    tau_power_expand,
)
from .analysis import (
    DistinctnessCertificate,
    KernelReport,
    UnfaithfulnessWitness,
    compare_matrix_cyclic_kernels,
    conjugation_kernel_check,
    distinctness_certificate,
    find_scalar_witness,
    kernel_search_sm2,
    nonscalar_power_check,
    root_of_unity_order,
    scalar_kernel_criterion,
    scalar_kernel_hits,
    scalar_power_witness,
    sm3_word_equality,
    unit_power_witness,
    verify_cyclic_structure,
)

__version__ = "0.1.0"
