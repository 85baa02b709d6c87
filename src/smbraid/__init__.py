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

__version__ = "0.1.0"
