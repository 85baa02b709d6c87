"""Concrete braid group representations.

A `BraidRep` is its letter-image table: each braid letter sigma_i^(+-1) maps
to an invertible element of one of the algebra backends, and a word's image
is the left-to-right product of its letters' images.  Construction checks
every instance of `words.braid_relations` exactly, through `rep_eval` and
`words.check_braid_relations`.  The classical results below are
documentation only: the library never claims to decide faithfulness of a
representation by itself.

Shipped representations:

* unreduced Burau over Q[t, t^-1]  (faithful for n <= 3, unfaithful for
  n >= 5, open for n = 4);
* reduced Burau for n in {2, 3}   (faithful);
* the permutation representation  (unfaithful, witness sigma_1^2);
* scalar characters sigma_i -> d  (faithful on B_2 iff d is not a root of
  unity, unfaithful for n >= 3);
* arbitrary user matrices, relation-checked at construction;
* the twisted cyclic image sigma_1 -> X with X^s = d_s.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, partial
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .algebra import (
    AlgebraElement,
    CyclicElement,
    FormalElement,
    Matrix,
    Permutation,
    _character,
    parse_matrix,
)
from .scalars import (
    T,
    LaurentPoly,
    as_scalar,
    format_scalar,
    is_unit,
    parse_scalar,
)
from .words import GenLetter, SMWord, check_braid_relations, sigma, sigma_inv

if TYPE_CHECKING:
    from .phi import Extension

_BACKENDS = {FormalElement: "formal", Matrix: "matrix", CyclicElement: "cyclic"}


class BraidRep:
    """An exactly-verified assignment sigma_i -> invertible algebra element.

    `images[i-1]` and `inverses[i-1]` are the images of sigma_i and
    sigma_i^-1; `one` is the identity of the algebra they live in.  The
    `letters` table maps each braid letter to its image.

    A `BraidRep` may be shared, so it must not be mutated: `rep_from_selector`
    hands the same instance of a shipped representation to every caller in a
    process, and `phi.Extension` copies `letters` before adding tau images.
    """

    def __init__(
        self,
        n: int,
        one: AlgebraElement,
        images: Sequence[AlgebraElement],
        inverses: Sequence[AlgebraElement],
        *,
        name: str,
    ):
        if n < 2:
            raise ValueError(f"need n >= 2, got {n}")
        if len(images) != n - 1:
            raise ValueError(f"need {n - 1} generator images, got {len(images)}")
        self.n = n
        self.name = name
        self._one = one
        self.letters: dict[GenLetter, AlgebraElement] = {}
        for i, (img, inv) in enumerate(zip(images, inverses, strict=True), start=1):
            if not (img * inv).is_identity():
                raise ValueError(f"image of generator {i} is not invertible")
            self.letters[sigma(i)] = img
            self.letters[sigma_inv(i)] = inv
        check_braid_relations(n, lambda w: rep_eval(self, w))

    @property
    def backend(self) -> str:
        return _BACKENDS[type(self._one)]

    def one(self) -> AlgebraElement:
        return self._one

    def image(self, i: int) -> AlgebraElement:
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"generator index {i} out of range for n={self.n}")
        return self.letters[sigma(i)]

    def image_inv(self, i: int) -> AlgebraElement:
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"generator index {i} out of range for n={self.n}")
        return self.letters[sigma_inv(i)]

    @cached_property
    def _delta(self) -> tuple[LaurentPoly, int] | None:
        """`algebra._character` of rho(sigma_1): (det, dim) for a matrix rep,
        (coefficient sum, 1) for a formal rep, None for a cyclic rep.  For
        the character filters of `analysis.find_scalar_witness` and
        `analysis.kernel_search_sm2`; a rep is immutable, so it is taken once."""
        return _character(self.letters[sigma(1)])

    def __repr__(self) -> str:
        return f"BraidRep({self.name} (n={self.n}, backend={self.backend}))"


def rep_eval(rep: BraidRep | Extension, w: SMWord) -> AlgebraElement:
    """Image of a word: the left-to-right product of its letter images.

    `rep` is anything with `n`, `one()` and a `letters` table: a `BraidRep`,
    whose table holds braid letters only, so a tau letter is an error, or a
    `phi.Extension`, whose table holds the tau images as well.  The fold
    starts from the first letter's image; the empty word maps to `one()`.
    """
    if w.n != rep.n:
        raise ValueError(f"word has n={w.n}, representation has n={rep.n}")
    letters = rep.letters
    acc = None
    for letter in w:
        image = letters.get(letter)
        if image is None:
            raise ValueError("rep_eval is defined on braid words only (no tau letters)")
        acc = image if acc is None else acc * image
    return rep.one() if acc is None else acc


# --- shipped representations ---------------------------------------------------


def burau_unreduced(n: int) -> BraidRep:
    """Unreduced Burau: sigma_i acts by the 2x2 block [[1-t, t], [1, 0]] at
    strands (i, i+1) inside the n x n identity."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    images = []
    for i in range(1, n):
        rows = [[int(r == c) for c in range(n)] for r in range(n)]
        rows[i - 1][i - 1] = 1 - T
        rows[i - 1][i] = T
        rows[i][i - 1] = 1
        rows[i][i] = 0
        images.append(Matrix(rows))
    return matrix_rep_from_images(n, images, name="burau-unreduced")


def burau_reduced(n: int) -> BraidRep:
    """Reduced Burau for n in {2, 3}; faithful in both cases."""
    if n == 2:
        images = [Matrix([[-T]])]
    elif n == 3:
        images = [Matrix([[-T, 1], [0, 1]]), Matrix([[1, 0], [T, -T]])]
    else:
        raise ValueError(f"reduced Burau is provided for n in {{2, 3}}, got {n}")
    return matrix_rep_from_images(n, images, name="burau-reduced")


def permutation_rep(n: int) -> BraidRep:
    """sigma_i -> the transposition (i, i+1) in the group algebra of S_n."""
    e = Permutation.identity(n)
    # transpositions are involutions, so each image is its own inverse
    images = [FormalElement(e, [(Permutation.transposition(n, i), 1)]) for i in range(1, n)]
    return BraidRep(n, FormalElement.one(e), images, images, name="perm")


def scalar_char(d: LaurentPoly | int, n: int) -> BraidRep:
    """Scalar character sigma_i -> d (a unit), realized as 1x1 matrices."""
    d = as_scalar(d)
    if not is_unit(d):
        raise ValueError(f"scalar character needs a unit, got {format_scalar(d)}")
    images = [Matrix([[d]])] * (n - 1)
    return matrix_rep_from_images(n, images, name=f"scalar:{format_scalar(d)}")


def matrix_rep_from_images(
    n: int,
    matrices: Sequence[Matrix],
    name: str = "matrix",
) -> BraidRep:
    """Matrix representation from explicit generator images; the braid
    relations and invertibility are checked at construction."""
    dims = {m.dim for m in matrices}
    if len(dims) > 1:
        raise ValueError("generator matrices must share one dimension")
    # with no matrices (n < 2) the dimension is moot: BraidRep rejects n
    one = Matrix.identity(dims.pop() if dims else 1)
    inverses = [m.inverse() for m in matrices]
    return BraidRep(n, one, matrices, inverses, name=name)


def cyclic_rep(order: int, twist: LaurentPoly | int, n: int = 2) -> BraidRep:
    """sigma_i -> X in the twisted cyclic algebra with X^order = twist."""
    twist = as_scalar(twist)
    one = CyclicElement.one(order, twist)
    x = CyclicElement.x_power(order, twist, 1)
    x_inv = CyclicElement.x_power(order, twist, -1)
    return BraidRep(
        n,
        one,
        [x] * (n - 1),
        [x_inv] * (n - 1),
        name=f"cyclic:{order}:{format_scalar(twist)}",
    )


def as_formal(rep: BraidRep) -> BraidRep:
    """View a matrix-backend representation inside the formal group algebra of
    its matrix group, where distinct images stay linearly independent."""
    if rep.backend == "formal":
        return rep
    if rep.backend != "matrix":
        raise ValueError(f"cannot lift backend {rep.backend!r} to the formal group algebra")
    e = rep.one()
    gens = range(1, rep.n)
    return BraidRep(
        rep.n,
        FormalElement.one(e),
        [FormalElement(e, [(rep.image(i), 1)]) for i in gens],
        [FormalElement(e, [(rep.image_inv(i), 1)]) for i in gens],
        name=f"{rep.name}+formal",
    )


def rep_from_selector(selector: str, n: int) -> BraidRep:
    """CLI selectors: burau-unreduced | burau-reduced | perm |
    scalar:<scalar> | matrix:<file>.

    A shipped selector's representation is built and relation-checked once
    per process and then shared, so callers must not mutate it.  A
    `matrix:<file>` selector reads its file again on every call."""
    if selector.startswith("matrix:"):
        if n != 2:
            raise ValueError("matrix:<file> selectors support n = 2 only")
        path = Path(selector[len("matrix:") :])
        m = parse_matrix(path.read_text())
        return matrix_rep_from_images(2, [m], name=f"matrix:{path.name}")
    return _shipped_rep(selector, n)


# The largest n of a shipped selector that takes any n (`burau-unreduced`,
# `perm`, `scalar:<d>`).  Construction checks all (n-1)(n-2)/2 braid
# relations, and a `burau-unreduced` representation also inverts its n - 1
# n x n images, which takes about a second at n = 32.  The library functions
# take any n >= 2.
MAX_SELECTOR_N = 32


# Bounded so that a long-lived process does not grow with each distinct
# `scalar:` value; a selector error is raised again on every call, because
# the cache stores only returned values.
@lru_cache(maxsize=32)
def _shipped_rep(selector: str, n: int) -> BraidRep:
    if selector == "burau-reduced":
        return burau_reduced(n)
    if selector == "burau-unreduced":
        name, build = selector, burau_unreduced
    elif selector == "perm":
        name, build = selector, permutation_rep
    elif selector.startswith("scalar:"):
        name, build = "scalar", partial(scalar_char, parse_scalar(selector[len("scalar:") :]))
    else:
        raise ValueError(f"unknown representation selector {selector!r}")
    if n > MAX_SELECTOR_N:
        raise ValueError(f"{name} selectors support n <= {MAX_SELECTOR_N}, got {n}")
    return build(n)
