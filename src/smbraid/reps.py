"""Concrete braid group representations.

A `BraidRep` assigns each generator sigma_i an invertible element of one of
the algebra backends, stored as a (unit scalar, element) pair so that scalar
characters, scalar-twisted matrix images and plain group images all share one
shape.  Construction verifies the braid relations on the images exactly and
records declarative faithfulness metadata; the library never claims to decide
faithfulness of a representation by itself.

Shipped representations:

* unreduced Burau over Q[t, t^-1]  (faithful for n <= 3, unfaithful for
  n >= 5, open for n = 4 -- classical results, recorded as metadata);
* reduced Burau for n in {2, 3}   (faithful);
* the permutation representation  (unfaithful, witness sigma_1^2);
* scalar characters sigma_i -> d  (faithful on B_2 iff d is not a root of
  unity, unfaithful for n >= 3);
* arbitrary user matrices, relation-checked at construction;
* the twisted cyclic image sigma_1 -> X with X^s = d_s.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .algebra import (
    AlgebraElement,
    CyclicElement,
    FormalElement,
    GroupModel,
    Matrix,
    MatrixGroupModel,
    SymmetricGroupModel,
    parse_matrix,
)
from .scalars import (
    ONE,
    T,
    ScalarValue,
    as_scalar,
    format_scalar,
    is_unit,
    parse_scalar,
    unit_root_order,
)
from .words import BraidWord, LetterKind, SMWord, sigma, sigma_inv, sigma_power

KNOWN_FAITHFUL = "known_faithful"
KNOWN_UNFAITHFUL = "known_unfaithful"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Faithfulness:
    status: str
    note: str = ""
    witness: BraidWord | None = None


@dataclass(frozen=True)
class GenImage:
    """Image of one generator: unit scalar times a backend element."""

    unit: ScalarValue
    element: object  # group element (formal), Matrix, or X-exponent (cyclic)

    def __post_init__(self):
        if not is_unit(self.unit):
            raise ValueError(f"generator scalar must be a unit, got {format_scalar(self.unit)}")
        object.__setattr__(self, "unit", as_scalar(self.unit))


class BraidRep:
    """An exactly-verified assignment sigma_i -> invertible algebra element."""

    def __init__(
        self,
        n: int,
        backend: str,
        gen_images: tuple[GenImage, ...],
        *,
        model: GroupModel | None = None,
        order: int | None = None,
        twist: ScalarValue | None = None,
        faithfulness: Faithfulness | None = None,
        name: str = "",
    ):
        if n < 2:
            raise ValueError(f"need n >= 2, got {n}")
        if len(gen_images) != n - 1:
            raise ValueError(f"need {n - 1} generator images, got {len(gen_images)}")
        self.n = n
        self.backend = backend
        self.model = model
        self.order = order
        self.twist = twist
        self.gen_images = gen_images
        self.faithfulness = faithfulness or Faithfulness(UNKNOWN)
        self.name = name or backend

        if backend == "formal":
            if model is None:
                raise ValueError("formal backend needs a group model")
            self._one: AlgebraElement = FormalElement.one(model)
            self._images = tuple(
                FormalElement(model, [(img.element, img.unit)]) for img in gen_images
            )
            self._inv_images = tuple(
                FormalElement(model, [(model.invert(img.element), img.unit**-1)])
                for img in gen_images
            )
        elif backend == "matrix":
            mats = [img.element.scale(img.unit) for img in gen_images]
            dims = {m.dim for m in mats}
            if len(dims) != 1:
                raise ValueError("generator matrices must share one dimension")
            self.dim = dims.pop()
            self._one = Matrix.identity(self.dim)
            self._images = tuple(mats)
            self._inv_images = tuple(m.inverse() for m in mats)
        elif backend == "cyclic":
            if order is None or twist is None:
                raise ValueError("cyclic backend needs order and twist")
            self._one = CyclicElement.one(order, twist)
            self._images = tuple(
                CyclicElement.x_power(order, twist, img.element).scale(img.unit)
                for img in gen_images
            )
            self._inv_images = tuple(
                CyclicElement.x_power(order, twist, -img.element).scale(img.unit**-1)
                for img in gen_images
            )
        else:
            raise ValueError(f"unknown backend {backend!r}")

        self._verify()

    def _verify(self) -> None:
        for i, (img, inv) in enumerate(zip(self._images, self._inv_images), start=1):
            if not (img * inv).is_identity():
                raise ValueError(f"image of generator {i} is not invertible")
        for i in range(1, self.n - 1):
            a, b = self.image(i), self.image(i + 1)
            if a * b * a != b * a * b:
                raise ValueError(f"braid relation fails at generators ({i}, {i + 1})")
        for i in range(1, self.n):
            for j in range(i + 2, self.n):
                a, b = self.image(i), self.image(j)
                if a * b != b * a:
                    raise ValueError(f"far commutation fails at generators ({i}, {j})")

    def one(self) -> AlgebraElement:
        return self._one

    def image(self, i: int) -> AlgebraElement:
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"generator index {i} out of range for n={self.n}")
        return self._images[i - 1]

    def image_inv(self, i: int) -> AlgebraElement:
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"generator index {i} out of range for n={self.n}")
        return self._inv_images[i - 1]

    def describe(self) -> str:
        return f"{self.name} (n={self.n}, backend={self.backend}, {self.faithfulness.status})"

    def __repr__(self) -> str:
        return f"BraidRep({self.describe()})"


def rep_eval(
    rep: BraidRep,
    w: SMWord,
    tau_images: Callable[[int], AlgebraElement] | None = None,
) -> AlgebraElement:
    """Image of a word: the left-to-right product of its letter images.

    Without `tau_images` this is the representation on braid words and a tau
    letter is an error; with it, tau_i maps to `tau_images(i)`.
    """
    if w.n != rep.n:
        raise ValueError(f"word has n={w.n}, representation has n={rep.n}")
    acc = rep.one()
    for letter in w:
        if letter.kind is LetterKind.SIGMA:
            acc = acc * rep.image(letter.index)
        elif letter.kind is LetterKind.SIGMA_INV:
            acc = acc * rep.image_inv(letter.index)
        elif tau_images is None:
            raise ValueError("rep_eval is defined on braid words only (no tau letters)")
        else:
            acc = acc * tau_images(letter.index)
    return acc


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
        images.append(GenImage(ONE, Matrix(rows)))
    if n <= 3:
        meta = Faithfulness(KNOWN_FAITHFUL, "Burau is faithful for n <= 3")
    elif n == 4:
        meta = Faithfulness(UNKNOWN, "faithfulness of Burau at n = 4 is open")
    else:
        meta = Faithfulness(KNOWN_UNFAITHFUL, "Burau is unfaithful for n >= 5 (Bigelow)")
    return BraidRep(n, "matrix", tuple(images), faithfulness=meta, name="burau-unreduced")


def burau_reduced(n: int) -> BraidRep:
    """Reduced Burau for n in {2, 3}; faithful in both cases."""
    meta = Faithfulness(KNOWN_FAITHFUL, "reduced Burau is faithful for n <= 3")
    if n == 2:
        images = (GenImage(ONE, Matrix([[-T]])),)
    elif n == 3:
        images = (
            GenImage(ONE, Matrix([[-T, 1], [0, 1]])),
            GenImage(ONE, Matrix([[1, 0], [T, -T]])),
        )
    else:
        raise ValueError(f"reduced Burau is provided for n in {{2, 3}}, got {n}")
    return BraidRep(n, "matrix", images, faithfulness=meta, name="burau-reduced")


def permutation_rep(n: int) -> BraidRep:
    """sigma_i -> the transposition (i, i+1) in the group algebra of S_n."""
    model = SymmetricGroupModel(n)
    images = tuple(GenImage(ONE, model.transposition(i)) for i in range(1, n))
    meta = Faithfulness(
        KNOWN_UNFAITHFUL,
        "transpositions square to the identity",
        witness=BraidWord(n, (sigma(1), sigma(1))),
    )
    return BraidRep(n, "formal", images, model=model, faithfulness=meta, name="perm")


def scalar_char(d: ScalarValue | int, n: int) -> BraidRep:
    """Scalar character sigma_i -> d (a unit), realized as 1x1 matrices."""
    d = as_scalar(d)
    if not is_unit(d):
        raise ValueError(f"scalar character needs a unit, got {format_scalar(d)}")
    images = tuple(GenImage(d, Matrix.identity(1)) for _ in range(n - 1))
    r = unit_root_order(d)
    if n == 2:
        if r is None:
            meta = Faithfulness(KNOWN_FAITHFUL, "B_2 is infinite cyclic and d is not a root of unity")
        else:
            meta = Faithfulness(
                KNOWN_UNFAITHFUL,
                f"d**{r} == 1",
                witness=sigma_power(2, 1, r),
            )
    else:
        meta = Faithfulness(
            KNOWN_UNFAITHFUL,
            "abelian image: sigma_1 sigma_2^-1 maps to 1",
            witness=BraidWord(n, (sigma(1), sigma_inv(2))),
        )
    return BraidRep(n, "matrix", images, faithfulness=meta, name=f"scalar:{format_scalar(d)}")


def matrix_rep_from_images(
    n: int,
    matrices: list[Matrix] | tuple[Matrix, ...],
    faithfulness: Faithfulness | None = None,
    name: str = "matrix",
) -> BraidRep:
    """Matrix representation from explicit generator images; the braid
    relations and invertibility are checked at construction."""
    images = tuple(GenImage(ONE, m) for m in matrices)
    return BraidRep(n, "matrix", images, faithfulness=faithfulness, name=name)


def cyclic_rep(order: int, twist: ScalarValue | int, n: int = 2) -> BraidRep:
    """sigma_i -> X in the twisted cyclic algebra with X^order = twist."""
    twist = as_scalar(twist)
    images = tuple(GenImage(ONE, 1) for _ in range(n - 1))
    return BraidRep(
        n,
        "cyclic",
        images,
        order=order,
        twist=twist,
        name=f"cyclic:{order}:{format_scalar(twist)}",
    )


def as_formal(rep: BraidRep) -> BraidRep:
    """View a matrix-backend representation inside the formal group algebra of
    its matrix group, where distinct images stay linearly independent."""
    if rep.backend == "formal":
        return rep
    if rep.backend != "matrix":
        raise ValueError(f"cannot lift backend {rep.backend!r} to the formal group algebra")
    model = MatrixGroupModel(rep.dim)
    images = tuple(GenImage(ONE, rep.image(i)) for i in range(1, rep.n))
    return BraidRep(
        rep.n,
        "formal",
        images,
        model=model,
        faithfulness=rep.faithfulness,
        name=f"{rep.name}+formal",
    )


def rep_from_selector(selector: str, n: int) -> BraidRep:
    """CLI selectors: burau-unreduced | burau-reduced | perm |
    scalar:<scalar> | matrix:<file>."""
    if selector == "burau-unreduced":
        return burau_unreduced(n)
    if selector == "burau-reduced":
        return burau_reduced(n)
    if selector == "perm":
        return permutation_rep(n)
    if selector.startswith("scalar:"):
        return scalar_char(parse_scalar(selector[len("scalar:") :]), n)
    if selector.startswith("matrix:"):
        if n != 2:
            raise ValueError("matrix:<file> selectors support n = 2 only")
        path = Path(selector[len("matrix:") :])
        m = parse_matrix(path.read_text())
        return matrix_rep_from_images(2, [m], name=f"matrix:{path.name}")
    raise ValueError(f"unknown representation selector {selector!r}")
