"""Exact algebra backends.

Three backends realize "a scalar-linear combination of group elements":

* Formal  -- the group algebra K[G] proper: a sparse linear combination of
  canonical group elements, multiplied by convolution.  Distinct group
  elements stay linearly independent.
* Matrix  -- a square matrix of exact scalars; sums of group images collapse
  entrywise, so scalar relations like M**2 == -2*I become visible.
* Cyclic  -- the twisted cyclic algebra with basis X^0 .. X^{s-1} and
  relation X^s = twist * X^0; the quotient seen by a representation whose
  generator image has a scalar power.

Group elements are canonical, hashable values that multiply themselves
(`Permutation`, `Matrix`, `SL2ZxZ` in SL(2, Z) x Z), and a formal element is
a map from those elements to their coefficients.  Each element's `text()`
renders it for output; it is injective, so sorting terms by it gives a
canonical printed form.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Sequence

from .scalars import (
    MAX_SPAN, ONE, ZERO, _ZERO_ENTRY, ScalarValue, _accumulate, _format, _make, _parts, as_scalar, format_scalar, is_unit
)


class Matrix:
    """Square matrix over Q[t, t^-1]: entries (lowest exponent, trimmed integer
    numerators), zero as (0, ()), over one positive denominator sharing no factor
    with all the numerators, so equal matrices are stored alike.  A matrix is a
    dict key and keeps its hash once computed: never rebind a field."""

    __slots__ = ("_den", "_entries", "_hash")

    def __init__(self, rows: Iterable[Iterable[ScalarValue | int]]):
        # as_scalar is reached only by a non-scalar, which it refuses
        parts = [[_parts(entry) or as_scalar(entry) for entry in row] for row in rows]
        dim = len(parts)
        if dim == 0 or any([len(row) != dim for row in parts]):
            raise ValueError("matrix must be square and nonempty")
        # each entry is canonical, so over the lcm the numerators share no factor
        den = lcm(*[d for row in parts for _, _, d in row])
        self._den = den
        self._entries = tuple(
            tuple([(low, nums if d == den else tuple([n * (den // d) for n in nums])) for low, nums, d in row])
            for row in parts
        )

    @property
    def rows(self) -> tuple[tuple[ScalarValue, ...], ...]:
        """The entries as canonical scalars."""
        return tuple(tuple(_make(*entry, self._den) for entry in row) for row in self._entries)

    @property
    def dim(self) -> int:
        return len(self._entries)

    @staticmethod
    def identity(dim: int) -> "Matrix":
        return Matrix([[1 if i == j else 0 for j in range(dim)] for i in range(dim)])

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        return linear_combination([(ONE, self), (ONE, other)])

    def __mul__(self, other: "Matrix") -> "Matrix":
        """Row-by-column product over the product of the two denominators;
        each entry is one integer accumulation over its nonzero pairs."""
        if not isinstance(other, Matrix):
            return NotImplemented
        dim = self.dim
        if dim != other.dim:
            raise ValueError(f"dimension mismatch: {dim} vs {other.dim}")
        other_rows = [[(j, low, b) for j, (low, b) in enumerate(row) if b] for row in other._entries]
        rows = []
        for row in self._entries:
            terms = [[] for _ in range(dim)]
            for k, (low, a) in enumerate(row):
                if a:
                    for j, other_low, b in other_rows[k]:
                        terms[j].append((low + other_low, a, b))
            rows.append([_accumulate(entry) for entry in terms])
        return _canonical(self._den * other._den, rows)

    def scale(self, s: ScalarValue | int) -> "Matrix":
        return linear_combination([(s, self)])

    def det(self) -> ScalarValue:
        """Exact determinant by cofactor expansion (dimensions here are small)
        on the stored numerators, over den**dim."""
        return _make(*_det(self._entries), self._den**self.dim)

    def inverse(self) -> "Matrix":
        """Adjugate inverse on the stored numerators; requires the determinant,
        the expansion along row 0 over the minors, to be a unit so the result
        stays inside the scalar ring.  Each minor is computed once."""
        dim, den, entries = self.dim, self._den, self._entries
        minors = [[_det(_minor(entries, i, j)) for j in range(dim)] for i in range(dim)]
        d_low, d = _det(entries, minors[0])
        if len(d) != 1:
            raise ValueError(f"matrix not invertible over the scalar ring (det = {_format(d_low, d, den**dim)})")
        # The minors are over den**(dim-1) and det = d[0] * t^d_low / den**dim, so entry
        # (i, j) of the inverse is (-1)**(i+j) * minor (j, i) * t^-d_low * den / d[0].
        f = (den, -den) if d[0] > 0 else (-den, den)  # the factors at even and odd i + j
        adj = [
            [(e - d_low, tuple([n * f[(i + j) % 2] for n in m])) if m else _ZERO_ENTRY for j, (e, m) in enumerate(col)]
            for i, col in enumerate(zip(*minors))
        ]
        return _canonical(abs(d[0]), adj)

    def is_identity(self) -> bool:
        return self.scalar_multiple_of_identity() == 1

    def scalar_multiple_of_identity(self) -> ScalarValue | None:
        """The scalar d with self == d * I, or None."""
        d = self._entries[0][0]
        for i, row in enumerate(self._entries):
            for j, entry in enumerate(row):
                if entry != (d if i == j else _ZERO_ENTRY):
                    return None
        return _make(*d, self._den)

    def text(self) -> str:
        return "[" + ",".join("[" + ",".join(_format(*e, self._den) for e in row) + "]" for row in self._entries) + "]"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._den == other._den and self._entries == other._entries

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self._den, self._entries))
            self._hash = h
            return h

    def __repr__(self) -> str:
        return f"Matrix({self.text()})"


def _canonical(den: int, entries: list[list[tuple[int, tuple[int, ...]]]]) -> Matrix:
    """The matrix of the trimmed entries over den > 0, after one gcd pass
    over all their numerators unless den is 1."""
    g = den
    for row in entries:
        if g == 1:
            break
        for _, nums in row:
            g = gcd(g, *nums)
    if g != 1:
        den //= g
        entries = [[(low, tuple([n // g for n in nums])) for low, nums in row] for row in entries]
    m = object.__new__(Matrix)
    m._den = den
    m._entries = tuple(map(tuple, entries))
    return m


def _kronecker_keys(images: Sequence[Matrix], depth: int) -> tuple[Callable, Callable, list, Callable] | None:
    """Kronecker-packed keys (D. Harvey, J. Symbolic Comput. 44, 2009) for
    products of at most `depth` of `images`, as `analysis.find_scalar_witness`
    states them: `key(m)`, the key of m, or None where m * D**depth is not
    integral or has a coefficient above B**depth; `scalar_key(x)`, the key
    of the nonzero scalar x times the identity, read off x's (low, nums, den)
    triple; the images packed over D; and `product(key, image)`.  None
    instead where such a product could span more than MAX_SPAN exponents,
    the most a `Matrix` product allows."""
    den = lcm(*[m._den for m in images])
    spread, bound = 0, den
    for m in images:
        f = den // m._den
        ends = [(low, low + len(nums) - 1) for row in m._entries for low, nums in row if nums]
        spread = max(spread, max([e for _, e in ends]) - min([e for e, _ in ends]))
        bound = max(bound, *[sum([abs(n) for _, nums in row for n in nums]) * f for row in m._entries])
    if depth * spread >= MAX_SPAN:
        return None
    dim, slot, scale, cap = images[0].dim, depth * bound.bit_length() + 1, den**depth, bound**depth

    def packed(m: Matrix, f: int) -> tuple[int, tuple[int, ...]]:
        entries = [entry for row in m._entries for entry in row]
        low = min([e for e, nums in entries if nums])
        return low, tuple([sum([n * f << slot * i for i, n in enumerate(nums, e - low)]) for e, nums in entries])

    def key(m: Matrix) -> tuple[int, tuple[int, ...]] | None:
        f, rem = divmod(scale, m._den)
        if rem or max([abs(n) for row in m._entries for _, nums in row for n in nums]) * f > cap:
            return None
        return packed(m, f)

    def scalar_key(x: ScalarValue) -> tuple[int, tuple[int, ...]] | None:
        low, nums, d = _parts(x)
        f, rem = divmod(scale, d)
        if rem or max([abs(n) for n in nums]) * f > cap:
            return None
        diagonal = sum([n * f << slot * i for i, n in enumerate(nums)])
        return low, tuple([0 if i % (dim + 1) else diagonal for i in range(dim * dim)])

    def product(held: tuple[int, tuple[int, ...]], image: tuple[int, list]) -> tuple[int, tuple[int, ...]]:
        (low, a), (image_low, cols) = held, image
        ents = [sum(map(mul, a[r : r + dim], col)) for r in range(0, dim * dim, dim) for col in cols]
        if den > 1:
            ents = [x // den for x in ents]
        z = (min([x & -x for x in ents if x]).bit_length() - 1) // slot  # the lowest nonzero slot
        if z:
            ents = [x >> slot * z for x in ents]
        return low + image_low + z, tuple(ents)

    steps = []
    for m in images:
        low, ents = packed(m, den // m._den)
        steps.append((low, [ents[j::dim] for j in range(dim)]))
    return key, scalar_key, steps, product


def linear_combination(terms: Sequence[tuple[ScalarValue | int, AlgebraElement]]) -> AlgebraElement:
    """The sum of s * x over the nonempty pairs (s, x) of `terms`, elements of
    one backend: matrices in one pass over their numerators on a common
    denominator, other elements by `scale` and `+`."""
    (s, first), *rest = terms
    if not isinstance(first, Matrix):
        return sum((x.scale(c) for c, x in rest), first.scale(s))
    dim = first.dim
    for _, x in rest:
        if x.dim != dim:
            raise ValueError(f"dimension mismatch: {dim} vs {x.dim}")
    parts = [(*(_parts(c) or as_scalar(c)), x) for c, x in terms]
    den = lcm(*(d * x._den for _, _, d, x in parts))
    scaled = [(low, tuple([n * (den // (d * x._den)) for n in nums]), x._entries) for low, nums, d, x in parts if nums]
    idx = range(dim)
    cells = [[[(low + e[i][j][0], c, e[i][j][1]) for low, c, e in scaled if e[i][j][1]] for j in idx] for i in idx]
    return _canonical(den, [[_accumulate(t) for t in row] for row in cells])


def _minor(entries: tuple, i: int, j: int) -> tuple:
    """The rows of trimmed entries without row i and column j."""
    return tuple(row[:j] + row[j + 1 :] for r, row in enumerate(entries) if r != i)


def _det(entries: tuple, minors: list | None = None) -> tuple[int, tuple[int, ...]]:
    """Cofactor expansion along row 0 of trimmed entries, skipping zeros, as a
    trimmed entry over den**dim; `minors`, if given, holds the determinants of
    the minors of row 0.  The empty matrix has determinant 1."""
    if not entries:
        return 0, (1,)
    if len(entries) == 1:
        return entries[0][0]
    terms = []
    for j, (low, a) in enumerate(entries[0]):
        if a:
            m_low, m = minors[j] if minors else _det(_minor(entries, 0, j))
            if m:
                terms.append((low + m_low, a if j % 2 == 0 else tuple([-n for n in a]), m))
    return _accumulate(terms)


def parse_matrix(text: str) -> Matrix:
    """Read a matrix from text: one row per line, entries comma-separated."""
    from .scalars import parse_scalar

    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        rows.append([parse_scalar(entry) for entry in line.split(",")])
    if not rows:
        raise ValueError("empty matrix text")
    return Matrix(rows)


# --- permutations -----------------------------------------------------------------


class Permutation:
    """An element of S_n, stored as its image tuple (0-based).

    The product g * h acts as the composite function g after h, which makes
    left-to-right letter products agree with the in-place strand swaps used
    for permutation words.  A permutation is a dict key: never rebind
    `images`.
    """

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        self.images = images

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    @staticmethod
    def transposition(n: int, i: int) -> "Permutation":
        """Swap of strands i, i+1 (1-based i)."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"transposition index {i} out of range")
        images = list(range(n))
        images[i - 1], images[i] = images[i], images[i - 1]
        return Permutation(tuple(images))

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        g, h = self.images, other.images
        if len(g) != len(h):
            raise ValueError(f"size mismatch: {len(g)} vs {len(h)}")
        return Permutation(tuple([g[k] for k in h]))

    def text(self) -> str:
        return "[" + ",".join(str(v + 1) for v in self.images) + "]"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.text()})"


class SL2ZxZ:
    """(M, e) in SL(2, Z) x Z, held as the integers (a, b, c, d, e) of
    M = [[a, b], [c, d]] and the degree e; a dict key, so never rebound."""

    __slots__ = ("_entries",)

    def __init__(self, entries: tuple[int, int, int, int, int]):
        self._entries = entries

    def __mul__(self, other: "SL2ZxZ") -> "SL2ZxZ":
        if not isinstance(other, SL2ZxZ):
            return NotImplemented
        a, b, c, d, e = self._entries
        p, q, r, s, f = other._entries
        return SL2ZxZ((a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s, e + f))

    def text(self) -> str:
        return "([[{},{}],[{},{}]],{})".format(*self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SL2ZxZ):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)


# --- formal group algebra -------------------------------------------------------


class FormalElement:
    """Sparse K-linear combination of group elements, keyed by the elements.

    The elements are group elements: they multiply with `*` and render with
    `text()`.  `identity` is the identity of their group, and two formal
    elements belong to one algebra when their identities are equal.
    Zero coefficients are purged eagerly, so equality, support size and the
    identity test are all O(support).
    """

    __slots__ = ("identity", "coeffs")

    def __init__(self, identity: Permutation | Matrix | SL2ZxZ, terms: Iterable[tuple[object, ScalarValue | int]] = ()):
        coeffs: dict[object, ScalarValue] = {}
        for g, c in terms:
            old = coeffs.get(g)
            acc = as_scalar(c) if old is None else old + c
            if acc:
                coeffs[g] = acc
            elif old is not None:
                del coeffs[g]
        self.identity = identity
        self.coeffs = coeffs

    @staticmethod
    def one(identity: Permutation | Matrix | SL2ZxZ) -> "FormalElement":
        return FormalElement(identity, [(identity, 1)])

    def terms(self) -> list[tuple[object, ScalarValue]]:
        """(element, coefficient) pairs in printed order."""
        return sorted(self.coeffs.items(), key=lambda term: term[0].text())

    def _require_same(self, other: "FormalElement") -> None:
        if not isinstance(other, FormalElement) or self.identity != other.identity:
            raise ValueError("formal elements over different groups")

    def __add__(self, other: "FormalElement") -> "FormalElement":
        self._require_same(other)
        return FormalElement(self.identity, [*self.coeffs.items(), *other.coeffs.items()])

    def __mul__(self, other: "FormalElement") -> "FormalElement":
        self._require_same(other)
        return FormalElement(
            self.identity,
            [
                (g * h, a * b)
                for g, a in self.coeffs.items()
                for h, b in other.coeffs.items()
            ],
        )

    def scale(self, s: ScalarValue | int) -> "FormalElement":
        return FormalElement(self.identity, [(g, s * c) for g, c in self.coeffs.items()])

    def is_identity(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs.get(self.identity) == 1

    def text(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"{format_scalar(c)} * {g.text()}" for g, c in self.terms())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormalElement):
            return NotImplemented
        return self.identity == other.identity and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        return f"FormalElement({self.text()})"


# --- twisted cyclic algebra ------------------------------------------------------


class CyclicElement:
    """Element of the twisted cyclic algebra K[X]/(X^order - twist).
    Elements are values: equal when their fields are equal, hashable, and
    their fields cannot be rebound."""

    __slots__ = ("order", "twist", "coords")

    def __init__(self, order: int, twist: ScalarValue, coords: tuple[ScalarValue, ...]):
        if order < 1:
            raise ValueError("need order >= 1")
        if not is_unit(twist):
            raise ValueError("twist must be a unit")
        if len(coords) != order:
            raise ValueError(f"need {order} coordinates, got {len(coords)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "twist", twist)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.order, self.twist, self.coords) == (other.order, other.twist, other.coords)

    def __hash__(self) -> int:
        return hash((self.order, self.twist, self.coords))

    def __reduce__(self):
        return CyclicElement, (self.order, self.twist, self.coords)

    @staticmethod
    def one(order: int, twist: ScalarValue | int) -> "CyclicElement":
        return CyclicElement.x_power(order, twist, 0)

    @staticmethod
    def x_power(order: int, twist: ScalarValue | int, k: int) -> "CyclicElement":
        """X^k for any integer k, reduced via X^order = twist."""
        if order < 1:
            raise ValueError("need order >= 1")
        if not is_unit(twist):
            raise ValueError("twist must be a unit")
        twist = as_scalar(twist)
        j = k % order
        m = (k - j) // order
        coords = [ZERO] * order
        coords[j] = twist**m
        return CyclicElement(order, twist, tuple(coords))

    def _require_same(self, other: "CyclicElement") -> None:
        if not isinstance(other, CyclicElement) or (self.order, self.twist) != (other.order, other.twist):
            raise ValueError("cyclic elements from different algebras")

    def __add__(self, other: "CyclicElement") -> "CyclicElement":
        self._require_same(other)
        return CyclicElement(
            self.order, self.twist,
            tuple(a + b for a, b in zip(self.coords, other.coords)),
        )

    def __mul__(self, other: "CyclicElement") -> "CyclicElement":
        self._require_same(other)
        out = [ZERO] * self.order
        for i, a in enumerate(self.coords):
            if a == 0:
                continue
            for j, b in enumerate(other.coords):
                if b == 0:
                    continue
                c = a * b
                e = i + j
                if e >= self.order:  # single reduction suffices: i + j < 2*order
                    e -= self.order
                    c = c * self.twist
                out[e] = out[e] + c
        return CyclicElement(self.order, self.twist, tuple(out))

    def scale(self, s: ScalarValue | int) -> "CyclicElement":
        return CyclicElement(self.order, self.twist, tuple(s * a for a in self.coords))

    def is_identity(self) -> bool:
        return self.coords[0] == 1 and all(a == 0 for a in self.coords[1:])

    def text(self) -> str:
        return " + ".join(f"{format_scalar(a)}*X^{i}" for i, a in enumerate(self.coords))

    def __repr__(self) -> str:
        coords = ",".join(format_scalar(a) for a in self.coords)
        return f"CyclicElement(order={self.order}, twist={format_scalar(self.twist)}, [{coords}])"


AlgebraElement = FormalElement | Matrix | CyclicElement
