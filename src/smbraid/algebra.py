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
(`Permutation`, `Matrix`), and a formal element is a map from those elements
to their coefficients.  Each element's `text()` renders it for output; it is
injective, so sorting terms by it gives a canonical printed form.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Sequence

from .scalars import (
    ONE, ZERO, _ZERO_ENTRY, LaurentPoly, _accumulate, _format, _make, _parts, as_scalar, format_scalar, is_unit,
    parse_scalar
)
from .words import FrozenValue


class Matrix:
    """Square matrix over Q[t, t^-1]: entries (lowest exponent, trimmed integer
    numerators), zero as (0, ()), over one positive denominator sharing no factor
    with all the numerators, so equal matrices are stored alike.  A matrix is a
    dict key: never rebind a field."""

    __slots__ = ("_den", "_entries")

    def __init__(self, rows: Iterable[Iterable[LaurentPoly | int]]):
        parts = [[_parts(entry) for entry in row] for row in rows]
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
    def rows(self) -> tuple[tuple[LaurentPoly, ...], ...]:
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
            rows.append([_accumulate(entry) if entry else _ZERO_ENTRY for entry in terms])
        return _canonical(self._den * other._den, rows)

    def scale(self, s: LaurentPoly | int) -> "Matrix":
        return linear_combination([(s, self)])

    def det(self) -> LaurentPoly:
        """Exact determinant: that of the stored numerators over den**dim."""
        (low, d), _ = _faddeev_leverrier(self)
        return _make(low, d, self._den**self.dim)

    def inverse(self) -> "Matrix":
        """den * N / c on the stored numerators E, for E * N == c * I from
        `_faddeev_leverrier`; requires c = +-det E to be a unit so the
        result stays inside the scalar ring."""
        dim, den = self.dim, self._den
        (low, d), adj = _faddeev_leverrier(self)
        if len(d) != 1:
            raise ValueError(f"matrix not invertible over the scalar ring (det = {_format(low, d, den**dim)})")
        # c = (-1)**(dim-1) * d[0] * t^low, so entry (i, j) is N (i, j) * t^-low * den / c
        f = den if (d[0] > 0) == (dim % 2 == 1) else -den
        return _canonical(abs(d[0]), [[(e - low, tuple([n * f for n in a])) if a else _ZERO_ENTRY for e, a in row] for row in adj])

    def is_identity(self) -> bool:
        return self.scalar_multiple_of_identity() == 1

    def scalar_multiple_of_identity(self) -> LaurentPoly | None:
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
        return hash((self._den, self._entries))

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


PACKED_SPAN = 128


def _kronecker_keys(images: Sequence[Matrix], depth: int) -> tuple[Callable, Callable, list, Callable] | None:
    """Kronecker-packed keys (D. Harvey, J. Symbolic Comput. 44, 2009) for
    products of at most c = `depth` of `images`.  With D the lcm of the
    images' denominators, the key of a matrix M is (low, ents): the entries
    of t^-low * M * D**c, each packed as one integer in slots of
    K = c * bitlen(B) + 1 bits, where low is the lowest exponent and
    B = max(D, row sums of an image's coefficient magnitudes times D) bounds
    every coefficient of such a product by B**c.  A step is one integer
    product per entry pair, an exact division by D and a shift.  A zero
    image and a zero product are keyed too: every zero matrix has the one
    key (0, (0,) * dim**2).

    Returns `key(m)`, the key of m, or None where m * D**c is not integral
    or has a coefficient above B**c; `scalar_key(x)`, the key of the scalar
    x times the identity, read off x's (low, nums, den) triple; the images
    packed over D; and `product(key, image)`, the key of m * image from the
    key of m, a product of fewer than c images.  Returns None instead where
    c * spread > PACKED_SPAN, with spread the widest exponent range of one
    image: a key entry holds up to c * spread + 1 slots of K bits, while
    `Matrix` products cancel and trim as they go.  On SM_2 grids (Python
    3.11, 2 cores) packed keys took 0.51-0.77 times the `Matrix` time up to
    c * spread = 120, were mixed at 180-200 and mostly slower from 300.
    Images that each sit at one exponent pack at any depth, one integer per
    key entry, and a step skips the shift."""
    den = lcm(*[m._den for m in images])
    spread, bound = 0, den
    for m in images:
        ends = [(low, low + len(nums) - 1) for row in m._entries for low, nums in row if nums]
        if ends:
            spread = max(spread, max([e for _, e in ends]) - min([e for e, _ in ends]))
        if depth * spread > PACKED_SPAN:
            return None
        f = den // m._den
        bound = max(bound, *[sum([abs(n) for _, nums in row for n in nums]) * f for row in m._entries])
    dim, slot, scale, cap = images[0].dim, depth * bound.bit_length() + 1, den**depth, bound**depth

    def packed(m: Matrix, f: int) -> tuple[int, tuple[int, ...]]:
        entries = [entry for row in m._entries for entry in row]
        low = min([e for e, nums in entries if nums], default=0)
        return low, tuple([sum([n * f << slot * i for i, n in enumerate(nums, e - low)]) for e, nums in entries])

    def key(m: Matrix) -> tuple[int, tuple[int, ...]] | None:
        f, rem = divmod(scale, m._den)
        if rem or max([abs(n) for row in m._entries for _, nums in row for n in nums], default=0) * f > cap:
            return None
        return packed(m, f)

    def scalar_key(x: LaurentPoly) -> tuple[int, tuple[int, ...]] | None:
        low, nums, d = _parts(x)
        f, rem = divmod(scale, d)
        if rem or max([abs(n) for n in nums], default=0) * f > cap:
            return None
        diagonal = sum([n * f << slot * i for i, n in enumerate(nums)])
        return low, tuple([0 if i % (dim + 1) else diagonal for i in range(dim * dim)])

    def product(held: tuple[int, tuple[int, ...]], image: tuple[int, list]) -> tuple[int, tuple[int, ...]]:
        (low, a), (image_low, cols) = held, image
        ents = [sum(map(mul, a[r : r + dim], col)) for r in range(0, dim * dim, dim) for col in cols]
        if den > 1:
            ents = [x // den for x in ents]
        if not any(ents):
            return 0, tuple(ents)
        # the lowest nonzero slot, always 0 when each image sits at one exponent
        z = spread and (min([x & -x for x in ents if x]).bit_length() - 1) // slot
        if z:
            ents = [x >> slot * z for x in ents]
        return low + image_low + z, tuple(ents)

    steps = []
    for m in images:
        low, ents = packed(m, den // m._den)
        steps.append((low, [ents[j::dim] for j in range(dim)]))
    return key, scalar_key, steps, product


def _constant(x: LaurentPoly) -> tuple[int, int] | None:
    """(n, den) where x == n/den is a rational constant, else None; zero is (0, 1)."""
    low, nums, den = _parts(x)
    if not nums:
        return 0, 1
    return (nums[0], den) if not low and len(nums) == 1 else None


def _cyclic_keys(
    one: CyclicElement, images: Sequence[CyclicElement], depth: int
) -> tuple[Callable, Callable, list, Callable] | None:
    """Integer coordinate keys for products of at most c = `depth` of
    `images` in a twisted cyclic algebra X^s = twist, where the twist and
    every nonzero coordinate x of every image are rational constants.  A
    factor of a product of images is such an x, or x * twist where the
    exponent wraps past s, so with D the lcm of the denominators of every x
    and every x * twist (both: x = 1/2 under twist 1/2 gives 1/4), the
    coordinates of a product of k images are over D**k.  The key of an
    element is its coordinates times D**c, a tuple of s ints.  A step holds
    only an image's nonzero coordinates, as integer triples
    (k, x * D, x * twist * D) for x at X^k; a product is one sparse cyclic
    convolution that takes the twisted integer on wrap-around, then an
    exact division by D.

    Returns `key(x)`, None where a coordinate of x is not a constant or
    not integral over D**c; `scalar_key(y)`, the key of y * one read off
    the scalar; the steps; and `product(key, step)`, as `_kronecker_keys`
    does.  Returns None instead where the twist or a coordinate of an image
    is not a rational constant.  A dense s-by-s step, or the regular
    representation's matrices packed by `_kronecker_keys`, ran slower than
    these sparse steps (the numbers are in ROADMAP)."""
    order, twist = one.order, _constant(one.twist)
    if twist is None:
        return None
    t_num, t_den = twist
    terms = []
    for x in images:
        row = []
        for k, c in enumerate(x.coords):
            ratio = _constant(c)
            if ratio is None:
                return None
            if ratio[0]:
                row.append((k, *ratio))
        terms.append(row)
    ratios = [(n, d) for row in terms for _, n, d in row]
    den = lcm(*[d for _, d in ratios], *[d * t_den // gcd(n * t_num, d * t_den) for n, d in ratios])
    scale = den**depth

    def scaled(ratio: tuple[int, int] | None) -> int | None:
        if ratio is None:
            return None
        n, rem = divmod(ratio[0] * scale, ratio[1])
        return None if rem else n

    def key(x: CyclicElement) -> tuple[int, ...] | None:
        coords = tuple([scaled(_constant(c)) for c in x.coords])
        return None if None in coords else coords

    def scalar_key(y: LaurentPoly) -> tuple[int, ...] | None:
        n = scaled(_constant(y))
        return None if n is None else (n,) + (0,) * (order - 1)

    def product(held: tuple[int, ...], step: list[tuple[int, int, int]]) -> tuple[int, ...]:
        out = [0] * order
        for i, a in enumerate(held):
            if a:
                for k, b, wrapped in step:
                    e = i + k
                    if e < order:
                        out[e] += a * b
                    else:
                        out[e - order] += a * wrapped
        return tuple([x // den for x in out] if den > 1 else out)

    steps = [[(k, n * den // d, n * t_num * den // (d * t_den)) for k, n, d in row] for row in terms]
    return key, scalar_key, steps, product


def _group_element(x: object) -> object | None:
    """g where x is the formal element 1 * g, else None."""
    if isinstance(x, FormalElement) and len(x.coeffs) == 1:
        [(g, c)] = x.coeffs.items()
        if c == 1:
            return g
    return None


def _search_keys(
    one: AlgebraElement, images: Sequence[AlgebraElement], depth: int
) -> tuple[Callable, Callable, Sequence, Callable, int | None]:
    """The one choice of how a bounded search keys products of `images`,
    elements with identity `one`: (key, scalar_key, steps, product, bound).
    `key(x)`, and `scalar_key(c)` for c * one, are None where there is no
    key; `product(key(x), step)` is the key of x * image; `bound` is the
    most images a keyed product may hold, or None for any number.  The
    first kind that applies:

    * matrices: `_kronecker_keys(images, depth)`, bound `depth`, where
      depth * spread <= PACKED_SPAN;
    * cyclic elements over a rational twist whose images have rational
      coordinates: `_cyclic_keys(one, images, depth)`, bound `depth`, each
      key the element's coordinates as integers over one scale;
    * formal images that are each 1 * g for a group element g (`perm`, an
      `as_formal` lift): the key of 1 * g is g, a step is a group product,
      and c * one has the identity's key when c == 1 and none otherwise (a
      scaled letter is not keyed so: each step would multiply and hash a
      coefficient too);
    * any other element is its own key."""
    if isinstance(one, Matrix):
        packed = _kronecker_keys(images, depth)
    elif isinstance(one, CyclicElement):
        packed = _cyclic_keys(one, images, depth)
    else:
        steps = [_group_element(x) for x in images]
        if all(g is not None for g in steps):
            identity = one.identity
            return _group_element, lambda c: identity if c == 1 else None, steps, mul, None
        packed = None
    if packed:
        return (*packed, depth)
    return lambda x: x, one.scale, images, mul, None


def linear_combination(terms: Sequence[tuple[LaurentPoly | int, AlgebraElement]]) -> AlgebraElement:
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
    parts = [(*_parts(c), x) for c, x in terms]
    den = lcm(*(d * x._den for _, _, d, x in parts))
    scaled = [(low, tuple([n * (den // (d * x._den)) for n in nums]), x._entries) for low, nums, d, x in parts if nums]
    idx = range(dim)
    cells = [[[(low + e[i][j][0], c, e[i][j][1]) for low, c, e in scaled if e[i][j][1]] for j in idx] for i in idx]
    return _canonical(den, [[_accumulate(t) for t in row] for row in cells])


def _faddeev_leverrier(m: Matrix) -> tuple[tuple[int, tuple[int, ...]], list]:
    """The Faddeev-LeVerrier recurrence (U. Le Verrier 1840; D. K. Faddeev and
    I. S. Sominsky 1949) on the stored numerators E of m, a matrix over 1:
    N_1 = I and N_(k+1) = E * N_k - (tr(E * N_k) / k) * I.  Each
    tr(E * N_k) / k is a coefficient of the characteristic polynomial of E,
    so the division is exact in Z[t, t^-1], and by Cayley-Hamilton
    E * N_dim == c * I with c = tr(E * N_dim) / dim = (-1)**(dim-1) * det E.
    Returns det E, a trimmed entry, and the rows of N_dim, after dim - 2
    products: E * N_1 is E, and c needs only the trace of E * N_dim."""
    e = m if m._den == 1 else _canonical(1, m._entries)
    dim = e.dim
    rows, p = [[(0, (1,))]], e  # N_1 = I, kept as such only where dim == 1
    for k in range(1, dim):
        low, tr = _accumulate([(*row[i], (1,)) for i, row in enumerate(p._entries) if row[i][1]])
        c = tuple([x // k for x in tr])
        rows = [list(row) for row in p._entries]
        for i, row in enumerate(rows if c else ()):  # N_(k+1) = E * N_k - c * I
            row[i] = _minus(row[i], low, c)
        if k < dim - 1:
            p = e * _canonical(1, rows)
    pairs = [(x, y) for row, col in zip(e._entries, zip(*rows)) for x, y in zip(row, col) if x[1] and y[1]]
    low, tr = _accumulate([(x_low + y_low, a, b) for (x_low, a), (y_low, b) in pairs])
    return (low, tuple([x // (dim if dim % 2 else -dim) for x in tr])), rows  # det E = c / (-1)**(dim-1)


def _minus(entry: tuple[int, tuple[int, ...]], low: int, c: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The trimmed entry minus t^low * c, for nonempty trimmed c: c is
    subtracted from the numerators aligned at the lower of the two lowest
    exponents, and only the ends that cancel are trimmed."""
    a_low, a = entry
    if not a:
        return low, tuple([-x for x in c])
    start = min(a_low, low)
    out = [0] * (max(a_low + len(a), low + len(c)) - start)
    out[a_low - start : a_low - start + len(a)] = a
    for i, x in enumerate(c, low - start):
        out[i] -= x
    end = len(out)
    while end and not out[end - 1]:
        end -= 1
    first = 0
    while first < end and not out[first]:
        first += 1
    return (start + first, tuple(out[first:end])) if end else _ZERO_ENTRY


def parse_matrix(text: str) -> Matrix:
    """Read a matrix from text: one row per line, entries comma-separated."""
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

    def __init__(self, identity: Permutation | Matrix, terms: Iterable[tuple[object, LaurentPoly | int]] = ()):
        coeffs: dict[object, LaurentPoly] = {}
        for g, c in terms:
            coeffs[g] = coeffs.get(g, ZERO) + c
        self.identity = identity
        self.coeffs = {g: c for g, c in coeffs.items() if c}

    @staticmethod
    def one(identity: Permutation | Matrix) -> "FormalElement":
        return FormalElement(identity, [(identity, 1)])

    def terms(self) -> list[tuple[object, LaurentPoly]]:
        """(element, coefficient) pairs in printed order."""
        return sorted(self.coeffs.items(), key=lambda term: term[0].text())

    def _require_same(self, other: "FormalElement") -> None:
        if not isinstance(other, FormalElement) or self.identity != other.identity:
            raise ValueError("formal elements over different groups")

    def __add__(self, other: "FormalElement") -> "FormalElement":
        self._require_same(other)
        return FormalElement(self.identity, [*self.coeffs.items(), *other.coeffs.items()])

    def __mul__(self, other: "FormalElement") -> "FormalElement":
        """Convolution: (a * b) * (g * h) for every term a * g of self and
        b * h of `other`; the constructor sums the terms that meet and purges
        zeros."""
        self._require_same(other)
        return FormalElement(
            self.identity, [(g * h, a * b) for h, b in other.coeffs.items() for g, a in self.coeffs.items()]
        )

    def scale(self, s: LaurentPoly | int) -> "FormalElement":
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


class CyclicElement(FrozenValue):
    """Element of the twisted cyclic algebra K[X]/(X^order - twist), its
    coordinates stored as a tuple.  A `words.FrozenValue`."""

    __slots__ = ("order", "twist", "coords")

    def __init__(self, order: int, twist: LaurentPoly, coords: Iterable[LaurentPoly]):
        if order < 1:
            raise ValueError("need order >= 1")
        if not is_unit(twist):
            raise ValueError("twist must be a unit")
        coords = tuple(coords)
        if len(coords) != order:
            raise ValueError(f"need {order} coordinates, got {len(coords)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "twist", twist)
        object.__setattr__(self, "coords", coords)

    @staticmethod
    def one(order: int, twist: LaurentPoly | int) -> "CyclicElement":
        return CyclicElement.x_power(order, twist, 0)

    @staticmethod
    def x_power(order: int, twist: LaurentPoly | int, k: int) -> "CyclicElement":
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
        return CyclicElement(order, twist, coords)

    def _require_same(self, other: "CyclicElement") -> None:
        if not isinstance(other, CyclicElement) or (self.order, self.twist) != (other.order, other.twist):
            raise ValueError("cyclic elements from different algebras")

    def __add__(self, other: "CyclicElement") -> "CyclicElement":
        self._require_same(other)
        return CyclicElement(self.order, self.twist, (a + b for a, b in zip(self.coords, other.coords)))

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
        return CyclicElement(self.order, self.twist, out)

    def scale(self, s: LaurentPoly | int) -> "CyclicElement":
        return CyclicElement(self.order, self.twist, (s * a for a in self.coords))

    def is_identity(self) -> bool:
        return self.coords[0] == 1 and all(a == 0 for a in self.coords[1:])

    def text(self) -> str:
        return " + ".join(f"{format_scalar(a)}*X^{i}" for i, a in enumerate(self.coords))

    def __repr__(self) -> str:
        coords = ",".join(format_scalar(a) for a in self.coords)
        return f"CyclicElement(order={self.order}, twist={format_scalar(self.twist)}, [{coords}])"


AlgebraElement = FormalElement | Matrix | CyclicElement
