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


def _coordinates(x: Matrix | CyclicElement) -> list[tuple[int, tuple[int, ...], int]]:
    """The coordinates of x as (low, nums, den) triples: a matrix's entries
    row by row over its one denominator, a cyclic element's coordinates at
    X^0 .. X^(s-1)."""
    if isinstance(x, Matrix):
        den = x._den
        return [(low, nums, den) for row in x._entries for low, nums in row]
    return [_parts(c) for c in x.coords]


def _right_map(g: Matrix | CyclicElement) -> tuple[list, list[tuple[int, int, int]]]:
    """y -> y * g on coordinates, as (coefs, triples): the nonzero
    coefficients (low, nums, den), each once, and sparse triples (i, j, c), each adding
    coordinate i of y times coefs[c] to coordinate j of the product.  For a
    matrix of dimension d, I (x) g: entry r*d+k goes to r*d+j with g[k][j].
    For a cyclic element, X^i goes to X^(i+k) with its coordinate x_k, or
    with x_k * twist where i + k wraps past s."""
    if isinstance(g, Matrix):
        dim, den = g.dim, g._den
        coefs, terms = [], []
        for k, row in enumerate(g._entries):
            for j, (low, nums) in enumerate(row):
                if nums:
                    terms.append((k, j, len(coefs)))
                    coefs.append((low, nums, den))
        return coefs, [(r + k, r + j, c) for r in range(0, dim * dim, dim) for k, j, c in terms]
    s, coefs, terms = g.order, [], []
    for k, x in enumerate(g.coords):
        part = _parts(x)
        if part[1]:
            terms.append((k, len(coefs)))
            coefs += [part, _parts(x * g.twist)] if k else [part]  # X^0 never wraps
    return coefs, [(i, i + k, c) if i + k < s else (i, i + k - s, c + 1) for i in range(s) for k, c in terms]


def _packed_keys(images: Sequence[Matrix | CyclicElement], depth: int) -> tuple[Callable, list, Callable] | None:
    """Kronecker-packed keys (D. Harvey, J. Symbolic Comput. 44, 2009) for
    products of at most c = `depth` of `images`, all matrices or all cyclic
    elements of one algebra, each read as its right-multiplication map
    (`_right_map`).  With D the lcm of the maps' denominators, the key of
    an element x is (low, ents): the coordinates of t^-low * x * D**c, each
    packed as one integer in slots of K = c * bitlen(B) + 1 bits, where low
    is the lowest exponent and B = max(D, row sums of a map's coefficient
    magnitudes times D) bounds every coefficient of such a product by B**c.
    Each coefficient of a map is packed once, over D and from the map's
    lowest exponent; a step is one pass over its triples, an exact division
    by D and a shift.  A zero image and a zero product are keyed too: every
    zero element has the one key (0, (0,) * size).

    A scalar multiple lambda * 1 has a key too where lambda**k = chi(g)**e
    for an image g and 0 <= e <= c, with (chi, k) of `_character`.  The
    map R of D * g on the N coordinates is an integral matrix whose row
    sums are at most B, so its determinant is an integer of size at most
    B**N (the row-sum bound).  That determinant is D**N * det R(g), where
    det R(g) is det(g)**dim for a matrix (R is I (x) g, N = dim**2) and the
    norm of g for a cyclic element (N = k = s): chi(g)**(N/k) either way.
    The map of lambda * 1 is lambda * I, so
    (lambda * D**e)**N = (D**N * chi(g)**(N/k))**e is an integer of size at
    most B**(N*e), and so lambda * D**e, a rational, is an integer of size
    at most B**e, and lambda * D**c, as D <= B, one of size at most B**c.

    Returns `key(x)`, the key of x, or None where x * D**c is not integral
    or has a coefficient above B**c; the steps; and `product(key, step)`,
    the key of x * image from the key of x, a product of fewer than c
    images.  Returns None instead where c * spread > PACKED_SPAN, with
    spread the widest exponent range of one map: a key coordinate holds up
    to c * spread + 1 slots of K bits, while `Matrix` products cancel and
    trim as they go.  On SM_2 grids (Python 3.11, 2 cores) packed keys took
    0.51-0.77 times the `Matrix` time up to c * spread = 120, were mixed at
    180-200 and mostly slower from 300.  Maps that each sit at one exponent
    pack at any depth, one integer per key coordinate, and a step skips the
    shift."""
    maps = [_right_map(g) for g in images]
    den = lcm(*[d for coefs, _ in maps for _, _, d in coefs])
    size = len(_coordinates(images[0]))
    spread, bound, lows = 0, den, []
    for coefs, triples in maps:
        low = min([e for e, _, _ in coefs], default=0)
        spread = max([spread, *[e + len(nums) - 1 - low for e, nums, _ in coefs]])
        if depth * spread > PACKED_SPAN:
            return None
        norms, sums = [sum(map(abs, nums)) * (den // d) for _, nums, d in coefs], [0] * size
        for i, _, c in triples:
            sums[i] += norms[c]
        bound = max(bound, *sums)
        lows.append(low)
    slot, scale, cap = depth * bound.bit_length() + 1, den**depth, bound**depth

    def pack(low: int, nums: tuple[int, ...], f: int) -> int:
        if len(nums) == 1:
            return nums[0] * f << slot * low
        return sum([n * f << slot * i for i, n in enumerate(nums, low)])

    def key(x: Matrix | CyclicElement) -> tuple[int, tuple[int, ...]] | None:
        coords = _coordinates(x)
        low, ents = min([e for e, nums, _ in coords if nums], default=0), []
        for e, nums, d in coords:
            if nums:
                f, rem = divmod(scale, d)
                if rem or max(map(abs, nums)) * f > cap:
                    return None
                ents.append(pack(e - low, nums, f))
            else:
                ents.append(0)
        return low, tuple(ents)

    def product(held: tuple[int, tuple[int, ...]], image: tuple[int, list]) -> tuple[int, tuple[int, ...]]:
        (low, a), (image_low, triples) = held, image
        out = [0] * size
        for i, j, c in triples:
            out[j] += a[i] * c
        if den > 1:
            out = [x // den for x in out]
        if not any(out):
            return 0, tuple(out)
        # the lowest nonzero slot, always 0 when each map sits at one exponent
        z = spread and (min([x & -x for x in out if x]).bit_length() - 1) // slot
        if z:
            out = [x >> slot * z for x in out]
        return low + image_low + z, tuple(out)

    steps = []
    for (coefs, triples), image_low in zip(maps, lows):
        packed = [pack(e - image_low, nums, den // d) for e, nums, d in coefs]
        steps.append((image_low, [(i, j, packed[c]) for i, j, c in triples]))
    return key, steps, product


def _search_keys(images: Sequence[AlgebraElement], depth: int) -> tuple[Callable, Sequence, Callable, int | None]:
    """The one choice of how a bounded search keys products of `images`,
    elements of one algebra: (key, steps, product, bound).  `key(x)` is None
    where x has no key; `product(key(x), step)` is the key of x * image;
    `bound` is the most images a keyed product may hold, or None for any
    number.  Every product of at most `bound` images has a key, so an
    element with none is no such product.  Two kinds:

    * matrices and cyclic elements within the packed span:
      `_packed_keys(images, depth)`, bound `depth`;
    * any other element is its own key: every formal element, and a matrix
      or cyclic element past the packed span."""
    if not isinstance(images[0], FormalElement):
        packed = _packed_keys(images, depth)
        if packed:
            return (*packed, depth)
    return lambda x: x, images, mul, None


def _character(x: AlgebraElement) -> tuple[LaurentPoly, int]:
    """(chi(x), k) for a multiplicative map chi to the scalars with
    chi(c * 1) = c**k: (det, dim) for a matrix; (coefficient sum, 1) for a
    formal element, the augmentation of the group algebra, a ring
    homomorphism; and (norm, s) for a cyclic element of order s, the norm
    being the determinant of multiplication by x on K[X]/(X^s - d),
    multiplicative as that algebra is commutative.

    The norm is taken in closed form for x = a*X + c + b*X^-1, the only
    shape a letter or tau image has: c = coords[0], a = coords[1] (s >= 2)
    and b = coords[s-1] * d (s >= 3), as X^-1 = X^(s-1) / d; a coordinate
    outside {X^-1, 1, X} raises ValueError.  N(x) is the product of
    a*xi + c + b/xi over the s roots xi of X^s = d, which is
    (-1)**(s+1) * (b**s - d * W_s + d**2 * a**s) / d, with W_k = y1**k + y2**k
    for the roots of y**2 + c*y + a*b: the Lucas sequence W_0 = 2,
    W_1 = -c, W_k = -c * W_(k-1) - a*b * W_(k-2) (E. Lucas, Amer. J. Math. 1,
    1878).  W_s is taken by a doubling ladder over the bits of s below the
    leading one (D. Knuth, TAOCP vol. 2, 4.6.3) on (W_k, W_(k+1), (a*b)**k)
    from k = 1, with W_2k = W_k**2 - 2 (a*b)**k and
    W_(2k+1) = W_k * W_(k+1) + c (a*b)**k: O(log s) scalar products."""
    if isinstance(x, Matrix):
        return x.det(), x.dim
    if isinstance(x, FormalElement):
        return sum(x.coeffs.values(), ZERO), 1
    s, d, coords = x.order, as_scalar(x.twist), x.coords
    if any(coords[2:-1]):
        raise ValueError("the cyclic norm needs an element a*X + c + b*X^-1")
    c, a, b = coords[0], coords[1] if s > 1 else ZERO, coords[-1] * d if s > 2 else ZERO
    ab = a * b
    w, w_next, power = -c, c * c - 2 * ab, ab
    for bit in bin(s)[3:]:
        odd = w * w_next + c * power
        if bit == "0":
            w, w_next, power = w * w - 2 * power, odd, power * power
        else:
            w, w_next, power = odd, w_next * w_next - 2 * power * ab, power * power * ab
    norm = b**s * d**-1 - w + d * a**s
    return (norm if s % 2 else -norm), s


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
            row[i] = _accumulate([t for t in ((*row[i], (1,)), (low, c, (-1,))) if t[1]])
        if k < dim - 1:
            p = e * _canonical(1, rows)
    pairs = [(x, y) for row, col in zip(e._entries, zip(*rows)) for x, y in zip(row, col) if x[1] and y[1]]
    low, tr = _accumulate([(x_low + y_low, a, b) for (x_low, a), (y_low, b) in pairs])
    return (low, tuple([x // (dim if dim % 2 else -dim) for x in tr])), rows  # det E = c / (-1)**(dim-1)


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
