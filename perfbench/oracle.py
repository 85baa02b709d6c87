"""Independent routes for checking smbraid's answers.

Nothing here imports smbraid.  Scalars are plain dicts ``{exponent:
Fraction}`` with zero coefficients dropped, so a rational ``c`` is ``{0: c}``
and zero is ``{}``; matrices are lists of rows of such dicts.  The functions
recompute each verdict the benchmark checks (kernel grids, character values,
word images, shape rewrites, distinctness certificates) by brute force.
"""

from __future__ import annotations

from fractions import Fraction

ONE = {0: Fraction(1)}


# --- Laurent scalars -----------------------------------------------------------


def lp(value) -> dict:
    """A scalar from an int, a Fraction, or a ready dict."""
    if isinstance(value, dict):
        return {e: c for e, c in value.items() if c}
    value = Fraction(value)
    return {0: value} if value else {}


def mono(coeff, exp: int) -> dict:
    return lp({exp: Fraction(coeff)})


def add(x: dict, y: dict) -> dict:
    out = dict(x)
    for e, c in y.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def inv_unit(x: dict) -> dict:
    if len(x) != 1:
        raise ValueError("not a unit")
    ((e, c),) = x.items()
    return {-e: 1 / c}


def power(x: dict, k: int) -> dict:
    if k < 0:
        x, k = inv_unit(x), -k
    out = ONE
    for _ in range(k):
        out = mul(out, x)
    return out


def fmt(x: dict) -> str:
    """Scalar text in the CLI's input grammar (`p/q` or `c*t^e + ...`)."""
    if not x:
        return "0"
    if set(x) == {0}:
        return str(x[0])
    return " + ".join(f"{x[e]}*t^{e}" for e in sorted(x, reverse=True))


def parse(text: str) -> dict:
    """Read a scalar printed by the CLI."""
    out: dict = {}
    for term in text.split(" + "):
        if "*t^" in term:
            c, e = term.split("*t^")
            out = add(out, {int(e): Fraction(c)})
        else:
            out = add(out, lp(Fraction(term)))
    return out


# --- matrices --------------------------------------------------------------------


def mat_identity(dim: int) -> list:
    return [[ONE if i == j else {} for j in range(dim)] for i in range(dim)]


def mat_mul(x: list, y: list) -> list:
    dim = len(x)
    out = []
    for i in range(dim):
        row = []
        for j in range(dim):
            acc: dict = {}
            for k in range(dim):
                if x[i][k] and y[k][j]:
                    acc = add(acc, mul(x[i][k], y[k][j]))
            row.append(acc)
        out.append(row)
    return out


def mat_lincomb(terms: list) -> list:
    """sum of scalar * matrix over (scalar, matrix) pairs."""
    dim = len(terms[0][1])
    out = [[{} for _ in range(dim)] for _ in range(dim)]
    for s, m in terms:
        for i in range(dim):
            for j in range(dim):
                if m[i][j]:
                    out[i][j] = add(out[i][j], mul(s, m[i][j]))
    return out


def mat_inverse_2x2(m: list) -> list:
    (a, b), (c, d) = m
    det = add(mul(a, d), mul({0: Fraction(-1)}, mul(b, c)))
    di = inv_unit(det)
    neg = {0: Fraction(-1)}
    return [[mul(di, d), mul(di, mul(neg, b))], [mul(di, mul(neg, c)), mul(di, a)]]


def parse_matrix_text(text: str) -> list:
    """Read `[[a,b],[c,d]]` as printed by the CLI."""
    body = text.strip()[2:-2]
    return [[parse(e) for e in row.split(",")] for row in body.split("],[")]


# --- SM_2 kernel grids -----------------------------------------------------------


def hit_order(hit: tuple) -> tuple:
    p, q = hit
    return (p, abs(q), 0 if q > 0 else 1)


def kernel_grid(one, s, s_inv, t, mult, p_max: int, q_max: int) -> dict:
    """Verdict fields of an SM_2 kernel grid over tau^p sigma^q, p <= p_max,
    |q| <= q_max, computed by plain repeated multiplication."""
    hits = []
    head = one
    for p in range(p_max + 1):
        if p:
            head = mult(head, t)
        if p and head == one:
            hits.append((p, 0))
        pos = neg = head
        for q in range(1, q_max + 1):
            pos = mult(pos, s)
            neg = mult(neg, s_inv)
            if pos == one:
                hits.append((p, q))
            if neg == one:
                hits.append((p, -q))
    hits.sort(key=hit_order)
    positive = [h for h in hits if h[0] >= 1]
    minimal = positive[0] if positive else None
    cyclic = None
    if minimal is not None:
        p0, q0 = minimal
        cyclic = all(p and p % p0 == 0 and q == (p // p0) * q0 for p, q in hits)
    return {
        "bounds": {"p_max": p_max, "q_max": q_max},
        "bounded": True,
        "hits": [list(h) for h in hits],
        "minimal_generator": list(minimal) if minimal else None,
        "cyclic_ok": cyclic,
    }


def matrix_kernel(m: list, params: tuple, p_max: int, q_max: int) -> dict:
    a, b, c = params
    if len(m) == 1:
        m_inv = [[inv_unit(m[0][0])]]
    else:
        m_inv = mat_inverse_2x2(m)
    one = mat_identity(len(m))
    t = mat_lincomb([(a, m), (b, m_inv), (c, one)])
    return kernel_grid(one, m, m_inv, t, mat_mul, p_max, q_max)


def cyclic_x_power(order: int, twist: dict, k: int) -> list:
    j = k % order
    coords = [{} for _ in range(order)]
    coords[j] = power(twist, (k - j) // order)
    return coords


def cyclic_kernel(order: int, twist: dict, params: tuple, p_max: int, q_max: int) -> dict:
    """The same grid in K[X]/(X^order - twist) with sigma -> X."""

    def mult(x, y):
        out = [{} for _ in range(order)]
        for i, u in enumerate(x):
            for j, v in enumerate(y):
                if u and v:
                    c = mul(u, v)
                    e = i + j
                    if e >= order:
                        e -= order
                        c = mul(c, twist)
                    out[e] = add(out[e], c)
        return out

    a, b, c = params
    one = cyclic_x_power(order, twist, 0)
    x = cyclic_x_power(order, twist, 1)
    x_inv = cyclic_x_power(order, twist, -1)
    t = [add(add(mul(a, u), mul(b, v)), mul(c, w)) for u, v, w in zip(x, x_inv, one)]
    return kernel_grid(one, x, x_inv, t, mult, p_max, q_max)


def character_value(params: tuple, d: dict, p: int, q: int) -> dict:
    """(a d + b d^-1 + c)^p d^q: the scalar image of tau_1^p sigma_1^q."""
    a, b, c = params
    base = add(add(mul(a, d), mul(b, inv_unit(d))), c)
    return mul(power(base, p), power(d, q))


# --- words -----------------------------------------------------------------------
#
# A word is a list of tokens s<k>, S<k>, t<k>.


def invert_braid(tokens: list) -> list:
    return [("S" if tok[0] == "s" else "s") + tok[1:] for tok in reversed(tokens)]


def tau_conjugator(i: int) -> list:
    out = []
    for j in range(i - 1, 0, -1):
        out += [f"s{j}", f"s{j + 1}"]
    return out


def free_reduce(tokens: list) -> list:
    stack: list = []
    for tok in tokens:
        if stack and tok[0] != "t" and stack[-1][0] != "t" and invert_braid([tok]) == [stack[-1]]:
            stack.pop()
        else:
            stack.append(tok)
    return stack


def shape(tokens: list, p: int, q: int) -> dict:
    """Block decomposition against v = t1^p s1^q, rebuilt from its definition:
    every t<i> becomes w_i t1 w_i^-1, each t1 run of length r is split as
    t1^(r mod p) v^(r div p), and the sigma correction s1^-(m q) is freely
    reduced into the run's braid tail."""
    expanded = []
    for tok in tokens:
        if tok[0] == "t":
            conj = tau_conjugator(int(tok[1:]))
            expanded += conj + ["t1"] + invert_braid(conj)
        else:
            expanded.append(tok)
    pos = 0
    while pos < len(expanded) and expanded[pos][0] != "t":
        pos += 1
    blocks = [(0, 0, expanded[:pos])] if pos else []
    while pos < len(expanded):
        run = 0
        while pos < len(expanded) and expanded[pos][0] == "t":
            run, pos = run + 1, pos + 1
        start = pos
        while pos < len(expanded) and expanded[pos][0] != "t":
            pos += 1
        m, r = divmod(run, p)
        correction = ["S1" if q > 0 else "s1"] * (m * abs(q))
        blocks.append((r, m, free_reduce(correction + expanded[start:pos])))
    v = ["t1"] * p + (["s1"] if q >= 0 else ["S1"]) * abs(q)
    assembled, stripped = [], []
    for r, m, u in blocks:
        assembled += ["t1"] * r + v * m + u
        stripped += ["t1"] * r + u
    return {
        "blocks": [{"tau_run": r, "v_power": m, "braid": " ".join(u)} for r, m, u in blocks],
        "assembled": " ".join(assembled),
        "stripped": " ".join(stripped),
    }


def certificate(n: int, w1: list, w2: list) -> str | None:
    """First relation invariant separating two words, as the CLI prints it."""

    def tau_count(w):
        return sum(tok[0] == "t" for tok in w)

    def exponent(w):
        return sum({"s": 1, "S": -1, "t": 0}[tok[0]] for tok in w)

    def perm(w):
        images = list(range(n))
        for tok in w:
            i = int(tok[1:]) - 1
            images[i], images[i + 1] = images[i + 1], images[i]
        return tuple(images)

    for kind, inv in (("tau-count", tau_count), ("sigma-exponent", exponent), ("permutation", perm)):
        if inv(w1) != inv(w2):
            return f"{kind}: {inv(w1)} != {inv(w2)}"
    return None


# --- unreduced Burau images --------------------------------------------------------

T = mono(1, 1)
NEG = lp(-1)


def burau_generator(n: int, i: int, inverse: bool) -> list:
    """Unreduced Burau image of sigma_i (or its inverse): the block
    [[1-t, t], [1, 0]] (inverse [[0, 1], [t^-1, 1-t^-1]]) at strands i, i+1."""
    m = mat_identity(n)
    k = i - 1
    if inverse:
        block = [[{}, ONE], [mono(1, -1), add(ONE, mono(-1, -1))]]
    else:
        block = [[add(ONE, mono(-1, 1)), T], [ONE, {}]]
    for r in range(2):
        for c in range(2):
            m[k + r][k + c] = block[r][c]
    return m


def burau_eval(n: int, params: tuple, tokens: list) -> list:
    """Image of an SM_n word under Phi_{a,b,c} of unreduced Burau."""
    a, b, c = params
    one = mat_identity(n)
    acc = one
    for tok in tokens:
        i = int(tok[1:])
        if tok[0] == "s":
            img = burau_generator(n, i, False)
        elif tok[0] == "S":
            img = burau_generator(n, i, True)
        else:
            img = mat_lincomb(
                [(a, burau_generator(n, i, False)), (b, burau_generator(n, i, True)), (c, one)]
            )
        acc = mat_mul(acc, img)
    return acc
