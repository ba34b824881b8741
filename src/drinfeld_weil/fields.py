"""Exact arithmetic in small finite fields F_{p^e}.

A field is a descriptor (p, e, modulus) plus an element factory.  The
modulus is a monic irreducible of degree e over F_p given as a
coefficient list, constant term first; elements are residue polynomials
of degree < e stored as length-e tuples of ints.  All values are
immutable, equality is structural, and every operation is a pure
function, so instances can be shared freely between threads.

F_p[y] arithmetic on int lists has one kernel here, _pmul (convolution)
and _pdivmod (long division); the modulus search, the reduction table
of each field and polys.UniPoly over F_p, which holds its coefficients
as ints, all run on it.  Element products keep their own table
reduction, which is faster per product.
The modulus search tests each candidate with Ben-Or's irreducibility
test on this kernel; polys.is_irreducible_poly is the same test on
UniPoly over any finite field.

Every F_p-linear map between fields is a list of int rows, built once
and applied to coefficient tuples by _apply_rows: the Frobenius
x -> x^p (through which powers send each factor p of the exponent), a
subfield embedding, and the coordinates over a subfield and their lift.
"""

from __future__ import annotations

import itertools
from operator import mul

from . import linalg


# Miller-Rabin with the prime bases 2..41 is exact below PRIME_TEST_LIMIT,
# the least strong pseudoprime to all of them (Sorenson and Webster,
# 2015).  The bases 2..37 alone fail at 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < PRIME_TEST_LIMIT.

    Raises ValueError at or above the limit rather than guess."""
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(f"{n} is too large to test for primality "
                         f"(the limit is {PRIME_TEST_LIMIT})")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# The int-list F_p[y] kernel, constant term first.  F_p-linear maps.

def _apply_rows(rows, v, p):
    """The F_p-linear map with int rows applied to the int vector v."""
    return tuple([sum(map(mul, row, v)) % p for row in rows])


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b):
    """Product of two int lists, coefficients left unreduced."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _pdivmod(a, m, p):
    """(quotient, remainder) of a by m over F_p, by long division.

    a may hold any ints; m is trimmed with m[-1] prime to p.  Both
    results are reduced mod p and trimmed, deg remainder < deg m."""
    rem = _trim([c % p for c in a])
    d = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    quot = [0] * max(len(rem) - d, 0)
    while len(rem) > d:
        c = (rem[-1] * inv_lead) % p
        shift = len(rem) - 1 - d
        quot[shift] = c
        for j, mj in enumerate(m):
            rem[shift + j] = (rem[shift + j] - c * mj) % p
        _trim(rem)
    return quot, rem


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while _trim(b):
        a, b = b, _pdivmod(a, b, p)[1]
    return a


def _ppow_mod(base, exp, m, p):
    result = [1]
    base = _pdivmod(base, m, p)[1]
    while exp:
        if exp & 1:
            result = _pdivmod(_pmul(result, base), m, p)[1]
        base = _pdivmod(_pmul(base, base), m, p)[1]
        exp >>= 1
    return result


def _minus_y(a, p):
    """a - y, trimmed."""
    a = list(a) + [0] * (2 - len(a))
    a[1] = (a[1] - 1) % p
    return _trim(a)


def _is_irreducible(m, p):
    """Ben-Or's test for a monic m over F_p: m of degree d is irreducible
    exactly when gcd(m, y^(p^i) - y) = 1 for every i <= d/2, each
    y^(p^i) the p-th power of the one before mod m.  A reducible m stops
    at the degree of its smallest factor (Ben-Or, FOCS 1981; Gao and
    Panario, 1997)."""
    d = len(m) - 1
    if d <= 0:
        return False
    power = [0, 1]
    for _ in range(d // 2):
        power = _ppow_mod(power, p, m, p)
        if len(_pgcd(m, _minus_y(power, p), p)) > 1:
            return False
    return True


def _smallest_irreducible(p, e):
    """Lexicographically smallest monic irreducible of degree e over F_p.

    Coefficient tuples (a_0, ..., a_{e-1}) are compared left to right.
    For e >= 2 a candidate with a_0 = 0 has the root 0, so the walk
    starts at a_0 = 1; a root elsewhere in F_p is the first step of the
    test.
    """
    if e == 1:
        return [0, 1]
    # n runs over the base-p numerals a_0 a_1 ... a_{e-1} with a_0 >= 1
    for n in range(p ** (e - 1), p ** e):
        m = [1]
        for _ in range(e):
            n, a = divmod(n, p)
            m.append(a)
        m.reverse()
        if _is_irreducible(m, p):
            return m
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FieldElem:
    """Element of a FiniteField: residue polynomial, constant term first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs  # tuple of length field.e, ints in [0, p)

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.field != self.field:
                raise ValueError("field mismatch")
            return other
        if isinstance(other, int):
            return self.field.elem(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.field.p
        return FieldElem(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.field.p
        return FieldElem(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        p = self.field.p
        return FieldElem(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.field._mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        """x^n with n = p^k m, p not dividing m: x^m by left-to-right
        square-and-multiply, then k applications of the Frobenius map."""
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self.field.one()
        field = self.field
        k = 0
        while n % field.p == 0:
            n //= field.p
            k += 1
        result = self
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        if field.e > 1:
            for _ in range(k):
                result = field._frob(result)
        return result

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        return self ** (self.field.order - 2)

    def is_zero(self):
        return all(a == 0 for a in self.coeffs)

    def __eq__(self, other):
        # ints are not coerced here: equal elements must hash equal
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"FieldElem({self})"

    def __str__(self):
        if self.field.e == 1:
            return str(self.coeffs[0])
        parts = []
        for k in range(self.field.e - 1, -1, -1):
            a = self.coeffs[k]
            if a == 0:
                continue
            if k == 0:
                parts.append(str(a))
            else:
                var = "y" if k == 1 else f"y^{k}"
                parts.append(var if a == 1 else f"{a}*{var}")
        return " + ".join(parts) if parts else "0"


class FiniteField:
    """F_{p^e} = F_p[y] / (modulus)."""

    def __init__(self, p: int, e: int = 1, modulus=None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        if modulus is None:
            modulus = _smallest_irreducible(p, e)
        else:
            modulus = [c % p for c in modulus]
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree e")
            if not _is_irreducible(modulus, p):
                raise ValueError("modulus is reducible")
        self.p = p
        self.e = e
        self.modulus = tuple(modulus)
        self.order = p ** e
        # reduction table: y^k mod the modulus for k in [e, 2e-2], each
        # power one kernel step from the one before
        red, cur = [], [0] * (e - 1) + [1]
        for _ in range(e - 1):
            cur = _pdivmod([0] + cur, modulus, p)[1]
            red.append(tuple(cur + [0] * (e - len(cur))))
        self._red = red
        self._frob_rows = None  # built by _frob on first use

    def elem(self, value) -> FieldElem:
        if isinstance(value, FieldElem):
            if value.field != self:
                raise ValueError("field mismatch")
            return value
        if isinstance(value, int):
            coeffs = [value % self.p] + [0] * (self.e - 1)
            return FieldElem(self, tuple(coeffs))
        coeffs = [int(c) % self.p for c in value]
        if len(coeffs) > self.e:
            raise ValueError("coefficient list longer than extension degree")
        coeffs += [0] * (self.e - len(coeffs))
        return FieldElem(self, tuple(coeffs))

    # hook for generic code that coerces scalars into a field
    coerce = elem

    def zero(self) -> FieldElem:
        return self.elem(0)

    def one(self) -> FieldElem:
        return self.elem(1)

    def gen(self) -> FieldElem:
        """Class of y (equals 0 + 1*y); for e = 1 this is 1."""
        if self.e == 1:
            return self.one()
        return self.elem([0, 1])

    def elements(self):
        """All p^e elements, in lexicographic coefficient order."""
        for digits in itertools.product(range(self.p), repeat=self.e):
            yield FieldElem(self, digits)

    def _mul(self, a: FieldElem, b: FieldElem) -> FieldElem:
        p, e = self.p, self.e
        if e == 1:
            return FieldElem(self, ((a.coeffs[0] * b.coeffs[0]) % p,))
        conv = [0] * (2 * e - 1)
        for i, ai in enumerate(a.coeffs):
            if ai:
                for j, bj in enumerate(b.coeffs):
                    conv[i + j] += ai * bj
        out = [c % p for c in conv[:e]]
        for k in range(e, 2 * e - 1):
            c = conv[k] % p
            if c:
                table = self._red[k - e]
                out = [(o + c * t) % p for o, t in zip(out, table)]
        return FieldElem(self, tuple(out))

    def _frob(self, a: FieldElem) -> FieldElem:
        """a^p, as the F_p-linear map sum c_i y^i -> sum c_i (y^p)^i.

        The map's rows are built on first use: column i is (y^p)^i mod
        the modulus, y^p by the kernel's powering.  That is O(e^3), so it
        is not part of building the field."""
        p = self.p
        if self._frob_rows is None:
            yp = _ppow_mod([0, 1], p, self.modulus, p)
            cols, cur = [], [1]
            for _ in range(self.e):
                cols.append(cur + [0] * (self.e - len(cur)))
                cur = _pdivmod(_pmul(cur, yp), self.modulus, p)[1]
            self._frob_rows = list(zip(*cols))
        return FieldElem(self, _apply_rows(self._frob_rows, a.coeffs, p))

    def describe(self):
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, FiniteField) and self.p == other.p
                and self.e == other.e and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"


def make_field(p: int, e: int = 1, modulus=None) -> FiniteField:
    """Validated field descriptor; picks the smallest modulus when omitted."""
    return FiniteField(p, e, modulus)


# ---------------------------------------------------------------------------
# Embeddings and relative vector-space structure.

class Embedding:
    """Ring embedding of a subfield into an extension, gen -> image: the
    F_p-linear map whose column i is image^i."""

    def __init__(self, small: FiniteField, big: FiniteField, image: FieldElem):
        self.small = small
        self.big = big
        self.image = image
        cols, power = [], big.one()
        for _ in range(small.e):
            cols.append(power.coeffs)
            power = power * image
        self._rows = list(zip(*cols))

    def __call__(self, x: FieldElem) -> FieldElem:
        if x.field != self.small:
            raise ValueError("element not in source field")
        return FieldElem(self.big, _apply_rows(self._rows, x.coeffs, self.big.p))


def embed(small: FiniteField, big: FiniteField) -> Embedding:
    """The embedding sending small.gen() to its smallest root in big."""
    if small == big:
        return Embedding(small, big, big.gen())
    if small.p != big.p or big.e % small.e != 0:
        raise ValueError("no embedding: source is not a subfield")
    if small.e == 1:
        return Embedding(small, big, big.one())
    # the roots lie in the kernel of x -> x^(p^k) - x, k = small.e, whose
    # column i is (y^i)^(p^k) - y^i
    fp = FiniteField(small.p)
    cols = []
    for i in range(big.e):
        y_i = big.elem([0] * i + [1])
        cols.append((y_i ** small.order - y_i).coeffs)
    kernel = linalg.nullspace([[fp.elem(c) for c in row] for row in zip(*cols)], fp)
    roots = []
    for digits in itertools.product(range(small.p), repeat=len(kernel)):
        vec = [0] * big.e
        for d, basis_vec in zip(digits, kernel):
            if d:
                for i, b in enumerate(basis_vec):
                    vec[i] = (vec[i] + d * b.coeffs[0]) % big.p
        cand = big.elem(vec)
        # evaluate small's modulus at cand
        acc = big.zero()
        for c in reversed(small.modulus):
            acc = acc * cand + c
        if acc.is_zero():
            roots.append(cand)
    if not roots:
        raise AssertionError("subfield root not found")
    img = min(roots, key=lambda x: x.coeffs)
    return Embedding(small, big, img)


class RelativeBasis:
    """big as a vector space over small, with basis powers = {w^i}, w =
    big.gen(), which generates big over any subfield.

    On F_p digits, lift (c_0, ..., c_{dim-1}) -> sum emb(c_i) w^i is the
    map whose columns are emb(y^j) w^i, and coords is its inverse; both
    are int rows, the inverse found once by elimination over F_p.
    """

    def __init__(self, big: FiniteField, small: FiniteField, emb):
        if big.e % small.e != 0:
            raise ValueError("not an extension")
        self.big = big
        self.small = small
        self.dim = big.e // small.e
        w = big.gen()
        powers = [big.one()]
        for _ in range(self.dim - 1):
            powers.append(powers[-1] * w)
        self.powers = powers
        cols = [(emb(small.elem([0] * j + [1])) * w_i).coeffs
                for w_i in powers for j in range(small.e)]
        self._lift_rows = list(zip(*cols))
        fp = FiniteField(big.p)
        inv = linalg.inverse([[fp.elem(c) for c in row] for row in self._lift_rows], fp)
        self._coord_rows = [[c.coeffs[0] for c in row] for row in inv]

    def coords(self, x: FieldElem):
        """Coordinates of x over small, length dim."""
        digits = _apply_rows(self._coord_rows, x.coeffs, self.big.p)
        k = self.small.e
        return [FieldElem(self.small, digits[i * k:(i + 1) * k]) for i in range(self.dim)]

    def lift(self, vec):
        digits = [c for v in vec for c in v.coeffs]
        return FieldElem(self.big, _apply_rows(self._lift_rows, digits, self.big.p))


def min_poly_over(x: FieldElem, rel: RelativeBasis):
    """Minimal polynomial of x over rel.small, as a coefficient list
    (constant first, monic).

    The coordinates of 1, x, ..., x^dim are the columns; the pivots of
    their row echelon form are 1, ..., x^(d-1), d the degree, so the
    first nullspace vector is the minimal polynomial, followed by zeros."""
    cols = [rel.coords(rel.big.one())]
    power = rel.big.one()
    for _ in range(rel.dim):
        power = power * x
        cols.append(rel.coords(power))
    vec = linalg.nullspace([list(row) for row in zip(*cols)], rel.small)[0]
    while vec[-1].is_zero():
        vec.pop()
    return vec
