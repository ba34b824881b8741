"""Exact arithmetic in small finite fields F_{p^e}.

A field is a descriptor (p, e, modulus) plus an element factory.  The
modulus is a monic irreducible of degree e over F_p given as a
coefficient list, constant term first.  An element is a residue
polynomial sum a_i y^i of degree < e held as one int v, the digit a_i
in bits [iW, (i+1)W); .coeffs is the digit tuple (a_0, ..., a_{e-1}),
and every order that reaches an output (elements(), the root embed
picks, sorted values) is the order of those tuples, never of v.  All
values are immutable, equality is structural, and every operation is a
pure function, so instances can be shared freely between threads.

FiniteField picks one of three element kernels from (p, e) when it is
built:

* p = 2: W = 1, so v = sum a_i 2^i.  + and - are XOR; x is a
  shift-and-XOR product that folds the modulus in from the top bit down
  to bit e; the Frobenius x -> x^2 is that product.
* e = 1: v is in [0, p) and every operation is int arithmetic mod p.
* odd p, e > 1: W = bitlen(2e(p-1)^2).  + and - add whole ints, then
  subtract p from every slot >= p with one bias-and-mask step.  x is one
  int product whose slots hold the convolution (Kronecker substitution;
  von zur Gathen and Gerhard, Modern Computer Algebra); the slots >= e
  are folded in with the packed reduction table y^k mod the modulus,
  and then each slot is reduced mod p once.

Every F_p-linear map between fields is a list of packed columns in its
target field, applied as sum_i a_i col_i and one slot pass: the odd-p
Frobenius (columns (y^p)^i, built on first use, through which powers
send each factor p of the exponent), a subfield embedding (columns
image^i; on F_p it is the identity on v), and the coordinates over a
subfield and their lift.  tests/test_fields.py keeps the digit-tuple
arithmetic these kernels replaced as their oracle.

F_p[y] arithmetic on int lists has one kernel here, _pmul (convolution)
and _pdivmod (long division); the modulus search, the reduction table
of each field and polys.UniPoly over F_p, which holds its coefficients
as ints, all run on it.  Element products do not call it.
The modulus search tests each candidate with Ben-Or's irreducibility
test on this kernel; polys.is_irreducible_poly is the same test on
UniPoly over any finite field.
"""

from __future__ import annotations

import itertools
from operator import pos, xor

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
# The int-list F_p[y] kernel, constant term first.

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
    results are reduced mod p and trimmed, deg remainder < deg m.
    Quotient digits are found from the top down, each reduced when read;
    a nonzero one subtracts only m's lower coefficients."""
    d = len(m) - 1
    rem = list(a)
    inv_lead = pow(m[-1], p - 2, p)
    low = m[:d]
    quot = [0] * (len(rem) - d)
    for shift in range(len(quot) - 1, -1, -1):
        c = rem[shift + d] * inv_lead % p
        if c:
            quot[shift] = c
            j = shift
            for mj in low:
                rem[j] -= c * mj
                j += 1
    return _trim(quot), _trim([c % p for c in rem[:d]])


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
    """Element of a FiniteField: one int v, digit a_i of the residue
    polynomial sum a_i y^i in bits [iW, (i+1)W) (the module docstring)."""

    __slots__ = ("field", "v")

    def __init__(self, field, v):
        self.field = field
        self.v = v

    @property
    def coeffs(self):
        """The digit tuple (a_0, ..., a_{e-1}), ints in [0, p)."""
        return self.field._digits(self.v)

    def _coerce(self, other):
        """other's int in this field's layout; an int is a constant."""
        if isinstance(other, FieldElem):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("field mismatch")
            return other.v
        if isinstance(other, int):
            return other % self.field.p
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        field = self.field
        return FieldElem(field, field._add(self.v, other))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        field = self.field
        return FieldElem(field, field._sub(self.v, other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        field = self.field
        return FieldElem(field, field._neg(self.v))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        field = self.field
        return FieldElem(field, field._mul(self.v, other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = self.field.elem(other)
        elif not isinstance(other, FieldElem):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        field = self.field
        return FieldElem(field, field._pow(self.v, n))

    def inverse(self):
        if not self.v:
            raise ZeroDivisionError("inverse of zero field element")
        return self ** (self.field.order - 2)

    def is_zero(self):
        return not self.v

    def __eq__(self, other):
        # ints are not coerced here: equal elements must hash equal
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.v == other.v and self.field == other.field

    def __hash__(self):
        return hash(self.v)

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"FieldElem({self})"

    def __str__(self):
        if self.field.e == 1:
            return str(self.v)
        coeffs = self.coeffs
        parts = []
        for k in range(self.field.e - 1, -1, -1):
            a = coeffs[k]
            if a == 0:
                continue
            if k == 0:
                parts.append(str(a))
            else:
                var = "y" if k == 1 else f"y^{k}"
                parts.append(var if a == 1 else f"{a}*{var}")
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# The three element kernels.  Each sets the field's int operations _add,
# _sub, _neg, _mul, _frob (x -> x^p) and _apply (an F_p-linear map given
# by packed columns in this field, applied to the digits of a packed int
# of slot width w).

def _gf2_kernel(F):
    """p = 2, W = 1: + and - are XOR, x shifts and XORs, then folds the
    modulus in from the top bit down to bit e; x^2 is that product."""
    e, m = F.e, F._pack(F.modulus)

    def mul(a, b):
        r = 0
        while b:
            low = b & -b
            r ^= a * low
            b ^= low
        while r >> e:
            r ^= m << (r.bit_length() - 1 - e)
        return r

    def apply(cols, a, w, mask):
        acc = 0
        for c in cols:
            if not a:
                break
            if a & mask:
                acc ^= c
            a >>= w
        return acc

    F._add = F._sub = xor
    F._neg = pos
    F._mul = mul
    F._frob = lambda a: mul(a, a)
    F._apply = apply


def _prime_kernel(F):
    """e = 1: v is in [0, p), every operation is int arithmetic mod p and
    the Frobenius is the identity."""
    p = F.p

    def apply(cols, a, w, mask):
        acc = 0
        for c in cols:
            acc += (a & mask) * c
            a >>= w
        return acc % p

    F._add = lambda a, b: (a + b) % p
    F._sub = lambda a, b: (a - b) % p
    F._neg = lambda a: -a % p
    F._mul = lambda a, b: a * b % p
    F._frob = pos
    F._apply = apply


def _packed_kernel(F):
    """Odd p, e > 1, W = bitlen(2e(p-1)^2): a slot holds a convolution
    digit, at most e(p-1)^2, plus the folded reduction, at most
    (e-1)(p-1)^2, with no carry into the next slot."""
    p, e, W, mask = F.p, F.e, F._w, F._mask
    # reduction table: y^k mod the modulus for k in [e, 2e-2], packed,
    # each power one kernel step from the one before
    red, cur = [], [0] * (e - 1) + [1]
    for _ in range(e - 1):
        cur = _pdivmod([0] + cur, F.modulus, p)[1]
        red.append(F._pack(cur))
    F._red = red
    F._frob_cols = None  # built by frob on first use
    ones = F._pack([1] * e)
    full = p * ones
    top = ones << (W - 1)
    # slot + bias reaches the top bit exactly when slot >= p
    bias = ((1 << (W - 1)) - p) * ones
    low = (1 << (e * W)) - 1

    def reduce(x):
        """Every slot of x reduced mod p."""
        out = sh = 0
        while x:
            out |= (x & mask) % p << sh
            x >>= W
            sh += W
        return out

    def add(a, b):
        s = a + b
        return s - (((s + bias) & top) >> (W - 1)) * p

    def sub(a, b):
        s = a + full - b
        return s - (((s + bias) & top) >> (W - 1)) * p

    def neg(a):
        s = full - a
        return s - (((s + bias) & top) >> (W - 1)) * p

    def mul(a, b):
        c = a * b
        lo = c & low
        c >>= e * W
        for t in red:
            if not c:
                break
            d = (c & mask) % p
            if d:
                lo += d * t
            c >>= W
        return reduce(lo)

    def apply(cols, a, w, amask):
        acc = 0
        for c in cols:
            if not a:
                break
            d = a & amask
            if d:
                acc += d * c
            a >>= w
        return reduce(acc)

    def frob(a):
        cols = F._frob_cols
        if cols is None:
            cols = F._frob_cols = _frobenius_columns(F)
        return apply(cols, a, W, mask)

    F._add, F._sub, F._neg, F._mul, F._frob, F._apply = add, sub, neg, mul, frob, apply


def _frobenius_columns(F):
    """Column i of x -> x^p is (y^p)^i mod the modulus, y^p by the
    kernel's powering: O(e^3), so not part of building the field."""
    p, m = F.p, F.modulus
    yp = _ppow_mod([0, 1], p, m, p)
    cols, cur = [], [1]
    for _ in range(F.e):
        cols.append(F._pack(cur))
        cur = _pdivmod(_pmul(cur, yp), m, p)[1]
    return cols


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
        self._w = 1 if p == 2 else (2 * e * (p - 1) ** 2).bit_length()
        self._mask = (1 << self._w) - 1
        if p == 2:
            _gf2_kernel(self)
        elif e == 1:
            _prime_kernel(self)
        else:
            _packed_kernel(self)

    def _pack(self, digits):
        v, w = 0, self._w
        for d in reversed(digits):
            v = (v << w) | d
        return v

    def _digits(self, v):
        w, mask = self._w, self._mask
        return tuple([(v >> sh) & mask for sh in range(0, self.e * w, w)])

    def _pow(self, v, n: int) -> int:
        """v^n, n >= 0, with n = p^k m, p not dividing m: v^m by
        left-to-right square-and-multiply, then k Frobenius steps."""
        p = self.p
        if self.e == 1:
            return pow(v, n, p)
        if n == 0:
            return 1
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        mul, r = self._mul, v
        for bit in bin(n)[3:]:
            r = mul(r, r)
            if bit == "1":
                r = mul(r, v)
        for _ in range(k):
            r = self._frob(r)
        return r

    def elem(self, value) -> FieldElem:
        if isinstance(value, FieldElem):
            if value.field != self:
                raise ValueError("field mismatch")
            return value
        if isinstance(value, int):
            return FieldElem(self, value % self.p)
        p = self.p
        coeffs = [int(c) % p for c in value]
        if len(coeffs) > self.e:
            raise ValueError("coefficient list longer than extension degree")
        return FieldElem(self, self._pack(coeffs))

    # hook for generic code that coerces scalars into a field
    coerce = elem

    def zero(self) -> FieldElem:
        return FieldElem(self, 0)

    def one(self) -> FieldElem:
        return FieldElem(self, 1)

    def gen(self) -> FieldElem:
        """Class of y (equals 0 + 1*y); for e = 1 this is 1."""
        if self.e == 1:
            return self.one()
        return self.elem([0, 1])

    def elements(self):
        """All p^e elements, in lexicographic coefficient order."""
        for digits in itertools.product(range(self.p), repeat=self.e):
            yield FieldElem(self, self._pack(digits))

    def describe(self):
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, FiniteField) and self.p == other.p
                and self.e == other.e and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __reduce__(self):
        # the kernel's closures do not pickle; the descriptor rebuilds them
        return FiniteField, (self.p, self.e, self.modulus)

    def __repr__(self):
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"


def make_field(p: int, e: int = 1, modulus=None) -> FiniteField:
    """Validated field descriptor; picks the smallest modulus when omitted."""
    return FiniteField(p, e, modulus)


# ---------------------------------------------------------------------------
# Embeddings and relative vector-space structure.

class Embedding:
    """Ring embedding of a subfield into an extension, gen -> image: the
    F_p-linear map whose column i is image^i.  On F_p it is the identity
    on v, the digit in slot 0."""

    def __init__(self, small: FiniteField, big: FiniteField, image: FieldElem):
        self.small = small
        self.big = big
        self.image = image
        cols, power = [], big.one()
        for _ in range(small.e):
            cols.append(power.v)
            power = power * image
        self._cols = cols

    def __call__(self, x: FieldElem) -> FieldElem:
        small = self.small
        if x.field != small:
            raise ValueError("element not in source field")
        if small.e == 1:
            return FieldElem(self.big, x.v)
        return FieldElem(self.big, self.big._apply(self._cols, x.v, small._w, small._mask))


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
                    vec[i] = (vec[i] + d * b.v) % big.p
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
    map whose columns are emb(y^j) w^i, and coords is its inverse, found
    once by elimination over F_p; both are packed columns in big.
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
        cols = [emb(small.elem([0] * j + [1])) * w_i
                for w_i in powers for j in range(small.e)]
        self._lift_cols = [c.v for c in cols]
        fp = FiniteField(big.p)
        mat = [[fp.elem(d) for d in row] for row in zip(*(c.coeffs for c in cols))]
        inv = linalg.inverse(mat, fp)
        self._coord_cols = [big._pack([row[c].v for row in inv]) for c in range(big.e)]

    def coords(self, x: FieldElem):
        """Coordinates of x over small, length dim."""
        big, small, k = self.big, self.small, self.small.e
        digits = big._digits(big._apply(self._coord_cols, x.v, big._w, big._mask))
        return [FieldElem(small, small._pack(digits[i * k:(i + 1) * k]))
                for i in range(self.dim)]

    def lift(self, vec):
        small = self.small
        chunk, v = small.e * small._w, 0
        for c in reversed(vec):
            v = (v << chunk) | c.v
        return FieldElem(self.big, self.big._apply(self._lift_cols, v, small._w, small._mask))


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
