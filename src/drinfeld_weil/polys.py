"""Univariate polynomials and rational functions over an abstract field.

The coefficient field is any object with ``zero()``, ``one()`` and a
``coerce`` hook whose elements support field arithmetic; in practice
that means FiniteField or FracField, so the same machinery serves
F_q[t], F_q(theta), and polynomials in t with F_q(theta) coefficients.

Over a prime field F_p a polynomial holds its coefficients as one tuple
of ints in [0, p), and all arithmetic runs on them and on the int-list
kernel of fields (_pmul, _pdivmod); field elements are made only when
.coeffs is read, once per polynomial.  _from_ints is the one constructor
from ints.  Over any other field the coefficients are field elements.
RatFunc sums and products take their gcds with the denominators first
(Henrici), so the fraction comes out reduced from smaller gcds.
is_irreducible_poly is Ben-Or's test, the algorithm that fields runs on
int lists for the modulus search.

Coefficient lists are constant term first.  Polynomials are kept in
canonical trimmed form; the zero polynomial has the dedicated degree
sentinel NEG_INF rather than an integer.
"""

from __future__ import annotations

import math

from .errors import NotInvertibleModF
from .fields import FieldElem, FiniteField, _pdivmod, _pmul, _trim

NEG_INF = float("-inf")  # degree of the zero polynomial


def _from_ints(ring, ints):
    """The polynomial over the prime field of ring with coefficients the
    int list ints, each in [0, p); trailing zeros are dropped."""
    return UniPoly(ring, tuple(_trim(ints)))


class PolyRing:
    """Polynomial ring field[var]."""

    def __init__(self, field, var: str = "t"):
        self.field = field
        self.var = var
        # p when field is the prime field F_p, else None; polynomials over
        # F_p hold their coefficients as ints
        self.p = field.p if isinstance(field, FiniteField) and field.e == 1 else None

    def poly(self, coeffs) -> "UniPoly":
        field, p = self.field, self.p
        if p is not None:
            return _from_ints(self, [c % p if isinstance(c, int) else field.coerce(c).v
                                     for c in coeffs])
        elems = [field.coerce(c) for c in coeffs]
        while elems and elems[-1].is_zero():
            elems.pop()
        return UniPoly(self, tuple(elems))

    def zero(self) -> "UniPoly":
        return UniPoly(self, ())

    def one(self) -> "UniPoly":
        return self.poly([1])

    def constant(self, c) -> "UniPoly":
        return self.poly([c])

    def gen(self) -> "UniPoly":
        return self.poly([0, 1])

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, PolyRing) and self.field == other.field
                and self.var == other.var)

    def __hash__(self):
        return hash((self.field, self.var))

    def __repr__(self):
        return f"PolyRing({self.field!r}, {self.var!r})"


class UniPoly:
    """A trimmed polynomial over ring.field, constant term first.

    Over a prime field the coefficients are held as ints in [0, p) and
    every operation but evaluation runs on them; .coeffs is a read-only
    tuple of field elements, built on first read and then cached.  Over
    any other field the elements are held themselves."""

    __slots__ = ("ring", "_c", "_view")

    def __init__(self, ring, c):
        self.ring = ring
        self._c = c  # ints in [0, p) over F_p, else field elements
        self._view = None

    @property
    def coeffs(self):
        view = self._view
        if view is None:
            if self.ring.p is None:
                view = self._c
            else:
                field = self.ring.field
                view = tuple([FieldElem(field, v) for v in self._c])
            self._view = view
        return view

    @property
    def degree(self):
        return len(self._c) - 1 if self._c else NEG_INF

    def is_zero(self):
        return not self._c

    def leading(self):
        return self.coeffs[-1] if self._c else self.ring.field.zero()

    def is_monic(self):
        one = 1 if self.ring.p is not None else self.ring.field.one()
        return bool(self._c) and self._c[-1] == one

    def coeff(self, k):
        view = self.coeffs
        if 0 <= k < len(view):
            return view[k]
        return self.ring.field.zero()

    def _coerce(self, other):
        if isinstance(other, UniPoly):
            if other.ring != self.ring:
                raise ValueError("polynomial ring mismatch")
            return other
        try:
            return self.ring.constant(other)
        except (TypeError, ValueError):
            return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        p = self.ring.p
        if p is not None:
            out = [(x + y) % p for x, y in zip(a, b)]
            out.extend(a[len(b):])
            return _from_ints(self.ring, out)
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return self.ring.poly(out)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.p
        if p is not None:
            return UniPoly(self.ring, tuple([(-c) % p for c in self._c]))
        return UniPoly(self.ring, tuple(-c for c in self._c))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        ring, p = self.ring, self.ring.p
        if isinstance(other, UniPoly):
            if other.ring != ring:
                raise ValueError("polynomial ring mismatch")
            a, b = self._c, other._c
            if len(a) == 1:
                return other._scale(a[0])
            if len(b) == 1:
                return self._scale(b[0])
            if not a or not b:
                return ring.zero()
            if p is not None:
                # the leading coefficient is a product of units mod p
                return UniPoly(ring, tuple([c % p for c in _pmul(a, b)]))
            zero = ring.field.zero()
            out = [zero] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x.is_zero():
                    continue
                for j, y in enumerate(b):
                    out[i + j] = out[i + j] + x * y
            return ring.poly(out)
        c = ring.field.coerce(other)
        return self._scale(c if p is None else c.v)

    __rmul__ = __mul__

    def _scale(self, c):
        """self times the constant c, held as the coefficients are; over
        F_p c is an int in [0, p), and a product by 1 is self."""
        ring, p = self.ring, self.ring.p
        if p is None:
            return ring.poly([a * c for a in self._c])
        if c == 1:
            return self
        return UniPoly(ring, tuple([a * c % p for a in self._c]) if c else ())

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _divisor(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        return other

    def __divmod__(self, other):
        other = self._divisor(other)
        ring = self.ring
        if ring.p is not None:
            quot, rem = _pdivmod(self._c, other._c, ring.p)
            return _from_ints(ring, quot), _from_ints(ring, rem)
        inv_lead = ring.field.one() / other.leading()
        quot = [ring.field.zero()] * max(len(self._c) - len(other._c) + 1, 0)
        rem = list(self._c)
        d = len(other._c) - 1
        while len(rem) - 1 >= d and rem:
            c = rem[-1] * inv_lead
            shift = len(rem) - 1 - d
            quot[shift] = c
            for j, oc in enumerate(other._c):
                rem[shift + j] = rem[shift + j] - c * oc
            while rem and rem[-1].is_zero():
                rem.pop()
        return ring.poly(quot), ring.poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        p = self.ring.p
        if p is None:
            return divmod(self, other)[1]
        return _from_ints(self.ring, _pdivmod(self._c, self._divisor(other)._c, p)[1])

    def monic(self):
        if not self._c or self.is_monic():
            return self
        p = self.ring.p
        if p is not None:
            inv = pow(self._c[-1], p - 2, p)
            return UniPoly(self.ring, tuple([c * inv % p for c in self._c]))
        return self * (self.ring.field.one() / self.leading())

    def __call__(self, x):
        """Evaluate by Horner; x may be a field element or a polynomial
        over any ring whose field accepts these coefficients."""
        if isinstance(x, UniPoly):
            acc = x.ring.zero()
            for c in reversed(self.coeffs):
                acc = acc * x + x.ring.constant(c)
            return acc
        if not self._c:
            return self.ring.field.zero()
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        return acc

    def shift(self, c):
        """Compose with (var + c)."""
        return self(self.ring.gen() + self.ring.constant(c))

    def spread(self, m: int):
        """Compose with var^m: the coefficient of var^i moves to var^(i*m).
        Over F_q and m a power of q this is the m-th power."""
        c = self._c
        if m == 1 or len(c) < 2:
            return self
        out = [0 if self.ring.p is not None else self.ring.field.zero()] * ((len(c) - 1) * m + 1)
        out[::m] = c
        return UniPoly(self.ring, tuple(out))

    def quo_var_power(self, k: int):
        """Quotient by var^k: the coefficients from var^k up, shifted down."""
        return UniPoly(self.ring, self._c[k:])

    def hasse_deriv(self, l: int):
        """l-th Hasse-Schmidt derivative: t^m -> C(m, l) t^(m-l).

        Valid in any characteristic (the binomials are integers reduced
        into the coefficient field)."""
        if l == 0:
            return self
        out = []
        for m in range(l, len(self._c)):
            out.append(self._c[m] * math.comb(m, l))
        return self.ring.poly(out)

    def __eq__(self, other):
        # no coercion: equal polynomials must hash equal
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.ring == other.ring and self._c == other._c

    def __hash__(self):
        return hash((self.ring, self._c))

    def __repr__(self):
        return f"UniPoly({self})"

    def __str__(self):
        if not self._c:
            return "0"
        var = self.ring.var
        coeffs = self.coeffs
        parts = []
        for k in range(len(coeffs) - 1, -1, -1):
            c = coeffs[k]
            if c.is_zero():
                continue
            cs = str(c)
            paren = ("+" in cs or "/" in cs or " " in cs)
            if k == 0:
                parts.append(f"({cs})" if paren else cs)
                continue
            head = var if k == 1 else f"{var}^{k}"
            if cs == "1":
                parts.append(head)
            elif paren:
                parts.append(f"({cs})*{head}")
            else:
                parts.append(f"{cs}*{head}")
        return " + ".join(parts) if parts else "0"


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_exgcd(a: UniPoly, b: UniPoly):
    """(g, u, v) with u*a + v*b = g, g the monic gcd."""
    ring = a.ring
    r0, r1 = a, b
    u0, u1 = ring.one(), ring.zero()
    v0, v1 = ring.zero(), ring.one()
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return r0, u0, v0
    lead_inv = ring.field.one() / r0.leading()
    return r0 * lead_inv, u0 * lead_inv, v0 * lead_inv


def inv_mod(h: UniPoly, f: UniPoly) -> UniPoly:
    """The unique g with g*h == 1 mod f, deg g < deg f."""
    g, u, _ = poly_exgcd(h % f, f)
    if g.degree != 0:
        raise NotInvertibleModF(f"gcd({h}, {f}) = {g}")
    # g is the constant 1 after normalization
    return u % f


def poly_powmod(a: UniPoly, e: int, m: UniPoly) -> UniPoly:
    result = m.ring.one() % m
    base = a % m
    while e:
        if e & 1:
            result = (result * base) % m
        base = (base * base) % m
        e >>= 1
    return result


def is_irreducible_poly(f: UniPoly) -> bool:
    """Ben-Or's test over a finite coefficient field F_q: f of degree d
    is irreducible exactly when gcd(f, t^(q^i) - t) = 1 for every
    i <= d/2, each t^(q^i) the q-th power of the one before mod f."""
    if f.degree < 1:
        return False
    t = f.ring.gen() % f
    power = t
    for _ in range(int(f.degree) // 2):
        power = poly_powmod(power, f.ring.field.order, f)
        if poly_gcd(power - t, f).degree != 0:
            return False
    return True


class RatFunc:
    """Reduced fraction num/den of UniPolys; den monic and coprime to num."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num: UniPoly, den: UniPoly, _canonical=False):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not _canonical:
            if num.is_zero():
                den = field.ring.one()
            else:
                # a constant denominator is prime to num
                g = poly_gcd(num, den) if den.degree > 0 else den
                if g.degree > 0:
                    num = num // g
                    den = den // g
                if not den.is_monic():
                    inv = field.ring.field.one() / den.leading()
                    num = num * inv
                    den = den * inv
        self.field = field
        self.num = num
        self.den = den

    def is_zero(self):
        return self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.field != self.field:
                raise ValueError("field mismatch")
            return other
        return self.field.coerce(other)

    def __add__(self, other):
        """a/b + c/d with g = gcd(b, d): the numerator t = a(d/g) + c(b/g)
        can share a factor with g only, so one gcd with g reduces it
        (Henrici, 1956; Knuth, TAOCP 2, 4.5.1)."""
        other = self._coerce(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        g = poly_gcd(b, d)
        if g.degree > 0:
            b, d = b // g, d // g
        num, den = a * d + c * b, b * other.den
        if num.is_zero():
            return self.field.zero()
        if g.degree > 0:
            g = poly_gcd(num, g)
            if g.degree > 0:
                num, den = num // g, den // g
        return RatFunc(self.field, num, den, _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(self.field, -self.num, self.den, _canonical=True)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """(a/b)(c/d) = (a/g1)(c/g2) / ((b/g2)(d/g1)) with g1 = gcd(a, d)
        and g2 = gcd(c, b), already reduced."""
        other = self._coerce(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if a.is_zero() or c.is_zero():
            return self.field.zero()
        g = poly_gcd(a, d)
        if g.degree > 0:
            a, d = a // g, d // g
        g = poly_gcd(c, b)
        if g.degree > 0:
            c, b = c // g, b // g
        return RatFunc(self.field, a * c, b * d, _canonical=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.field, self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return (self.field.one() / self) ** (-n)
        # num and den stay coprime, den stays monic
        return RatFunc(self.field, self.num ** n, self.den ** n, _canonical=True)

    def __eq__(self, other):
        # no coercion: equal fractions must hash equal
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.field == other.field and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.field, self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"RatFunc({self})"

    def __str__(self):
        if self.den == self.field.ring.one():
            return str(self.num)
        return f"({self.num})/({self.den})"


class FracField:
    """Field of fractions of a PolyRing, e.g. F_q(theta)."""

    def __init__(self, ring: PolyRing):
        self.ring = ring

    def frac(self, num, den=None) -> RatFunc:
        num = num if isinstance(num, UniPoly) else self.ring.poly(num)
        if den is None:
            den = self.ring.one()
        elif not isinstance(den, UniPoly):
            den = self.ring.poly(den)
        return RatFunc(self, num, den)

    def coerce(self, v) -> RatFunc:
        if isinstance(v, RatFunc):
            if v.field != self:
                raise ValueError("field mismatch")
            return v
        if isinstance(v, UniPoly):
            if v.ring != self.ring:
                raise ValueError("ring mismatch")
            return RatFunc(self, v, self.ring.one(), _canonical=True)
        return RatFunc(self, self.ring.poly([self.ring.field.coerce(v)]),
                       self.ring.one(), _canonical=True)

    def zero(self) -> RatFunc:
        return RatFunc(self, self.ring.zero(), self.ring.one(), _canonical=True)

    def one(self) -> RatFunc:
        return RatFunc(self, self.ring.one(), self.ring.one(), _canonical=True)

    def gen(self) -> RatFunc:
        return RatFunc(self, self.ring.gen(), self.ring.one(), _canonical=True)

    def __eq__(self, other):
        return isinstance(other, FracField) and self.ring == other.ring

    def __hash__(self):
        return hash(("frac", self.ring))

    def __repr__(self):
        return f"Frac({self.ring!r})"


def lift_poly(p: UniPoly, target: PolyRing, coeff_map=None) -> UniPoly:
    """Re-coefficient a polynomial into another ring.

    coeff_map defaults to the target field's coercion (suitable for
    constant embeddings such as F_q[t] -> K[t] with K = F_q(theta))."""
    if coeff_map is None:
        coeff_map = target.field.coerce
    return target.poly([coeff_map(c) for c in p.coeffs])
