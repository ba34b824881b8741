"""Univariate polynomials and rational functions over an abstract field.

The coefficient field is any object with ``zero()``, ``one()`` and a
``coerce`` hook whose elements support field arithmetic; in practice
that means FiniteField or FracField, so the same machinery serves
F_q[t], F_q(theta), and polynomials in t with F_q(theta) coefficients.

Over a prime field F_p, products and long division run on the int-list
kernel of fields (_pmul, _pdivmod) instead of on element objects.
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


def _prime_field_of(ring):
    """The coefficient field if it is a prime finite field, else None."""
    field = ring.field
    return field if isinstance(field, FiniteField) and field.e == 1 else None


def _ints(poly):
    return [c.coeffs[0] for c in poly.coeffs]


def _from_ints(ring, field, ints):
    """The polynomial over the prime field with coefficients ints in [0, p)."""
    return UniPoly(ring, tuple(FieldElem(field, (v,)) for v in _trim(ints)))


class PolyRing:
    """Polynomial ring field[var]."""

    def __init__(self, field, var: str = "t"):
        self.field = field
        self.var = var

    def poly(self, coeffs) -> "UniPoly":
        elems = [self.field.coerce(c) for c in coeffs]
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
        return (isinstance(other, PolyRing) and self.field == other.field
                and self.var == other.var)

    def __hash__(self):
        return hash((self.field, self.var))

    def __repr__(self):
        return f"PolyRing({self.field!r}, {self.var!r})"


class UniPoly:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            return self.ring.field.zero()
        return self.coeffs[-1]

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.ring.field.one()

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
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
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return self.ring.poly(out)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(self.ring, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if other.ring != self.ring:
                raise ValueError("polynomial ring mismatch")
            if not self.coeffs or not other.coeffs:
                return self.ring.zero()
            prime = _prime_field_of(self.ring)
            if prime is not None:
                p = prime.p
                out = _pmul(_ints(self), _ints(other))
                return _from_ints(self.ring, prime, [c % p for c in out])
            zero = self.ring.field.zero()
            out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a.is_zero():
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return self.ring.poly(out)
        # scalar
        c = self.ring.field.coerce(other)
        return self.ring.poly([a * c for a in self.coeffs])

    __rmul__ = __mul__

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
        prime = _prime_field_of(self.ring)
        if prime is not None:
            quot, rem = _pdivmod(_ints(self), _ints(other), prime.p)
            return _from_ints(self.ring, prime, quot), _from_ints(self.ring, prime, rem)
        inv_lead = self.ring.field.one() / other.leading()
        quot = [self.ring.field.zero()] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        d = len(other.coeffs) - 1
        while len(rem) - 1 >= d and rem:
            c = rem[-1] * inv_lead
            shift = len(rem) - 1 - d
            quot[shift] = c
            for j, oc in enumerate(other.coeffs):
                rem[shift + j] = rem[shift + j] - c * oc
            while rem and rem[-1].is_zero():
                rem.pop()
        return self.ring.poly(quot), self.ring.poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        prime = _prime_field_of(self.ring)
        if prime is None:
            return divmod(self, other)[1]
        rem = _pdivmod(_ints(self), _ints(self._divisor(other)), prime.p)[1]
        return _from_ints(self.ring, prime, rem)

    def monic(self):
        if self.is_zero():
            return self
        return self * (self.ring.field.one() / self.leading())

    def __call__(self, x):
        """Evaluate by Horner; x may be a field element or a polynomial
        over any ring whose field accepts these coefficients."""
        if isinstance(x, UniPoly):
            acc = x.ring.zero()
            for c in reversed(self.coeffs):
                acc = acc * x + x.ring.constant(c)
            return acc
        if not self.coeffs:
            return self.ring.field.zero()
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        return acc

    def shift(self, c):
        """Compose with (var + c)."""
        return self(self.ring.gen() + self.ring.constant(c))

    def hasse_deriv(self, l: int):
        """l-th Hasse-Schmidt derivative: t^m -> C(m, l) t^(m-l).

        Valid in any characteristic (the binomials are integers reduced
        into the coefficient field)."""
        if l == 0:
            return self
        out = []
        for m in range(l, len(self.coeffs)):
            out.append(self.coeffs[m] * math.comb(m, l))
        return self.ring.poly(out)

    def map_coeffs(self, fn, ring=None):
        ring = ring or self.ring
        return ring.poly([fn(c) for c in self.coeffs])

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.ring == other.ring and self.coeffs == other.coeffs
        coerced = self._coerce(other)
        if coerced is NotImplemented:
            return NotImplemented
        return self.coeffs == coerced.coeffs

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __repr__(self):
        return f"UniPoly({self})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        var = self.ring.var
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
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
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num = num // g
                    den = den // g
                lc = den.leading()
                if lc != field.ring.field.one():
                    inv = field.ring.field.one() / lc
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
        other = self._coerce(other)
        return RatFunc(self.field, self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(self.field, -self.num, self.den, _canonical=True)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        return RatFunc(self.field, self.num * other.num, self.den * other.den)

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
        try:
            other = self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.num == other.num and self.den == other.den

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
