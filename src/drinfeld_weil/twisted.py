"""Twisted (Ore) polynomials over a field K with tau the q-power map.

Multiplication follows tau * c = c^q * tau; coefficients may live in a
finite field or in F_q(theta), anything whose elements support field
arithmetic and integer powers.
"""

from __future__ import annotations


class TwistedPoly:
    __slots__ = ("field", "q", "coeffs")

    def __init__(self, field, q: int, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.field = field
        self.q = q
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    def is_zero(self):
        return not self.coeffs

    def _check(self, other):
        if not isinstance(other, TwistedPoly):
            raise TypeError("expected TwistedPoly")
        if other.field != self.field or other.q != self.q:
            raise ValueError("twisted ring mismatch")
        return other

    def __add__(self, other):
        other = self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return TwistedPoly(self.field, self.q, out)

    def __neg__(self):
        return TwistedPoly(self.field, self.q, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._check(other))

    def __mul__(self, other):
        if not isinstance(other, TwistedPoly):
            c = self.field.coerce(other)
            return TwistedPoly(self.field, self.q, [a * c for a in self.coeffs])
        self._check(other)
        if self.is_zero() or other.is_zero():
            return TwistedPoly(self.field, self.q, [])
        out = [self.field.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            qi = self.q ** i
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b ** qi
        return TwistedPoly(self.field, self.q, out)

    def __rmul__(self, other):
        # scalar * twisted: scalars commute onto the left coefficient slot
        c = self.field.coerce(other)
        return TwistedPoly(self.field, self.q, [c * a for a in self.coeffs])

    def __mod__(self, other):
        """Remainder of right division: self = Q * other + R, deg R < deg other.

        R is self mod the left ideal K{tau} other; each step cancels the
        top term with c tau^k * other, where c tau^k * d tau^j = c d^(q^k) tau^(k+j).
        Row k of twists is the divisor's lower coefficients and the inverse
        of its leading one, raised to q^k: each row the q-th power of the
        row before.
        """
        other = self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("twisted remainder by zero")
        n = len(other.coeffs) - 1
        out = list(self.coeffs)
        twists = [other.coeffs[:-1] + (self.field.one() / other.coeffs[-1],)]
        while len(out) > n:
            k = len(out) - 1 - n
            while len(twists) <= k:
                twists.append([d ** self.q for d in twists[-1]])
            row = twists[k]
            c = out[-1] * row[-1]
            for j, d in enumerate(row[:-1]):
                if not d.is_zero():
                    out[k + j] = out[k + j] - c * d
            out.pop()
            while out and out[-1].is_zero():
                out.pop()
        return TwistedPoly(self.field, self.q, out)

    def apply(self, mu):
        """Evaluate as the additive polynomial sum c_i mu^(q^i), each
        mu^(q^i) the q-th power of the one before."""
        acc = None
        twist = mu
        for i, c in enumerate(self.coeffs):
            if i:
                twist = twist ** self.q
            if c.is_zero():
                continue
            term = c * twist
            acc = term if acc is None else acc + term
        return self.field.zero() if acc is None else acc

    def __eq__(self, other):
        return (isinstance(other, TwistedPoly) and self.field == other.field
                and self.q == other.q and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.q, self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "TwistedPoly(0)"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            head = "" if i == 0 else ("tau" if i == 1 else f"tau^{i}")
            cs = str(c)
            if head and cs == "1":
                parts.append(head)
            else:
                parts.append(f"({cs})" + (f"*{head}" if head else ""))
        return "TwistedPoly(" + " + ".join(parts) + ")"

