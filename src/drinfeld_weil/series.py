"""Laurent expansion at infinity and residues of rational differentials,
each differential g dt given by its rational function g.

The expansion variable is u = 1/t.  Residues at infinity follow the
substitution t = 1/u, dt = -du/u^2, the sign convention under which the
monomial basis of F_q[t]/f and the dual-map differentials pair to the
identity matrix.  Works over any coefficient field, so poles at
elements of F_q(theta) (such as theta^{q^i}) are handled by the same
code as poles in a finite field.
"""

from __future__ import annotations

from .polys import RatFunc


class LaurentAtInfinity:
    """Truncated expansion sum coeffs[j] * u^(lead_exp + j), u = 1/t."""

    __slots__ = ("lead_exp", "coeffs", "prec")

    def __init__(self, lead_exp: int, coeffs: tuple, prec: int):
        self.lead_exp = lead_exp
        self.coeffs = coeffs
        self.prec = prec

    def _key(self):
        return self.lead_exp, self.coeffs, self.prec

    def __eq__(self, other):
        return type(other) is LaurentAtInfinity and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _series_div(num_coeffs, den_coeffs, field, prec):
    """First prec coefficients of num/den as power series; den[0] != 0."""
    inv0 = field.one() / den_coeffs[0]
    out = []
    for k in range(prec):
        acc = num_coeffs[k] if k < len(num_coeffs) else field.zero()
        for i in range(max(0, k - len(den_coeffs) + 1), k):
            acc = acc - out[i] * den_coeffs[k - i]
        out.append(acc * inv0)
    return out


def laurent_at_infinity(r: RatFunc, prec: int) -> LaurentAtInfinity:
    """Expansion of r in powers of u = 1/t, exact to prec terms."""
    if r.is_zero():
        return LaurentAtInfinity(0, (), prec)
    field = r.num.ring.field
    nrev = list(reversed(r.num.coeffs))
    drev = list(reversed(r.den.coeffs))
    lead = r.den.degree - r.num.degree
    coeffs = _series_div(nrev, drev, field, prec)
    return LaurentAtInfinity(int(lead), tuple(coeffs), prec)


def residue_at_infinity(g: RatFunc):
    """Res_inf(g dt) = -[u^1 coefficient of the expansion of g]."""
    field = g.num.ring.field
    if g.is_zero():
        return field.zero()
    lead = int(g.den.degree - g.num.degree)
    idx = 1 - lead
    if idx < 0:
        return field.zero()
    exp = laurent_at_infinity(g, idx + 1)
    return -exp.coeffs[idx]


def residue_at_point(g: RatFunc, c):
    """Coefficient of (t - c)^{-1} in the local expansion of g dt at c."""
    ring = g.num.ring
    field = ring.field
    c = field.coerce(c)
    if g.is_zero():
        return field.zero()
    lin = ring.gen() - ring.constant(c)
    k = 0
    den = g.den
    while True:
        q, rem = divmod(den, lin)
        if not rem.is_zero():
            break
        den = q
        k += 1
    if k == 0:
        return field.zero()
    # local coordinate s = t - c: residue = [s^(k-1)] num(c+s)/den2(c+s)
    ns = g.num.shift(c)
    ds = den.shift(c)
    vals = _series_div(list(ns.coeffs), list(ds.coeffs), field, k)
    return vals[k - 1]

