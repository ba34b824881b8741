"""f-remainders, Hasse-Schmidt derivatives, and truncated Anderson
generating functions with formal lattice symbols.

The f-remainder of a rational function in t (coefficients in a field K,
typically F_q(theta)) is the unique polynomial of degree < deg f
representing it modulo f: the denominator is cleared by its inverse
mod f, so higher-order poles need no special casing.  Remainders form
the ring K[t]/(f) (RemainderPoly), and since f has F_q coefficients the
remainder map commutes with the twist.  agf_mod gives the remainder of
a generating function in closed form, with q-expansion coefficients;
the main bridge takes its Moore determinant there.  agf followed by
agf_remainder, through K(t) values, is the independent route the tests
compare against.

A q-expansion over F_q(theta) holds numerators.  With theta the
generator and every g_j in F_q[theta], the coefficient of a monomial
m = prod_s Z_s^{q^{e_s}} lies in den(m)^{-1} F_q[theta], where

    den(m) = prod_s D_{e_s} pole_s^{q^{e_s}},

D_e = prod_{l=1}^{e} [l]^{q^{e-l}} the Carlitz denominators, [l] =
theta^{q^l} - theta, and pole_s one polynomial per symbol: f(theta) for
a generating function's f-remainder, the denominator of c in
exp_qexp(M, c).  den depends only on the monomial and is multiplicative
in it, so sums and products of q-expansions add and multiply
numerators, and a twist by q^k spreads a numerator, n(theta)^{q^k} =
n(theta^{q^k}), and multiplies it by D_{e+k}/D_e^{q^k} for each
exponent e.  No step divides; coeff divides by den(m) on read.
agf_mod and exp_qexp form numerators from modules.exp_numerators;
agf_remainder forms them from K(t) values, multiplying by den(m).

A truncated generating function is a finitely supported map from
q-power monomials in formal symbols (Z^{q^i}, products such as
Z1^{q^a} Z2^{q^b}, possibly with repeats) to rational functions in t.
Every value's denominator is a product of factors (theta^{q^j} - t).
Truncation is tracked per symbol: caps[Z] = N means every coefficient
involving Z^{q^k} with k <= N is exact (structural zeros included).
Sums, products and .frobenius(k) keep every monomial they form,
including those above a cap; such terms are not exact, and comparisons
only assert equality inside the shared guard band.  The Moore
determinant of series is pairing.moore_det, the same one that serves
field elements.  Its twist table prunes each twist to the untwisted
entry's caps, so for entries within their caps it forms, and returns,
only terms inside its guard band; prune drops such terms anywhere else.
"""

from __future__ import annotations

import itertools

from .errors import PoleOnModulus
from .fields import embed, make_field
from .modules import (DrinfeldModule, ExpCoeffs, _check_polynomial_module,
                      _twist_factor, exp_coeffs, exp_numerators)
from .multipoly import MPoly, MPolyRing
from .polys import FracField, PolyRing, RatFunc, UniPoly, inv_mod, lift_poly, poly_gcd
from .series import _series_div
from .weil_ops import dual_map, weil_op_r

INF_CAP = 10 ** 9


# ---------------------------------------------------------------------------
# Remainders.

class RemainderPoly:
    """Element of L[t]/(f), L a field or the q-expansions over F_q(theta):
    the coefficient tuple of its representative of degree < deg f.  f is
    monic over F_q; weil_pairing lifts it into L[t] by embed_scalars.

    Taking remainders is a ring homomorphism that commutes with the
    twist, which raises every coefficient to the q-th power and fixes t,
    since f has F_q coefficients (pairing._twist_in_band)."""

    __slots__ = ("f", "coeffs")

    def __init__(self, f: UniPoly, coeffs: tuple):
        self.f = f
        self.coeffs = coeffs

    def __eq__(self, other):
        return (type(other) is RemainderPoly and self.f == other.f
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.f, self.coeffs))

    def __repr__(self):
        return f"RemainderPoly({self.f}, {self.coeffs})"

    def _check(self, other):
        if not isinstance(other, RemainderPoly) or other.f != self.f:
            raise ValueError("remainders modulo different polynomials")

    def __add__(self, other):
        self._check(other)
        return RemainderPoly(self.f, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return RemainderPoly(self.f, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Schoolbook product, then t^k -> t^k - t^(k-n) f(t) from the top."""
        self._check(other)
        n = len(self.coeffs)
        prod = [None] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                ab = a * b
                prod[i + j] = ab if prod[i + j] is None else prod[i + j] + ab
        low = [(j, c) for j, c in enumerate(self.f.coeffs[:n]) if not c.is_zero()]
        for k in range(2 * n - 2, n - 1, -1):
            for j, c in low:
                prod[k - n + j] = prod[k - n + j] - prod[k] * c
        return RemainderPoly(self.f, tuple(prod[:n]))


def ev_remainder(w, f: UniPoly) -> RemainderPoly:
    """f-remainder of a polynomial or rational function in t."""
    n = int(f.degree)
    if isinstance(w, UniPoly):
        ring = w.ring
        f_l = f if f.ring == ring else lift_poly(f, ring)
        rem = w % f_l
        return RemainderPoly(f, tuple(rem.coeff(i) for i in range(n)))
    ring = w.num.ring
    f_l = f if f.ring == ring else lift_poly(f, ring)
    if poly_gcd(w.den, f_l).degree != 0:
        raise PoleOnModulus(f"denominator {w.den} shares a root with {f}")
    rem = (w.num * inv_mod(w.den, f_l)) % f_l
    return RemainderPoly(f, tuple(rem.coeff(i) for i in range(n)))


def hermite_jets(omega, p: UniPoly, k: int):
    """Roots of p in its splitting field and the jets d_l(omega) there.

    Returns (big_field, embedding, roots, jets) with jets[(j, l)] the
    l-th Hasse-Schmidt derivative of omega at root j, for l < k."""
    Fq = p.ring.field
    d = int(p.degree)
    big = Fq if d == 1 else make_field(Fq.p, Fq.e * d)
    emb = embed(Fq, big)
    ring_big = PolyRing(big, p.ring.var)
    p_big = lift_poly(p, ring_big, emb)
    roots = [x for x in big.elements() if p_big(x).is_zero()]
    if len(roots) != d:
        raise AssertionError("irreducible modulus expected")
    derivs = [hasse_schmidt(omega, l) for l in range(k)]
    jets = {}
    for j, zeta in enumerate(roots):
        for l in range(k):
            dv = derivs[l]
            if isinstance(dv, UniPoly):
                jets[(j, l)] = lift_poly(dv, ring_big, emb)(zeta)
            else:
                num = lift_poly(dv.num, ring_big, emb)(zeta)
                den = lift_poly(dv.den, ring_big, emb)(zeta)
                if den.is_zero():
                    raise PoleOnModulus("omega has a pole on a root of p")
                jets[(j, l)] = num / den
    return big, emb, roots, jets


def remainder_via_interpolation(p: UniPoly, k: int, roots, jets) -> RemainderPoly:
    """Unique polynomial of degree < dk matching all Hasse-Schmidt jets
    delta_l at every root of p (l < k): Lagrange data for k = 1, Hermite
    data beyond.  Coefficients land in the splitting field of p."""
    import math

    from . import linalg

    d = int(p.degree)
    big = roots[0].field
    nunk = d * k
    rows, rhs = [], []
    for j, zeta in enumerate(roots):
        zpow = [big.one()]
        for _ in range(nunk):
            zpow.append(zpow[-1] * zeta)
        for l in range(k):
            row = []
            for m in range(nunk):
                row.append(zpow[m - l] * math.comb(m, l) if m >= l else big.zero())
            if (j, l) not in jets:
                raise ValueError("incomplete jet data")
            rows.append(row)
            rhs.append(jets[(j, l)])
    sol = linalg.solve(rows, rhs, big)
    if sol is None or linalg.rank(rows, big) != nunk:
        raise ValueError("inconsistent or incomplete jet data")
    fk = p ** k
    return RemainderPoly(fk, tuple(sol))


# ---------------------------------------------------------------------------
# Hasse-Schmidt derivatives.

def hasse_schmidt(w, l: int):
    """l-th Taylor coefficient of w(t + X) in X.

    Accepts a polynomial, a rational function, or a truncated generating
    function (termwise).  Uses integer binomials reduced into the field,
    valid in any characteristic."""
    if l == 0:
        return w
    if isinstance(w, UniPoly):
        return w.hasse_deriv(l)
    if isinstance(w, TruncAGF):
        return TruncAGF(w.vfield, w.q,
                        {m: hasse_schmidt(v, l) for m, v in w.terms.items()},
                        dict(w.caps))
    # rational function: series division of num(t+X) by den(t+X)
    KT = w.field
    num_jets = [KT.coerce(w.num.hasse_deriv(j)) for j in range(l + 1)]
    den_jets = [KT.coerce(w.den.hasse_deriv(j)) for j in range(l + 1)]
    return _series_div(num_jets, den_jets, KT, l + 1)[l]


# ---------------------------------------------------------------------------
# q-power monomials in formal lattice symbols.

def mono_mul(m1, m2):
    return tuple(sorted(m1 + m2))


def mono_shift(m, k: int):
    return tuple((sym, i + k) for sym, i in m)


def mono_in_band(m, caps) -> bool:
    return all(sym in caps and i <= caps[sym] for sym, i in m)


def mono_str(m) -> str:
    if not m:
        return "1"
    return "*".join(f"{sym}^q^{i}" for sym, i in m)


def _merge_caps(a, b):
    out = dict(a)
    for sym, cap in b.items():
        out[sym] = min(out.get(sym, INF_CAP), cap)
    return out


def band_monomials(caps):
    """All monomials with each symbol appearing exactly once, exponents
    within the caps, in deterministic order."""
    syms = sorted(caps)
    ranges = [range(caps[s] + 1) for s in syms]
    for combo in itertools.product(*ranges):
        yield tuple(sorted(zip(syms, combo)))


class _SymSeries:
    """Shared mechanics of QExpansion and TruncAGF."""

    __slots__ = ("vfield", "q", "terms", "caps")

    def __init__(self, vfield, q, terms, caps):
        self.vfield = vfield
        self.q = q
        self.terms = {m: v for m, v in terms.items() if not v.is_zero()}
        self.caps = caps

    def _make(self, terms, caps, other=None):
        return type(self)(self.vfield, self.q, terms, caps)

    def is_zero(self):
        return not self.terms

    def coeff(self, mono):
        v = self.terms.get(tuple(sorted(mono)))
        return v if v is not None else self.vfield.zero()

    def __add__(self, other):
        if type(other) is not type(self) or other.vfield != self.vfield:
            raise ValueError("series mismatch")
        out = dict(self.terms)
        for m, v in other.terms.items():
            s = out.get(m)
            sv = v if s is None else s + v
            if sv.is_zero():
                out.pop(m, None)
            else:
                out[m] = sv
        return self._make(out, _merge_caps(self.caps, other.caps), other)

    def __neg__(self):
        return self._make({m: -v for m, v in self.terms.items()}, dict(self.caps))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if type(other) is type(self):
            out = {}
            for m1, v1 in self.terms.items():
                for m2, v2 in other.terms.items():
                    m = mono_mul(m1, m2)
                    v = v1 * v2
                    s = out.get(m)
                    sv = v if s is None else s + v
                    if sv.is_zero():
                        out.pop(m, None)
                    else:
                        out[m] = sv
            return self._make(out, _merge_caps(self.caps, other.caps), other)
        # scalar from the value field (or coercible into it)
        c = self._scalar(other)
        if c.is_zero():
            return self._make({}, dict(self.caps))
        return self._make({m: v * c for m, v in self.terms.items()}, dict(self.caps))

    __rmul__ = __mul__

    def frobenius(self, k: int):
        """Raise coefficients to the q^k power and shift every exponent."""
        if k == 0:
            return self
        out = {mono_shift(m, k): self._frob_value(m, v, k) for m, v in self.terms.items()}
        caps = {sym: cap + k for sym, cap in self.caps.items()}
        return self._make(out, caps)

    def prune(self, caps=None):
        caps = caps if caps is not None else self.caps
        out = {m: v for m, v in self.terms.items() if mono_in_band(m, caps)}
        return self._make(out, dict(caps))

    def mismatches(self, other):
        """Monomials inside the shared guard band where coefficients differ."""
        caps = _merge_caps(self.caps, other.caps)
        bad = []
        for m in set(self.terms) | set(other.terms):
            if mono_in_band(m, caps) and self.coeff(m) != other.coeff(m):
                bad.append(m)
        return sorted(bad)

    def __eq__(self, other):
        return (type(other) is type(self) and self.vfield == other.vfield
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.q, frozenset(self.terms.items())))

    def __repr__(self):
        inner = " + ".join(f"({self.coeff(m)})*{mono_str(m)}" for m in sorted(self.terms))
        return f"{type(self).__name__}({inner or '0'})"


def _den(ring, q, poles, mono):
    """den(m) = prod_s D_{e_s} pole_s^{q^{e_s}} in ring = F_q[theta]."""
    acc = ring.one()
    for sym, e in mono:
        acc = _twist_factor(ring, q, 0, e) * poles[sym].spread(q ** e) * acc
    return acc


class QExpansion(_SymSeries):
    """Finitely supported q-expansion with coefficients in F_q(theta),
    held as numerators: the coefficient of m is terms[m] / den(m), with
    terms[m] in F_q[theta] and den(m) fixed by m and the per-symbol
    poles (see the module docstring).  Scalars are polynomials in theta."""

    __slots__ = ("poles",)

    def __init__(self, vfield, q, terms, caps, poles):
        super().__init__(vfield, q, terms, caps)
        self.poles = poles

    @classmethod
    def from_values(cls, vfield, q, values, caps, poles):
        """The q-expansion with coefficient values[m] in F_q(theta) at m:
        each numerator is values[m] * den(m), and a ValueError names the
        first monomial where that is not a polynomial."""
        one = vfield.ring.one()
        terms = {}
        for m, v in values.items():
            n = v * _den(vfield.ring, q, poles, m)
            if n.den != one:
                raise ValueError(f"coefficient of {mono_str(m)} has a pole off den(m)")
            terms[m] = n.num
        return cls(vfield, q, terms, caps, poles)

    def _make(self, terms, caps, other=None):
        poles = self.poles
        if other is not None and other.poles is not poles and other.poles != poles:
            poles = dict(poles)
            for sym, pole in other.poles.items():
                if poles.setdefault(sym, pole) != pole:
                    raise ValueError(f"q-expansions with different poles at {sym}")
        return QExpansion(self.vfield, self.q, terms, caps, poles)

    def _scalar(self, c):
        if isinstance(c, UniPoly):
            return c
        c = self.vfield.coerce(c)
        if c.den != self.vfield.ring.one():
            raise ValueError(f"q-expansion scalar {c} is not a polynomial")
        return c.num

    def _frob_value(self, m, v, k):
        ring, q = self.vfield.ring, self.q
        v = v.spread(q ** k)
        for _, e in m:
            v = _twist_factor(ring, q, e, k) * v
        return v

    def den(self, mono):
        return _den(self.vfield.ring, self.q, self.poles, mono)

    def coeff(self, mono):
        m = tuple(sorted(mono))
        v = self.terms.get(m)
        return self.vfield.zero() if v is None else self.vfield.frac(v, self.den(m))

    def __eq__(self, other):
        return super().__eq__(other) and self.poles == other.poles

    __hash__ = _SymSeries.__hash__


class TruncAGF(_SymSeries):
    """Truncated generating function: values are rational functions in t."""

    def _scalar(self, c):
        if isinstance(c, RatFunc) and c.field == self.vfield.ring.field:
            # a constant from K sits inside K(t)
            return self.vfield.coerce(self.vfield.ring.constant(c))
        return self.vfield.coerce(c)

    def _frob_value(self, m, v, k):
        qk = self.q ** k
        num = lift_poly(v.num, v.num.ring, lambda c: c ** qk)
        den = lift_poly(v.den, v.den.ring, lambda c: c ** qk)
        return RatFunc(v.field, num, den)


# ---------------------------------------------------------------------------
# Generating functions and their remainders.

def agf(M: DrinfeldModule, sym: str, N: int, ec: ExpCoeffs | None = None) -> TruncAGF:
    """Truncated generating function sum_{i<=N} e_i Z^{q^i} / (theta^{q^i} - t)."""
    ec = ec or exp_coeffs(M, N)
    if ec.depth() < N:
        raise ValueError("exponential data shallower than requested depth")
    K = M.base
    KT = FracField(PolyRing(M.base, "t"))
    Rt = KT.ring
    terms = {}
    for i in range(N + 1):
        ei = ec.e[i]
        if ei.is_zero():
            continue
        den = Rt.poly([M.theta ** (M.q ** i), -K.one()])
        terms[((sym, i),)] = RatFunc(KT, Rt.constant(ei), den)
    return TruncAGF(KT, M.q, terms, {sym: N})


def eval_at_theta(M: DrinfeldModule, f: UniPoly):
    """f(theta) inside the base field of the module."""
    acc = M.base.zero()
    for c in reversed(f.coeffs):
        acc = acc * M.theta + M.embed_scalars(c)
    return acc


def theta_poly(M: DrinfeldModule, f: UniPoly) -> UniPoly:
    """f(theta) in F_q[theta], the pole of agf_mod's numerators.
    PoleOnModulus when theta is a root of f; otherwise a ValueError
    unless theta generates F_q(theta) and every g_j is in F_q[theta]."""
    try:
        _check_polynomial_module(M)
    except ValueError:
        if eval_at_theta(M, f).is_zero():
            raise PoleOnModulus(f"theta is a root of {f}") from None
        raise
    return lift_poly(f, M.base.ring)


def _exp_series(M: DrinfeldModule, num: UniPoly, pole: UniPoly, sym: str, N: int,
                E) -> QExpansion:
    """exp_phi(num/pole * Z) to depth N: the numerator of Z^{q^i} is
    E_i num^{q^i}, over den(Z^{q^i}) = D_i pole^{q^i}."""
    E = E or exp_numerators(M, N)
    if len(E) <= N:
        raise ValueError("exponential data shallower than requested depth")
    q = M.q
    terms = {((sym, i),): num.spread(q ** i) * E[i] for i in range(N + 1)}
    return QExpansion(M.base, q, terms, {sym: N}, {sym: pole})


def agf_mod(M: DrinfeldModule, f: UniPoly, sym: str, N: int, E=None) -> RemainderPoly:
    """f-remainder of agf(M, sym, N) in closed form, with no K(t) values.

    1/(c - t) = O_f^(2)(t, c)/f(c) mod f, so the t^k-coefficient of the
    remainder is sum_i e_i b_k(theta^{q^i})/f(theta^{q^i}) Z^{q^i} with
    b_k = D_f(t^k), i.e. exp_phi(b_k(theta)/f(theta) * Z): every slot's
    pole is f(theta).  E is exp_numerators(M, N) or longer."""
    f_theta = theta_poly(M, f)
    E = E or exp_numerators(M, N)
    ring = M.base.ring
    return RemainderPoly(f, tuple(
        _exp_series(M, lift_poly(dual_map(f, k), ring), f_theta, sym, N, E)
        for k in range(int(f.degree))))


def exp_qexp(M: DrinfeldModule, c, sym: str, N: int, E=None) -> QExpansion:
    """Truncated exp_phi(c * Z) = sum_{i<=N} e_i c^{q^i} Z^{q^i}, computed
    directly from the exponential numerators (no truncation loss); its
    pole is c's denominator."""
    c = M.base.coerce(c)
    return _exp_series(M, c.num, c.den, sym, N, E)


def agf_remainder(w: TruncAGF, f: UniPoly, pole: UniPoly | None = None):
    """f-remainder of a truncated generating function: a list of deg f
    q-expansions (the coefficients of t^0 ... t^{n-1}).  Every symbol's
    pole is f(theta), or pole where the poles have higher order: p(theta)
    ^(l+1) for the l-th Hasse-Schmidt derivative of a generating
    function reduced mod p."""
    n = int(f.degree)
    K = w.vfield.ring.field
    if pole is None:
        pole = lift_poly(f, K.ring)
    slots = [dict() for _ in range(n)]
    for m, v in w.terms.items():
        rem = ev_remainder(v, f)
        for i in range(n):
            c = rem.coeffs[i]
            if not c.is_zero():
                slots[i][m] = c
    poles = {sym: pole for sym in w.caps}
    return [QExpansion.from_values(K, w.q, slot, dict(w.caps), poles) for slot in slots]


def mp_coeffs(p: UniPoly, l: int):
    """Coefficients E_i^(l)(x) of t^i in O_p^(2)(x, t)^(l+1) mod p(t),
    i < deg p; each has degree < (l+1) deg p."""
    field = p.ring.field
    d = int(p.degree)
    O = MPoly(MPolyRing(field, ("x", "t")), weil_op_r(p, 2).terms)
    P = (O ** (l + 1)).reduce_mod(p, 1)
    rx = PolyRing(field, "x")
    out = []
    for i in range(d):
        ci = P.coeff_in_var(1, i)
        coeffs = [field.zero()] * (ci.degree_in(0) + 1 if not ci.is_zero() else 0)
        for exps, c in ci.terms.items():
            coeffs[exps[0]] = c
        out.append(rx.poly(coeffs))
    return out
