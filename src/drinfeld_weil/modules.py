"""Drinfeld modules over finite A-fields and over F_q(theta).

A module of rank r is the F_q-algebra map sending x to
phi_x = theta + g_1 tau + ... + g_r tau^r with g_r nonzero, tau the
q-power Frobenius.  Finite bases F_{q^m} support torsion computation
(the splitting degree s read off tau^m modulo phi_f, then the kernel of
phi_f found by exact F_q-linear algebra inside the one extension
F_{q^{ms}}); the rational base F_q(theta) supports the exponential
coefficients used by generating functions.

The exponential data stores e_i = 1/D_i (so that e_i = 0 is allowed,
e.g. when g_1 = 0) with e_0 = 1 and

    e_i (theta^{q^i} - theta) = sum_{j=1}^{min(i,r)} g_j e_{i-j}^{q^j},

obtained by matching z^{q^i} coefficients in phi_x(exp(z)) = exp(theta z).
When theta generates F_q(theta) and every g_j is in F_q[theta], the
numerators E_i = D_i e_i are polynomials, D_i = prod_{l=1}^{i}
[l]^{q^{i-l}} the Carlitz denominators with [l] = theta^{q^l} - theta,
and exp_numerators forms them with no division:

    E_i = sum_{j=1}^{min(i,r)} g_j E_{i-j}^{q^j} prod_{l=i-j+1}^{i-1} [l]^{q^{i-l}}.

exp_coeffs, which divides, is the tests' oracle for them.
"""

from __future__ import annotations

import functools
import itertools

from . import linalg
from .errors import BadCharacteristic, SplittingFieldTooLarge
from .fields import Embedding, FiniteField, RelativeBasis, embed, make_field, min_poly_over
from .polys import FracField, PolyRing, UniPoly, poly_gcd
from .twisted import TwistedPoly


class DrinfeldModule:
    def __init__(self, q_field: FiniteField, base, theta, g, embed_scalars=None):
        if embed_scalars is None:
            if isinstance(base, FiniteField) and base == q_field:
                embed_scalars = lambda c: c  # noqa: E731
            elif isinstance(base, FracField) and base.ring.field == q_field:
                embed_scalars = base.coerce
            else:
                raise ValueError("embed_scalars required for this base field")
        self.q_field = q_field
        self.q = q_field.order
        self.base = base
        self.embed_scalars = embed_scalars
        self.theta = theta
        self.g = tuple(g)
        if not self.g or self.g[-1].is_zero():
            raise ValueError("top coefficient g_r must be nonzero")

    @property
    def rank(self) -> int:
        return len(self.g)

    def x_ring(self) -> PolyRing:
        return PolyRing(self.q_field, "x")

    def phi_x(self) -> TwistedPoly:
        return TwistedPoly(self.base, self.q, (self.theta,) + self.g)

    def phi_of(self, a) -> TwistedPoly:
        """Image of a(x) under the module map (Horner in the twisted ring)."""
        if not isinstance(a, UniPoly):
            a = self.x_ring().poly(a)
        tw_x = self.phi_x()
        acc = TwistedPoly(self.base, self.q, [])
        for c in reversed(a.coeffs):
            acc = acc * tw_x + TwistedPoly(self.base, self.q, [self.embed_scalars(c)])
        return acc

    def exterior(self) -> "DrinfeldModule":
        """Rank-one module theta + (-1)^(r-1) g_r tau."""
        sign = 1 if (self.rank - 1) % 2 == 0 else -1
        g1 = self.g[-1] if sign == 1 else -self.g[-1]
        return DrinfeldModule(self.q_field, self.base, self.theta, (g1,),
                              self.embed_scalars)

    def describe(self):
        if isinstance(self.base, FiniteField):
            return {"field": self.base.describe(),
                    "q": self.q,
                    "theta": list(self.theta.coeffs),
                    "g": [list(gi.coeffs) for gi in self.g]}
        return {"base": "F_q(theta)", "q": self.q,
                "theta": str(self.theta), "g": [str(gi) for gi in self.g]}


class ExpCoeffs:
    """Truncated exponential data e_0..e_N with e_i = 1/D_i."""

    __slots__ = ("module", "e")

    def __init__(self, module: DrinfeldModule, e: tuple):
        self.module = module
        self.e = e

    def depth(self) -> int:
        return len(self.e) - 1

    def recursion_residual(self, i: int):
        """e_i (theta^{q^i} - theta) - sum_j g_j e_{i-j}^{q^j}; zero when consistent."""
        M = self.module
        q, theta = M.q, M.theta
        acc = self.e[i] * (theta ** (q ** i) - theta)
        for j in range(1, min(i, M.rank) + 1):
            acc = acc - M.g[j - 1] * self.e[i - j] ** (q ** j)
        return acc


def exp_coeffs(M: DrinfeldModule, N: int) -> ExpCoeffs:
    if not isinstance(M.base, FracField):
        raise ValueError("exponential coefficients need the F_q(theta) base")
    K = M.base
    q, theta = M.q, M.theta
    e = [K.one()]
    for i in range(1, N + 1):
        rhs = K.zero()
        for j in range(1, min(i, M.rank) + 1):
            rhs = rhs + M.g[j - 1] * e[i - j] ** (q ** j)
        e.append(rhs / (theta ** (q ** i) - theta))
    return ExpCoeffs(M, tuple(e))


def _check_polynomial_module(M: DrinfeldModule):
    """ValueError unless M is over F_q(theta) with theta its generator
    and every g_j in F_q[theta], the setting of exp_numerators."""
    K = M.base
    if not isinstance(K, FracField):
        raise ValueError("exponential numerators need the F_q(theta) base")
    if M.theta != K.gen():
        raise ValueError(f"exponential numerators need theta = {K.ring.var}, not {M.theta}")
    for j, gj in enumerate(M.g, 1):
        if gj.den != K.ring.one():
            raise ValueError(f"exponential numerators need g_{j} = {gj} in F_q[{K.ring.var}]")


@functools.lru_cache(maxsize=None)
def _twist_factor(ring: PolyRing, q: int, e: int, k: int) -> UniPoly:
    """D_{e+k} / D_e^{q^k} = prod_{l=e+1}^{e+k} [l]^{q^{e+k-l}} in ring =
    F_q[theta], each factor the binomial theta^{q^{l+j}} - theta^{q^j};
    _twist_factor(ring, q, 0, e) is D_e."""
    acc = ring.one()
    for l in range(e + 1, e + k + 1):
        j = e + k - l
        coeffs = [0] * (q ** (l + j) + 1)
        coeffs[q ** j], coeffs[-1] = -1, 1
        acc = ring.poly(coeffs) * acc
    return acc


def exp_numerators(M: DrinfeldModule, N: int) -> tuple:
    """E_0..E_N with E_i = D_i e_i in F_q[theta], from the division-free
    recursion of the module docstring; ValueError outside its setting."""
    _check_polynomial_module(M)
    ring, q = M.base.ring, M.q
    g = [gj.num for gj in M.g]
    E = [ring.one()]
    for i in range(1, N + 1):
        acc = ring.zero()
        for j in range(1, min(i, M.rank) + 1):
            if not (g[j - 1].is_zero() or E[i - j].is_zero()):
                bracket = _twist_factor(ring, q, i - j, j - 1).spread(q)
                acc = acc + bracket * g[j - 1] * E[i - j].spread(q ** j)
        E.append(acc)
    return tuple(E)


# ---------------------------------------------------------------------------
# Torsion over finite A-fields.

class TorsionBasis:
    __slots__ = ("module", "module_ext", "field_ext", "rel", "points", "f", "s")

    def __init__(self, module: DrinfeldModule, module_ext: DrinfeldModule,
                 field_ext: FiniteField, rel: RelativeBasis, points: list,
                 f: UniPoly, s: int):
        self.module = module
        self.module_ext = module_ext
        self.field_ext = field_ext
        self.rel = rel
        self.points = points
        self.f = f
        self.s = s

    def cardinality(self) -> int:
        return self.module.q ** len(self.points)

    def combine(self, coeffs):
        """The torsion point sum_i c_i points[i], the c_i in F_q."""
        emb = self.module_ext.embed_scalars
        acc = self.field_ext.zero()
        for c, pt in zip(coeffs, self.points):
            if not c.is_zero():
                acc = acc + emb(c) * pt
        return acc

    def all_points(self):
        """Every element of the torsion module, deterministically ordered."""
        scalars = list(self.module.q_field.elements())
        for combo in itertools.product(scalars, repeat=len(self.points)):
            yield self.combine(combo)

    def describe(self):
        return {"splitting_field": self.field_ext.describe(),
                "s": self.s,
                "cardinality": self.cardinality(),
                "basis": [list(pt.coeffs) for pt in self.points]}


def characteristic_poly(M: DrinfeldModule) -> UniPoly:
    """Minimal polynomial of theta over F_q: the A-characteristic."""
    if not isinstance(M.base, FiniteField):
        raise ValueError("characteristic defined for finite A-fields only")
    rel = RelativeBasis(M.base, M.q_field, M.embed_scalars)
    coeffs = min_poly_over(M.theta, rel)
    return M.x_ring().poly(coeffs)


def kernel_in_field(M_big: DrinfeldModule, f: UniPoly, rel: RelativeBasis):
    """F_q-basis of ker(phi_f) inside the base field of M_big, read through
    the relative basis rel (which may belong to a larger module's splitting
    field, as for the exterior module)."""
    phi_f = M_big.phi_of(f)
    cols = [rel.coords(phi_f.apply(b)) for b in rel.powers]
    kernel = linalg.nullspace([list(row) for row in zip(*cols)], M_big.q_field)
    return [rel.lift(vec) for vec in kernel]


def splitting_degree(M: DrinfeldModule, f: UniPoly, s_cap: int) -> int:
    """Least s <= s_cap with ker(phi_f) inside F_{q^{ms}}, K = F_{q^m} the base.

    For separable phi_f (gcd(f, A-characteristic) = 1) the kernel lies in
    F_{q^{ms}} exactly when phi_f right-divides tau^{ms} - 1 (Goss, Basic
    Structures of Function Field Arithmetic, ch. 1).  tau^m fixes K, so it
    is central in K{tau}: each step shifts the remainder by m and reduces
    it once mod K{tau} phi_f.  Raises SplittingFieldTooLarge past s_cap."""
    if not isinstance(M.base, FiniteField):
        raise ValueError("splitting degree requires a finite A-field base")
    phi_f = M.phi_of(f)
    m = M.base.e // M.q_field.e
    zero, one = M.base.zero(), M.base.one()
    target = TwistedPoly(M.base, M.q, [one]) % phi_f
    rem = target
    for s in range(1, s_cap + 1):
        rem = TwistedPoly(M.base, M.q, [zero] * m + list(rem.coeffs)) % phi_f
        if rem == target:
            return s
    raise SplittingFieldTooLarge(f"no splitting field found with s <= {s_cap}")


def torsion_basis(M: DrinfeldModule, f: UniPoly, s_cap: int = 12) -> TorsionBasis:
    """f-torsion of M in its least splitting extension F_{q^{ms}}.

    s comes from splitting_degree, so exactly one extension is built, and
    s_cap bounds that field: s > s_cap raises SplittingFieldTooLarge."""
    if not isinstance(M.base, FiniteField):
        raise ValueError("torsion requires a finite A-field base")
    if not f.is_monic():
        raise ValueError("modulus must be monic")
    char = characteristic_poly(M)
    if poly_gcd(f, char).degree != 0:
        raise BadCharacteristic(f"f shares the factor gcd(f, {char}) with the A-characteristic")
    s = splitting_degree(M, f, s_cap)
    base = M.base
    big = base if s == 1 else make_field(base.p, base.e * s)
    emb_base = embed(base, big)
    emb = Embedding(M.q_field, big, emb_base(M.embed_scalars(M.q_field.gen())))
    rel = RelativeBasis(big, M.q_field, emb)
    M_ext = DrinfeldModule(M.q_field, big, emb_base(M.theta),
                           [emb_base(gi) for gi in M.g], emb)
    points = kernel_in_field(M_ext, f, rel)
    if len(points) != M.rank * int(f.degree):
        raise AssertionError("kernel dimension disagrees with the splitting degree")
    return TorsionBasis(M, M_ext, big, rel, points, f, s)


def a_module_basis(tb: TorsionBasis):
    """An A/f-module basis (mu_1 ... mu_r) of the torsion module.

    Scans points in deterministic order, keeping a point only when its
    A-orbit enlarges the F_q-span by a full deg f dimensions: the
    coordinates of pt, phi_x(pt), ..., phi_x^(n-1)(pt), n = deg f."""
    M, f = tb.module, tb.f
    n = int(f.degree)
    r = M.rank
    phi_x = tb.module_ext.phi_x()
    chosen = []
    span_rows = []
    current_rank = 0
    for pt in tb.all_points():
        if pt.is_zero():
            continue
        cand_rows, img = [tb.rel.coords(pt)], pt
        for _ in range(n - 1):
            img = phi_x.apply(img)
            cand_rows.append(tb.rel.coords(img))
        new_rank = linalg.rank(span_rows + cand_rows, M.q_field)
        if new_rank == current_rank + n:
            chosen.append(pt)
            span_rows = span_rows + cand_rows
            current_rank = new_rank
            if len(chosen) == r:
                return chosen
    raise AssertionError("no A/f-module basis found")
