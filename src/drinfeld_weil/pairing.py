"""Moore determinants, the Drinfeld action on tensors, and the Weil
pairing they induce.

The pairing of r f-torsion points in L (n = deg f) is one coefficient
of the Moore determinant of their f-remainders in L[t]/(f):

    Weil_f(mu_1, ..., mu_r) = [t^(n-1)] det(h_(mu_i)^(q^(j-1))),

h_mu = sum_(k<n) t^k phi_(b_k)(mu), b_k = dual_map(f, k); the twist
fixes t.  The per-term route M(O_f^(r) diamond (mu_1 x ... x mu_r)),
X_1^(a_1) ... X_r^(a_r) acting as phi_{x^{a_i}} on slot i, is
diamond_moore: the bridge's operator side and the tests' oracle.
moore_det is the package's one Moore determinant.  It takes concrete
torsion points (field elements in a splitting extension), formal
truncated q-expansions, truncated generating functions and
f-remainders alike: a table of each entry's twists, then its
determinant over shared minors.  A truncated series' twists keep only the
monomials inside its caps, so a determinant of series forms no term
outside its guard band.

One table per argument holds its orbit and the orbit's twists: row k
of _orbit_rows is v, v^q, ..., v^(q^(r-1)) for v = phi_x^k mu, and
_phi_x_step forms the next point theta v + sum_i g_i v^(q^i) from
those twists, for field elements and q-expansions alike.  Each orbit
point is twisted once.  weil_pairing reads its torsion check off the
first column plus one step, and each remainder entry off the rows, as
the twist is F_q-linear; each operator term is a row determinant.

The main bridge check compares the f-remainder of the Moore
determinant of r generating functions against the operator side, slot
by t-slot and monomial by monomial inside the truncation guard band.
The operator side is weil_op_r(f, r + 1), its last variable read as t,
on one table per argument; the part-2 pairing is its top t-slot.
It forms that left side as the Moore determinant of the generating
functions' remainders in F_q(theta)[t]/(f); the determinant of the
generating functions themselves, with values in K(t), followed by
tate.agf_remainder, is kept as the tests' oracle.  Both sides hold
q-expansion numerators over the same den(m) (tate's module docstring),
so they are compared numerator against numerator, and the bridge takes
no gcd; a reported failure shows the values, divided by den(m).  The
numerators need theta = K.gen() and every g_i in F_q[theta]; any other
module gets a one-line ValueError.
"""

from __future__ import annotations

from .errors import NotTorsion, TruncationTooShallow
from .modules import DrinfeldModule, exp_numerators
from .multipoly import MPoly
from .polys import PolyRing, UniPoly
from .tate import (QExpansion, RemainderPoly, _merge_caps, _SymSeries, agf_mod,
                   band_monomials, mono_str, theta_poly)
from .weil_ops import weil_op_r


def moore_det(mus, q: int):
    """det(mu_i^(q^j))_{i,j<r}: F_q-multilinear and alternating.

    A field element's twist is its q-th power, a series (q-expansion or
    generating function) twists itself by .frobenius(1), and an
    f-remainder twists coefficient by coefficient; _signed_sum takes the
    twist table's determinant (the entry itself at r = 1).

    Truncated series come back as exactly their guard band.  Each twist
    keeps only the monomials inside its untwisted entry's caps
    (_twists); products and sums never lower an exponent, so a dropped
    monomial could only have formed terms above the determinant's caps.
    For entries with no term above their caps and one cap per symbol,
    the result has the unpruned determinant's caps and exactly its terms
    inside them."""
    return _signed_sum([_twists(mu, q, len(mus)) for mu in mus])


def _twists(mu, q: int, r: int):
    """mu, mu^q, ..., mu^(q^(r-1)), each twist formed from the one before.
    A q-expansion-valued twist keeps only the monomials inside mu's caps
    (coefficient by coefficient for an f-remainder)."""
    row = [mu]
    for _ in range(r - 1):
        row.append(_twist_in_band(row[-1], mu, q))
    return row


def _twist_in_band(w, mu, q: int):
    """w's q-th power; an f-remainder twists coefficient by coefficient,
    and a series is pruned to mu's caps first: its terms at a symbol's
    cap are dropped before the twist would lift them past it."""
    if isinstance(w, RemainderPoly):
        return RemainderPoly(w.f, tuple(_twist_in_band(c, d, q)
                                        for c, d in zip(w.coeffs, mu.coeffs)))
    if isinstance(w, _SymSeries):
        return w.prune({s: cap - 1 for s, cap in mu.caps.items()}).frobenius(1)
    return w ** q


def _signed_sum(table):
    """det(table) along rows over shared minors, r(2^(r-1) - 1) products
    and no division (G. Rote, LNCS 2122, 2001): minors[S] is the minor of
    the rows above on the column set S (a bit mask), and entry (k, j)
    times minors[S] carries the sign (-1)^#{s in S : s > j}."""
    minors = {1 << j: a for j, a in enumerate(table[0])}
    for row in table[1:]:
        grown = {}
        for S, m in minors.items():
            for j, a in enumerate(row):
                if not S >> j & 1:
                    prod = m * a
                    if (S >> j).bit_count() % 2:
                        prod = -prod
                    T = S | 1 << j
                    grown[T] = grown[T] + prod if T in grown else prod
        minors = grown
    return minors[(1 << len(table)) - 1]


def _orbit_rows(M: DrinfeldModule, mu, count: int, width: int):
    """Rows k < max(count, 1) of mu's twist table: row k is
    _twists(phi_x^k mu, q, width), each orbit point formed by
    _phi_x_step from the row before."""
    rows = [_twists(mu, M.q, width)]
    while len(rows) < count:
        rows.append(_twists(_phi_x_step(M, rows[-1]), M.q, width))
    return rows


def _phi_x_step(M: DrinfeldModule, row):
    """phi_x v = theta v + sum_i g_i v^(q^i) from the twists row of v,
    twisting past the row's end only as far as q^rank; a q-expansion
    keeps v's guard band, since every twist in the row is pruned to it."""
    twists = row + _twists(row[-1], M.q, M.rank + 2 - len(row))[1:]
    return _combine((M.theta,) + M.g, twists, M.base.one())


def _combine(cs, vs, one):
    """sum_l vs[l] * cs[l], skipping zero coefficients and products by one."""
    acc = None
    for c, v in zip(cs, vs):
        if not c.is_zero():
            v = v if c == one else v * c
            acc = v if acc is None else acc + v
    return acc


def _zero_like(M: DrinfeldModule, mus):
    if isinstance(mus[0], QExpansion):
        caps, poles = {}, {}
        for mu in mus:
            caps = _merge_caps(caps, mu.caps)
            poles.update(mu.poles)
        return QExpansion(mus[0].vfield, mus[0].q, {}, caps, poles)
    return M.base.zero()


def diamond_moore(P: MPoly, M: DrinfeldModule, mus):
    """Moore determinant of the tensor action of P on mu_1 x ... x mu_r.

    P lives in variables X_1..X_r with an optional trailing t variable;
    scalars c(t) act by collecting on powers of t, so with t present the
    result is the list of t-slot values (a remainder-polynomial shape)."""
    names = P.ring.names
    has_t = bool(names) and names[-1] == "t"
    r = P.ring.nvars - (1 if has_t else 0)
    if len(mus) != r:
        raise ValueError(f"operator in {r} variables applied to {len(mus)} arguments")
    tables = [_orbit_rows(M, mu, P.degree_in(i) + 1, r) for i, mu in enumerate(mus)]
    return _diamond_orbits(P, M, tables, P.degree_in(r) + 1 if has_t else None)


def _diamond_orbits(P: MPoly, M: DrinfeldModule, tables, nt):
    """diamond_moore from each argument's _orbit_rows table: every term
    of P is the determinant of the rows its exponents pick.  nt is the
    number of t-slots, None without t."""
    r = len(tables)
    zero = _zero_like(M, [rows[0][0] for rows in tables])
    out = zero if nt is None else [zero] * nt
    for exps, c in sorted(P.terms.items()):
        val = _signed_sum([tables[i][exps[i]] for i in range(r)]) * M.embed_scalars(c)
        if nt is None:
            out = out + val
        else:
            out[exps[r]] = out[exps[r]] + val
    return out


def weil_pairing(M: DrinfeldModule, f: UniPoly, mus):
    """Pairing value of r f-torsion points; lands in the f-torsion of
    the exterior (rank-one) module.

    Each argument's twist table holds mu, phi_x mu, ..., phi_x^(n-1) mu
    (n = deg f) and their twists.  Its first column and one more step
    give the torsion check, phi_f mu = sum_k a_k phi_x^k mu for f =
    sum_k a_k x^k; the tables give the value (_remainder_det)."""
    if len(mus) != M.rank:
        raise ValueError("expected one argument per unit of rank")
    a = [M.embed_scalars(c) for c in f.coeffs]
    tables = []
    for i, mu in enumerate(mus):
        rows = _orbit_rows(M, mu, len(a) - 1, M.rank)
        orbit = [row[0] for row in rows] + [_phi_x_step(M, rows[-1])]
        if not _combine(a, orbit, M.base.one()).is_zero():
            raise NotTorsion(f"argument {i + 1} is not f-torsion")
        tables.append(rows)
    return _remainder_det(M, f, tables)


def _remainder_det(M: DrinfeldModule, f: UniPoly, tables):
    """[t^(n-1)] det(h_(mu_i)^(q^j)) from each argument's n-row
    _orbit_rows table: entry (i, j) at t^k is sum_l a_(k+l+1)
    (phi_x^l mu_i)^(q^j), f = sum_k a_k x^k.  At n = 1 it is over L."""
    n = int(f.degree)
    if n == 1:
        return _signed_sum([rows[0] for rows in tables])
    a = [M.embed_scalars(c) for c in f.coeffs]
    one, f_l = M.base.one(), PolyRing(M.base, f.ring.var).poly(a)
    entries = [[RemainderPoly(f_l, tuple(_combine(a[k + 1:], [row[j] for row in rows], one)
                                         for k in range(n)))
                for j in range(len(rows[0]))] for rows in tables]
    return _signed_sum(entries).coeffs[n - 1]


def main_theorem_check(M: DrinfeldModule, f: UniPoly, r: int, N: int) -> dict:
    """Bridge between the generating-function and the operator picture.

    Part 1: the f-remainder of the Moore determinant of r truncated
    generating functions equals the Moore determinant of the
    (r+1)-variable operator acting on the leading-coefficient tensor,
    t-slot by t-slot.  Part 2: the top slot equals the Weil pairing of
    the leading coefficients, read off the operator side's top t-slot,
    since weil_op_r(f, r) is the top t-slot of weil_op_r(f, r + 1).
    Equality is asserted on every q-power monomial inside the shared
    truncation guard band; mismatches are reported per monomial.

    Remainders mod f commute with products and twists, so the left side
    is the Moore determinant of the generating functions' remainders,
    formed in F_q(theta)[t]/(f).  The top coefficient of each remainder
    is the truncated exp(Z/f(theta)), the right side's input."""
    if r != M.rank:
        raise ValueError("rank mismatch between module and request")
    theta_poly(M, f)  # a pole on f first, then the module's setting
    E = exp_numerators(M, N)
    n = int(f.degree)
    rems = [agf_mod(M, f, f"Z{i + 1}", N, E) for i in range(r)]
    lhs_slots = moore_det(rems, M.q).coeffs
    cs = [h.coeffs[n - 1] for h in rems]

    # the (r+1)-variable operator, its last variable t (n t-slots), reads
    # rows k < n of one table per argument
    tables = [_orbit_rows(M, c, n, r) for c in cs]
    rhs_slots = _diamond_orbits(weil_op_r(f, r + 1), M, tables, n)

    failures = []
    checked = 0
    checks = [(1, i, rhs_slots[i]) for i in range(n)] + [(2, n - 1, rhs_slots[n - 1])]
    for part, slot, rhs in checks:
        lhs = lhs_slots[slot]
        band = list(band_monomials(_merge_caps(lhs.caps, rhs.caps)))
        if not band:
            raise TruncationTooShallow("empty guard band; increase N")
        if lhs.poles != rhs.poles:
            raise AssertionError("the two sides hold numerators over different poles")
        for m in band:
            checked += 1
            if lhs.terms.get(m) != rhs.terms.get(m):
                failures.append({"part": part, "slot": slot, "monomial": mono_str(m),
                                 "lhs": str(lhs.coeff(m)), "rhs": str(rhs.coeff(m))})
    return {"rank": r, "modulus": str(f), "depth": N,
            "monomials_checked": checked, "failures": failures}
