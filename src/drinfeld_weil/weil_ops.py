"""Weil operators attached to a monic modulus f over F_q.

The rank-two operator is the polynomial
    O2(X1, X2) = sum_{k<n} X1^k b_k(X2),   b_k = D_f(t^k),
              = sum_{j=1}^n a_j sum_{alpha+beta=j-1} X1^alpha X2^beta,
where D_f is the dual map t^i -> sum_j a_{i+j+1} t^j of F_q[t]/f and n
= deg f.  It also equals the exact quotient (f(X2)-f(X1))/(X2-X1),
which this module computes independently by synthetic division so the
two constructions can be checked against each other.

The rank-r operator is the normal form of prod_{j<r} O2(X_j, X_r) mod
f(X_r).  Its coefficient of X_1^{k_1} ... X_{r-1}^{k_{r-1}} is the
remainder prod_j b_{k_j} mod f, read as a polynomial in X_r, and that
product depends only on the multiset {k_j}: weil_op_r forms it once per
non-decreasing index tuple in F_q[t]/(f).  tree_product is the
independent check: it multiplies rank-two operators over the edges of
any spanning tree as multivariate polynomials and reduces every
variable, which gives the same normal form for every connected graph.
The star action [g(t) * O] multiplies by g(X_i) for any slot i and
renormalizes; the result is slot-independent.
"""

from __future__ import annotations

import itertools

from .errors import NotATree
from .multipoly import MPoly, MPolyRing
from .polys import UniPoly


def op_ring(field, r: int, with_t: bool = False) -> MPolyRing:
    names = tuple(f"X{i + 1}" for i in range(r))
    if with_t:
        names += ("t",)
    return MPolyRing(field, names)


def dual_map(f: UniPoly, i: int) -> UniPoly:
    """D_f(t^i) = sum_{j=0}^{n-i-1} a_{i+j+1} t^j."""
    n = int(f.degree)
    if not 0 <= i < n:
        raise ValueError(f"index {i} out of range for deg f = {n}")
    # the quotient by t^(i+1) drops a_0, ..., a_i
    return f // f.ring.gen() ** (i + 1)


def weil_op2(f: UniPoly) -> MPoly:
    """Rank-two operator from the dual-map double sum."""
    ring = op_ring(f.ring.field, 2)
    n = int(f.degree)
    terms = {}
    for k in range(n):
        dk = dual_map(f, k)
        for j, c in enumerate(dk.coeffs):
            if not c.is_zero():
                terms[(j, k)] = c
    return MPoly(ring, terms)


def weil_op2_quotient(f: UniPoly) -> MPoly:
    """(f(X2) - f(X1)) / (X2 - X1) by synthetic division in X2.

    Independent of the dual-map construction; the remainder must vanish."""
    ring = op_ring(f.ring.field, 2)
    n = int(f.degree)
    diff = ring.from_unipoly(f, 1) - ring.from_unipoly(f, 0)
    cs = [diff.coeff_in_var(1, j) for j in range(n + 1)]
    x1 = ring.var(0)
    x2 = ring.var(1)
    qj = ring.zero()
    quot = ring.zero()
    for j in range(n, 0, -1):
        qj = cs[j] + x1 * qj
        quot = quot + qj * x2 ** (j - 1)
    rem = cs[0] + x1 * qj
    if not rem.is_zero():
        raise AssertionError("X2 - X1 does not divide f(X2) - f(X1)")
    return quot


def weil_op_r(f: UniPoly, r: int) -> MPoly:
    """Rank-r operator: normal form of prod_j O2(X_j, X_r) mod f(X_r).

    The coefficient of X_1^{k_1} ... X_{r-1}^{k_{r-1}} is prod_j b_{k_j}
    mod f with b_k = D_f(t^k); each product is formed once, for the
    sorted index tuple, by extending shorter products one factor at a
    time."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    ring = op_ring(f.ring.field, r)
    if r == 1:
        return ring.one()
    n = int(f.degree)
    b = [dual_map(f, k) for k in range(n)]
    prods = {(k,): bk for k, bk in enumerate(b)}
    for _ in range(r - 2):
        prods = {ks + (k,): (pk * b[k]) % f
                 for ks, pk in prods.items() for k in range(ks[-1], n)}
    terms = {}
    for ks in itertools.product(range(n), repeat=r - 1):
        for i, c in enumerate(prods[tuple(sorted(ks))].coeffs):
            if not c.is_zero():
                terms[ks + (i,)] = c
    return MPoly(ring, terms)


def weil_op_rt(f: UniPoly, r: int) -> MPoly:
    """The (r+1)-variable operator O(X_1, ..., X_r, t), anchored at t."""
    return MPoly(op_ring(f.ring.field, r, with_t=True), weil_op_r(f, r + 1).terms)


def reduce_mod_star(P: MPoly, f: UniPoly, variables=None) -> MPoly:
    """Canonical representative with degree < deg f in each named variable."""
    if variables is None:
        variables = range(P.ring.nvars)
    out = P
    for v in variables:
        out = out.reduce_mod(f, v)
    return out


def star_action(g: UniPoly, f: UniPoly, r: int, slot: int = 1) -> MPoly:
    """[g(t) * O_f^(r)]: multiply by g(X_slot) and renormalize.

    The result does not depend on slot (1-based)."""
    if r == 1:
        ring = op_ring(f.ring.field, 1)
        return ring.from_unipoly(g % f, 0)
    if not 1 <= slot <= r:
        raise ValueError("slot out of range")
    ring = op_ring(f.ring.field, r)
    G = ring.from_unipoly(g, slot - 1)
    return reduce_mod_star(G * weil_op_r(f, r), f)


def tree_product(f: UniPoly, r: int, edges) -> MPoly:
    """Normal form of prod O2(X_a, X_b) over the edges of a spanning tree."""
    edges = list(edges)
    if len(edges) != r - 1:
        raise NotATree(f"need {r - 1} edges for {r} vertices, got {len(edges)}")
    parent = list(range(r + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in edges:
        if not (1 <= a <= r and 1 <= b <= r):
            raise NotATree(f"vertex out of range in edge ({a}, {b})")
        parent[find(a)] = find(b)
    if len({find(v) for v in range(1, r + 1)}) != 1:
        raise NotATree("graph is not connected")

    ring = op_ring(f.ring.field, r)
    o2 = weil_op2(f)
    prod = ring.one()
    for a, b in edges:
        prod = prod * o2.inject(ring, (a - 1, b - 1))
        prod = prod.reduce_mod(f, a - 1).reduce_mod(f, b - 1)
    return reduce_mod_star(prod, f)


def rank3_closed(f: UniPoly) -> MPoly:
    """Rank-three operator from the explicit double quadruple sum."""
    ring = op_ring(f.ring.field, 3)
    n = int(f.degree)
    a = [f.coeff(i) for i in range(n + 1)]
    acc = ring.zero()
    for k in range(n):
        for i in range(k + 1, n + 1):
            for j in range(n - k):
                c = a[i] * a[k + j + 1]
                if c.is_zero():
                    continue
                for alpha in range(i - k):
                    acc = acc + ring.term((alpha + k, i - 1 - alpha, j), c)
    for k in range(n):
        for i in range(k):
            for j in range(n - k):
                c = a[i] * a[k + j + 1]
                if c.is_zero():
                    continue
                for alpha in range(k - i):
                    acc = acc - ring.term((alpha + i, k - 1 - alpha, j), c)
    return acc


def katen_recursion(f: UniPoly, zeta, r: int, l: int = 1) -> MPoly:
    """Split-linear-factor recursion for f = (t - zeta) * m, zeta in F_q:

        m(X_l) O_f^(r-1)(..., X_l omitted, ...)
        + prod_{j != l} (X_j - zeta) * O_m^(r)

    Exact equality with the rank-r operator, no reduction required."""
    if r < 2:
        raise ValueError("rank must be >= 2")
    if not 1 <= l <= r:
        raise ValueError("slot out of range")
    field = f.ring.field
    zeta = field.coerce(zeta)
    lin = f.ring.poly([-zeta, 1])
    m, rem = divmod(f, lin)
    if not rem.is_zero():
        raise ValueError("zeta is not a root of f")
    ring = op_ring(field, r)
    others = [i for i in range(r) if i != l - 1]
    o_small = weil_op_r(f, r - 1).inject(ring, tuple(others))
    term1 = ring.from_unipoly(m, l - 1) * o_small
    prod = ring.one()
    for j in others:
        prod = prod * (ring.var(j) - ring.constant(zeta))
    term2 = prod * weil_op_r(m, r)
    return term1 + term2


def tk_star_closed(f: UniPoly, k: int) -> MPoly:
    """Closed form of [t^k * O_f^(2)] for k >= 1:

        - sum_{i<k} a_i sum_{alpha+beta=k-i-1} X1^(alpha+i) X2^(beta+i)
        + sum_{i>k} a_i sum_{alpha+beta=i-k-1} X1^(alpha+k) X2^(beta+k)

    For k >= n the raw sums leave the normal-form box and must be
    reduced before comparison."""
    if k == 0:
        return weil_op2(f)
    ring = op_ring(f.ring.field, 2)
    n = int(f.degree)
    acc = ring.zero()
    for i in range(min(k, n + 1)):
        c = f.coeff(i)
        if c.is_zero():
            continue
        for alpha in range(k - i):
            beta = k - i - 1 - alpha
            acc = acc - ring.term((alpha + i, beta + i), c)
    for i in range(k + 1, n + 1):
        c = f.coeff(i)
        if c.is_zero():
            continue
        for alpha in range(i - k):
            beta = i - k - 1 - alpha
            acc = acc + ring.term((alpha + k, beta + k), c)
    return acc
