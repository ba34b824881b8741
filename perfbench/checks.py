"""Output checks that share no code with the program under test.

Everything here is plain integer arithmetic mod a prime p:

* F_p[t]/(f) for the reference Weil operator, built from the exact
  quotient (f(X2) - f(X1)) / (X2 - X1) by synthetic division;
* F_{p^E} = F_p[y]/(m) for the splitting fields, with m the modulus the
  program reports, so that phi_f and psi_f can be evaluated on torsion
  points and pairing values without the program's field classes.

Each check returns a list of error strings; an empty list means the
output passed.  Nothing here imports drinfeld_weil.
"""

from __future__ import annotations

import itertools
import json


# ---------------------------------------------------------------------------
# F_p[t] modulo a monic f (coefficient lists, constant term first).

def _mulmod(a, b, f, p):
    """a * b mod f over F_p; a and b have length deg f."""
    n = len(f) - 1
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k] % p
        if c:
            for j in range(n):
                prod[k - n + j] -= c * f[j]
    return [c % p for c in prod[:n]]


def weil_op_reference(p: int, f, r: int) -> dict:
    """O_f^(r) as {exponent tuple: coefficient}, nonzero coefficients only.

    O2(X1, X2) is the exact quotient (f(X2) - f(X1)) / (X2 - X1): the
    numerator is a polynomial in X2 over F_p[X1], divided synthetically
    by X2 - X1.  The rank-r operator is prod_{j<r} O2(X_j, X_r) reduced
    mod f(X_r); since O2 has degree < n in X_j, the coefficient of
    X_1^a_1 ... X_{r-1}^a_{r-1} is the product of the X_j^a_j-slices of
    O2, multiplied in F_p[X_r]/(f)."""
    f = [c % p for c in f]
    n = len(f) - 1
    if f[-1] != 1 or n < 1:
        raise ValueError("f must be monic of degree >= 1")
    # numerator coefficients in X2, each a polynomial in X1 (length n + 1)
    num = [[0] * (n + 1) for _ in range(n + 1)]
    for j in range(1, n + 1):
        num[j][0] = f[j]
        num[0][j] = -f[j]
    # synthetic division by (X2 - X1): quo[j - 1] = num[j] + X1 * quo[j]
    quo = [None] * n
    carry = [0] * (n + 1)
    for j in range(n, 0, -1):
        shifted = [0] + carry[:-1]
        carry = [(a + b) % p for a, b in zip(num[j], shifted)]
        quo[j - 1] = carry
    remainder = [(a + b) % p for a, b in zip(num[0], [0] + carry[:-1])]
    if any(remainder) or carry[-1]:
        raise AssertionError("X2 - X1 does not divide f(X2) - f(X1)")
    # slice[a](t) = coefficient of X1^a in O2, as a polynomial in t = X2
    slices = [[quo[b][a] for b in range(n)] for a in range(n)]
    table = {(): [1] + [0] * (n - 1)}
    for _ in range(r - 1):
        table = {key + (a,): _mulmod(v, slices[a], f, p)
                 for key, v in table.items() for a in range(n) if any(slices[a])}
    out = {}
    for key, v in table.items():
        for b, c in enumerate(v):
            if c:
                out[key + (b,)] = c
    return out


def check_weil_op_json(p: int, f, r: int, text: str) -> list:
    """The program's `weil-op --format json` output against the reference."""
    try:
        body = json.loads(text)
        vars_ = body["vars"]
        got = {}
        for exps, coeffs in body["terms"]:
            if len(coeffs) != 1:
                return [f"q={p} f={f} r={r}: coefficient {coeffs} is not in F_p"]
            got[tuple(exps)] = coeffs[0]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"q={p} f={f} r={r}: unreadable output ({exc})"]
    if vars_ != [f"X{i + 1}" for i in range(r)]:
        return [f"q={p} f={f} r={r}: variables {vars_}"]
    want = weil_op_reference(p, f, r)
    if got != want:
        diff = sorted(set(got.items()) ^ set(want.items()))[:3]
        return [f"q={p} f={f} r={r}: {len(got)} terms vs {len(want)} expected; "
                f"first differences {diff}"]
    return []


# ---------------------------------------------------------------------------
# F_{p^E} = F_p[y]/(m), elements as tuples of length E.

class GF:
    def __init__(self, p: int, modulus):
        self.p = p
        self.m = [c % p for c in modulus]
        self.e = len(self.m) - 1
        if self.e < 1 or self.m[-1] != 1:
            raise ValueError("splitting-field modulus must be monic")

    def const(self, c):
        return (c % self.p,) + (0,) * (self.e - 1)

    def zero(self):
        return (0,) * self.e

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def scale(self, a, c):
        p = self.p
        return tuple((x * c) % p for x in a)

    def mul(self, a, b):
        p, e, m = self.p, self.e, self.m
        prod = [0] * (2 * e - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        for k in range(2 * e - 2, e - 1, -1):
            c = prod[k] % p
            if c:
                for j in range(e):
                    prod[k - e + j] -= c * m[j]
        return tuple(c % p for c in prod[:e])

    def pow(self, a, k: int):
        out = self.const(1)
        while k:
            if k & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            k >>= 1
        return out

    def elements(self):
        """All elements in lexicographic coefficient order."""
        return itertools.product(range(self.p), repeat=self.e)


def _rank_mod_p(rows, p):
    rows = [list(r) for r in rows]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                fac = rows[i][c]
                rows[i] = [(x - fac * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class DrinfeldAction:
    """phi_x = theta + g_1 tau + ... + g_r tau^r acting on F_{p^E}, q = p.

    theta is an element of the big field; g_i are F_p constants."""

    def __init__(self, gf: GF, q: int, theta, g):
        self.gf, self.q, self.theta = gf, q, theta
        self.g = [c % gf.p for c in g]

    def phi_x(self, v):
        gf = self.gf
        acc = gf.mul(self.theta, v)
        for i, gi in enumerate(self.g, start=1):
            if gi:
                acc = gf.add(acc, gf.scale(gf.pow(v, self.q ** i), gi))
        return acc

    def phi(self, f, v):
        """phi_f(v) = sum_k f_k phi_x^k(v)."""
        gf = self.gf
        acc, cur = gf.zero(), v
        for k, fk in enumerate(f):
            if k:
                cur = self.phi_x(cur)
            if fk % gf.p:
                acc = gf.add(acc, gf.scale(cur, fk))
        return acc

    def exterior(self):
        """psi_x = theta + (-1)^(r-1) g_r tau."""
        sign = 1 if len(self.g) % 2 == 1 else -1
        return DrinfeldAction(self.gf, self.q, self.theta, [sign * self.g[-1]])


def base_generator_image(gf: GF, base_modulus):
    """Smallest root (lexicographic, constant coefficient first) of the
    base field's modulus in the splitting field: where the program's
    subfield embedding sends the base generator."""
    for cand in gf.elements():
        acc = gf.zero()
        for c in reversed(base_modulus):
            acc = gf.add(gf.mul(acc, cand), gf.const(c))
        if not any(acc):
            return tuple(cand)
    raise AssertionError("base modulus has no root in the splitting field")


def check_torsion_basis(q, r, f, described, action: DrinfeldAction) -> list:
    """Cardinality q^(r deg f), F_q-independence, and phi_f kills each point."""
    errors = []
    n = len(f) - 1
    tag = f"q={q} r={r} f={f}"
    points = [tuple(pt) for pt in described["basis"]]
    if described["cardinality"] != q ** (r * n) or len(points) != r * n:
        errors.append(f"{tag}: cardinality {described['cardinality']} with "
                      f"{len(points)} basis points, expected {q ** (r * n)}")
    if points and _rank_mod_p(points, q) != len(points):
        errors.append(f"{tag}: basis is not F_q-independent")
    for pt in points:
        if any(action.phi(f, pt)):
            errors.append(f"{tag}: phi_f does not kill basis point {pt}")
    return errors


def check_pairing_group(f, action: DrinfeldAction, a, b, values) -> list:
    """values = (W(a, rest), W(b, rest), W(a + b, rest), W(a, a, rest'))."""
    gf = action.gf
    psi = action.exterior()
    errors = []
    for v in values:
        if any(psi.phi(f, v)):
            errors.append(f"f={f}: psi_f does not kill pairing value {v}")
    w_a, w_b, w_ab, w_rep = values
    if gf.add(w_a, w_b) != tuple(w_ab):
        errors.append(f"f={f}: W(a+b, ...) != W(a, ...) + W(b, ...) for a={a} b={b}")
    if any(w_rep):
        errors.append(f"f={f}: W with a repeated argument is {w_rep}, not 0")
    return errors


def check_bridge_report(f, r: int, N: int, rep) -> list:
    n = len(f) - 1
    want = (n + 1) * (N + 1) ** r
    tag = f"r={r} f={f} N={N}"
    errors = []
    if rep.get("failures"):
        errors.append(f"{tag}: {len(rep['failures'])} failing monomials, "
                      f"first {rep['failures'][0]}")
    if rep.get("monomials_checked") != want:
        errors.append(f"{tag}: monomials_checked={rep.get('monomials_checked')}, "
                      f"expected (deg f + 1)(N + 1)^r = {want}")
    return errors
