"""Seeded verification suites over every identity family in the package.

Each suite draws its instances from a deterministic PRNG, counts every
individual check as a case, and reports failures as structured records
sorted by case name, so identical seeds produce identical reports.
Suites: operators, residues, remainders, agf, maurischat-perkins,
main-theorem, pairing-axioms (plus "all").
"""

from __future__ import annotations

import itertools
import math
import random
import time

from . import pairing as pairing_mod
from . import tate
from . import weil_ops as W
from .fields import make_field, embed
from .linalg import rank as mat_rank
from .modules import (DrinfeldModule, a_module_basis, exp_coeffs,
                      kernel_in_field, torsion_basis)
from .multipoly import MPoly, MPolyRing
from .polys import (FracField, PolyRing, is_irreducible_poly, lift_poly,
                    poly_gcd)
from .series import residue_at_infinity, residue_at_point


class Recorder:
    def __init__(self):
        self.cases = 0
        self.failures = []

    def check(self, name: str, ok: bool, inputs: str = "", lhs="", rhs=""):
        self.cases += 1
        if not ok:
            self.failures.append({"case": name, "inputs": inputs,
                                  "lhs": str(lhs), "rhs": str(rhs)})

    def equal(self, name: str, lhs, rhs, inputs: str = ""):
        self.check(name, lhs == rhs, inputs, lhs, rhs)

    def report(self, suite: str, started: float) -> dict:
        return {"suite": suite,
                "cases": self.cases,
                "failures": sorted(self.failures,
                                   key=lambda f: (f["case"], f["inputs"])),
                "elapsed": round(time.perf_counter() - started, 3)}


def _rng(seed, suite: str) -> random.Random:
    return random.Random(f"{seed}:{suite}")


def _random_monic(rng, ring, dmin, dmax):
    d = rng.randrange(dmin, dmax + 1)
    q = ring.field.order
    return ring.poly([rng.randrange(q) for _ in range(d)] + [1])


def _random_irreducible(rng, ring, d):
    while True:
        f = _random_monic(rng, ring, d, d)
        if is_irreducible_poly(f):
            return f


# ---------------------------------------------------------------------------
# operators

def suite_operators(seed=0, cases=None) -> dict:
    started = time.perf_counter()
    rec = Recorder()
    rng = _rng(seed, "operators")
    per_q = cases if cases is not None else 200

    for q in (2, 3, 5):
        F = make_field(q)
        R = PolyRing(F, "t")
        t = R.gen()
        for idx in range(per_q):
            f = _random_monic(rng, R, 1, 6)
            n = int(f.degree)
            tag = f"q={q} #{idx} f={f}"

            # two independent rank-two constructions
            o2 = W.weil_op_r(f, 2)
            rec.equal("op2-quotient", o2, W.weil_op2_quotient(f), tag)

            # X1*O2 - f(X1) = X2*O2 - f(X2), unreduced
            ring2 = o2.ring
            lhs = ring2.var(0) * o2 - ring2.from_unipoly(f, 0)
            rhs = ring2.var(1) * o2 - ring2.from_unipoly(f, 1)
            rec.equal("slot-swap-identity", lhs, rhs, tag)

            # symmetry for ranks up to 4 (transposition + full cycle
            # generate the symmetric group)
            for r in (3, 4):
                o = W.weil_op_r(f, r)
                swap = tuple([1, 0] + list(range(2, r)))
                cyc = tuple(list(range(1, r)) + [0])
                rec.check(f"symmetry-r{r}",
                          o.permute_vars(swap) == o and o.permute_vars(cyc) == o,
                          tag)

            # rank recursion via the star action, and the top coefficient
            o3 = W.weil_op_r(f, 3)
            ring3 = o3.ring
            acc = ring3.zero()
            for k in range(n):
                s = W.star_action(W.dual_map(f, k), f, 2).inject(ring3, (0, 1))
                acc = acc + s * ring3.var(2) ** k
            rec.equal("rank-recursion", acc, o3, tag)
            rec.equal("top-coefficient",
                      o3.coeff_in_var(2, n - 1), o2.inject(ring3, (0, 1)), tag)

            # closed form of [t^k * O2]
            for k in range(1, 5):
                rec.equal(f"tk-star-k{k}", W.star_action(t ** k, f, 2),
                          W.reduce_mod_star(W.tk_star_closed(f, k), f), tag)

            # star action is slot-independent
            g = _random_monic(rng, R, 0, n)
            rec.equal("star-slot-independence",
                      W.star_action(g, f, 2, slot=1),
                      W.star_action(g, f, 2, slot=2), tag)

            # split linear factor recursion at every slot
            roots = [z for z in F.elements() if f(z).is_zero()]
            if roots and n >= 2:
                zeta = roots[0]
                for r in (2, 3):
                    for l in range(1, r + 1):
                        rec.equal(f"split-factor-r{r}-l{l}",
                                  W.katen_recursion(f, zeta, r, l),
                                  W.weil_op_r(f, r), tag)

        # factor recursion f = m*n, congruence anchored per slot
        for idx in range(per_q // 4):
            dm = rng.randrange(1, 4)
            dn = rng.randrange(1, 7 - dm)
            m = _random_monic(rng, R, dm, dm)
            nn = _random_monic(rng, R, dn, dn)
            f = m * nn
            tag = f"q={q} #{idx} m={m} n={nn}"
            for r in (2, 3):
                of = W.weil_op_r(f, r)
                ring = of.ring
                for l in range(1, r + 1):
                    anchor = r - 1 if l < r else 0
                    others = tuple(i for i in range(r) if i != l - 1)
                    small = W.weil_op_r(f, r - 1).inject(ring, others)
                    on2 = W.weil_op_r(nn, 2).inject(ring, (l - 1, anchor))
                    term1 = ring.from_unipoly(m, l - 1) * on2 * small
                    prod = ring.one()
                    for j in others:
                        prod = prod * ring.from_unipoly(nn, j)
                    rhs = term1 + prod * W.weil_op_r(m, r)
                    rec.equal(f"factor-recursion-r{r}-l{l}",
                              of, rhs.reduce_mod(f, anchor), tag)

                # [n^(r-1) * O_m] == O_f  Mod m(*)
                star = W.star_action(nn ** (r - 1), m, r)
                rec.equal(f"factor-congruence-r{r}", star,
                          W.reduce_mod_star(of, m), tag)

        # prime power congruence [p^((r-1)(k-1)) * O_p] == O_{p^k} Mod p(*)
        for idx in range(per_q // 8):
            d = rng.randrange(1, 3)
            p = _random_irreducible(rng, R, d)
            kmax = 6 // d
            k = rng.randrange(2, kmax + 1) if kmax >= 2 else 2
            tag = f"q={q} #{idx} p={p} k={k}"
            for r in (2, 3):
                star = W.star_action(p ** ((r - 1) * (k - 1)), p, r)
                rec.equal(f"prime-power-congruence-r{r}", star,
                          W.reduce_mod_star(W.weil_op_r(p ** k, r), p), tag)

    # rank-three closed form: exhaustive over F_2 and F_3 up to degree 3
    for q in (2, 3):
        F = make_field(q)
        R = PolyRing(F, "t")
        for d in (1, 2, 3):
            for lows in itertools.product(range(q), repeat=d):
                f = R.poly(list(lows) + [1])
                rec.equal("rank3-closed-exhaustive",
                          W.rank3_closed(f), W.weil_op_r(f, 3), f"q={q} f={f}")
    # plus random cases of degree <= 5
    for idx in range(100):
        q = rng.choice((2, 3))
        R = PolyRing(make_field(q), "t")
        f = _random_monic(rng, R, 1, 5)
        rec.equal("rank3-closed-random", W.rank3_closed(f), W.weil_op_r(f, 3),
                  f"q={q} #{idx} f={f}")

    # spanning trees all reduce to the same operator
    for idx in range(100):
        q = rng.choice((2, 3))
        R = PolyRing(make_field(q), "t")
        r = rng.randrange(3, 6)
        f = _random_monic(rng, R, 1, 6 if r == 3 else 3)
        # random labelled tree: attach each vertex to an earlier one
        edges = [(rng.randrange(1, v), v) for v in range(2, r + 1)]
        rec.equal("tree-product", W.tree_product(f, r, edges), W.weil_op_r(f, r),
                  f"q={q} #{idx} f={f} edges={edges}")

    return rec.report("operators", started)


# ---------------------------------------------------------------------------
# residues

def _pairing_residue(Ft, num, den):
    return residue_at_infinity(Ft.frac(num, den))


def suite_residues(seed=0, cases=None) -> dict:
    started = time.perf_counter()
    rec = Recorder()
    rng = _rng(seed, "residues")
    n_dual = cases if cases is not None else 40

    # dual basis: <t^i, D_f(t^j) eta*_f> = delta_ij
    for q in (2, 3, 5):
        F = make_field(q)
        R = PolyRing(F, "t")
        Ft = FracField(R)
        t = R.gen()
        for idx in range(n_dual):
            f = _random_monic(rng, R, 1, 6)
            n = int(f.degree)
            ok = True
            for i in range(n):
                for j in range(n):
                    val = _pairing_residue(Ft, -(t ** i * W.dual_map(f, j)), f)
                    want = F.one() if i == j else F.zero()
                    ok = ok and val == want
            rec.check("dual-basis-delta", ok, f"q={q} #{idx} f={f}")

    # alternative basis for A/p^k: <p^i t^j, D_p(t^m) p^(k-1-l) eta*_{p^k}>
    for q in (2, 3):
        F = make_field(q)
        R = PolyRing(F, "t")
        Ft = FracField(R)
        t = R.gen()
        irreducibles = []
        for d in (1, 2, 3):
            for lows in itertools.product(range(q), repeat=d):
                p = R.poly(list(lows) + [1])
                if is_irreducible_poly(p):
                    irreducibles.append(p)
        for p in irreducibles:
            d = int(p.degree)
            for k in (1, 2, 3):
                ok = True
                for i in range(k):
                    for j in range(d):
                        for l in range(k):
                            for m in range(d):
                                num = -(p ** i * t ** j * W.dual_map(p, m)
                                        * p ** (k - 1 - l))
                                val = _pairing_residue(Ft, num, p ** k)
                                want = F.one() if (i == l and j == m) else F.zero()
                                ok = ok and val == want
                rec.check("prime-power-dual-basis", ok, f"q={q} p={p} k={k}")

    # residue theorem: all residues of a rational differential sum to zero
    n_thm = (cases * 6) if cases is not None else 500
    for idx in range(n_thm // 2 * 2):
        q = 2 if idx % 2 == 0 else 3
        F = make_field(q)
        R = PolyRing(F, "t")
        Ft = FracField(R)
        factors = []
        total = 0
        while total < 6 and (not factors or rng.random() < 0.7):
            d = rng.randrange(1, min(4, 7 - total))
            e = rng.randrange(1, (6 - total) // d + 1)
            factors.append((_random_irreducible(rng, R, d), e))
            total += d * e
        den = R.one()
        for p, e in factors:
            den = den * p ** e
        num = _random_monic(rng, R, 0, 6)
        g = Ft.frac(num, den)
        s = 1
        for p, _ in factors:
            s = s * int(p.degree) // math.gcd(s, int(p.degree))
        big = F if s == 1 else make_field(q, s)
        emb = embed(F, big)
        Rb = PolyRing(big, "t")
        gb = FracField(Rb).frac(lift_poly(num, Rb, emb), lift_poly(den, Rb, emb))
        total_res = emb(residue_at_infinity(g))
        seen = set()
        for p, _ in factors:
            pb = lift_poly(p, Rb, emb)
            for root in big.elements():
                if pb(root).is_zero() and root.coeffs not in seen:
                    seen.add(root.coeffs)
                    total_res = total_res + residue_at_point(gb, root)
        rec.check("residue-theorem", total_res.is_zero(),
                  f"q={q} #{idx} num={num} den={den}")

    return rec.report("residues", started)


# ---------------------------------------------------------------------------
# remainders

def suite_remainders(seed=0, cases=None) -> dict:
    started = time.perf_counter()
    rec = Recorder()
    rng = _rng(seed, "remainders")

    # symbolic remainder of 1/(theta - t)
    n_sym = cases if cases is not None else 50
    for q in (2, 3):
        F = make_field(q)
        Rth = PolyRing(F, "theta")
        K = FracField(Rth)
        theta = K.gen()
        Rq = PolyRing(F, "t")
        RtK = PolyRing(K, "t")
        KT = FracField(RtK)
        lin = RtK.poly([theta, -(K.one())])  # theta - t
        for idx in range(n_sym):
            f = _random_monic(rng, Rq, 1, 5)
            fth = K.coerce(lift_poly(f, Rth)(Rth.gen()))
            rem = tate.ev_remainder(KT.frac(RtK.one(), lin), f)
            quot, rr = divmod(RtK.constant(fth) - lift_poly(f, RtK), lin)
            ok = rr.is_zero()
            scaled = quot * (K.one() / fth)
            ok = ok and list(rem.coeffs) == [scaled.coeff(i)
                                             for i in range(int(f.degree))]
            rec.check("theta-pole-remainder", ok, f"q={q} #{idx} f={f}")

    # division route vs jet interpolation route
    n_interp = (cases * 2) if cases is not None else 200
    for idx in range(n_interp):
        q = rng.choice((2, 3))
        F = make_field(q)
        R = PolyRing(F, "t")
        Ft = FracField(R)
        d = rng.randrange(1, 3)
        k = rng.randrange(1, 4)
        p = _random_irreducible(rng, R, d)
        while True:
            den = _random_monic(rng, R, 0, 2)
            if poly_gcd(den, p).degree == 0:
                break
        num = R.poly([rng.randrange(q) for _ in range(rng.randrange(1, 6))])
        omega = Ft.frac(num, den)
        tag = f"q={q} #{idx} omega=({num})/({den}) p={p} k={k}"
        big, emb, roots, jets = tate.hermite_jets(omega, p, k)
        got = tate.remainder_via_interpolation(p, k, roots, jets)
        want = tate.ev_remainder(omega, p ** k)
        rec.equal("interpolation-vs-division",
                  [str(c) for c in got.coeffs],
                  [str(emb(c)) for c in want.coeffs], tag)

        # the reconstruction matches every jet, and is the unique
        # degree-bounded polynomial doing so
        Rb = PolyRing(big, "t")
        lam = Rb.poly(list(got.coeffs))
        ok_jets = True
        for (j, l), val in jets.items():
            ok_jets = ok_jets and lam.hasse_deriv(l)(roots[j]) == val
        rec.check("jets-match", ok_jets, tag)
        delta_c = [big.zero()] * (d * k)
        delta_c[rng.randrange(d * k)] = big.one()
        lam2 = lam + Rb.poly(delta_c)
        ok_unique = any(lam2.hasse_deriv(l)(roots[j]) != val
                        for (j, l), val in jets.items())
        rec.check("hermite-uniqueness", ok_unique, tag)

    # Hasse-Schmidt derivatives of p^k against the modulus
    for q in (2, 3):
        F = make_field(q)
        R = PolyRing(F, "t")
        for d in (1, 2):
            for rep in range(5):
                p = _random_irreducible(rng, R, d)
                for k in (1, 2, 3, 4):
                    pk = p ** k
                    ok = all((pk.hasse_deriv(l) % p).is_zero() for l in range(k))
                    ok = ok and poly_gcd(pk.hasse_deriv(k), p).degree == 0
                    rec.check("prime-power-jets", ok, f"q={q} p={p} k={k}")

    return rec.report("remainders", started)


# ---------------------------------------------------------------------------
# agf (coefficient formulas for generating-function remainders)

def _rational_modules(q=3):
    F = make_field(q)
    Rth = PolyRing(F, "theta")
    K = FracField(Rth)
    theta = K.gen()
    carlitz = DrinfeldModule(F, K, theta, [K.one()])
    rank2 = DrinfeldModule(F, K, theta, [theta, K.one()])
    return F, K, carlitz, rank2


def suite_agf(seed=0, cases=None) -> dict:
    started = time.perf_counter()
    rec = Recorder()
    F, K, carlitz, rank2 = _rational_modules(3)
    Rx = PolyRing(F, "x")
    Rth = PolyRing(F, "theta")
    moduli = [Rx.gen(), Rx.poly([0, 0, 1]), Rx.poly([1, 0, 1])]
    N = 3
    for name, M in (("carlitz", carlitz), ("rank2", rank2)):
        ec = exp_coeffs(M, N)
        for i in range(1, N + 1):
            rec.check(f"exp-recursion-{name}", ec.recursion_residual(i).is_zero(),
                      f"i={i}")
        for f in moduli:
            n = int(f.degree)
            tag = f"{name} f={f}"
            slots = tate.agf_remainder(tate.agf(M, "Z", N, ec), f)
            fth = tate.eval_at_theta(M, f)
            for i in range(n):
                dfi = K.coerce(lift_poly(W.dual_map(f, i), Rth)(Rth.gen()))
                want = tate.exp_qexp(M, dfi / fth, "Z", N)
                bad = slots[i].mismatches(want)
                rec.check(f"remainder-coefficient-slot{i}", not bad, tag,
                          lhs="; ".join(tate.mono_str(m) for m in bad))
            # the leading coefficient is the truncated exponential itself
            lead = tate.exp_qexp(M, K.one() / fth, "Z", N)
            rec.check("leading-coefficient", not slots[n - 1].mismatches(lead), tag)

            # twisting commutes with taking remainders
            w = tate.agf(M, "Z", N, ec=ec)
            lhs = tate.agf_remainder(w.frobenius(1), f)
            rhs = [s.frobenius(1) for s in tate.agf_remainder(w, f)]
            ok = all(not a.mismatches(b) for a, b in zip(lhs, rhs))
            rec.check("twist-remainder-compat", ok, tag)

    return rec.report("agf", started)


# ---------------------------------------------------------------------------
# maurischat-perkins

def suite_maurischat_perkins(seed=0, cases=None) -> dict:
    started = time.perf_counter()
    rec = Recorder()
    F, K, carlitz, rank2 = _rational_modules(3)
    R = PolyRing(F, "t")
    Rth = PolyRing(F, "theta")
    p = R.poly([1, 0, 1])
    d = int(p.degree)
    k = 2
    N = 2

    # jet congruence for the squared-modulus rank-two operator:
    # delta_l O_{p^k}(x,t) == p(x)^(k-l-1) O_p(x,t)^(l+1) mod p(t)
    ring_xt = MPolyRing(F, ("x", "t"))

    def op_xt(modulus):
        return MPoly(ring_xt, W.weil_op_r(modulus, 2).terms)

    o1 = op_xt(p)
    px = ring_xt.from_unipoly(p, 0)
    for kk in (2, 3):
        opk = op_xt(p ** kk)
        for l in range(kk):
            lhs = opk.hasse_deriv(1, l).reduce_mod(p, 1)
            rhs = (px ** (kk - l - 1) * o1 ** (l + 1)).reduce_mod(p, 1)
            rec.equal(f"jet-congruence-k{kk}-l{l}", lhs, rhs, f"p={p}")

    for name, M in (("carlitz", carlitz), ("rank2", rank2)):
        ec = exp_coeffs(M, N)
        pk_theta = tate.eval_at_theta(M, p)
        for l in (0, 1):
            Es = tate.mp_coeffs(p, l)
            for i, Ei in enumerate(Es):
                rec.check(f"degree-bound-l{l}",
                          Ei.is_zero() or Ei.degree < (l + 1) * d,
                          f"{name} i={i}")
            w = tate.agf(M, "Z", N, ec=ec)
            denom = pk_theta ** (l + 1)
            lhs_slots = tate.agf_remainder(tate.hasse_schmidt(w, l), p, denom.num)
            ok = True
            bad_all = []
            for i in range(d):
                Ei_th = K.coerce(lift_poly(Es[i], Rth)(Rth.gen()))
                want = tate.exp_qexp(M, Ei_th / denom, "Z", N)
                bad = lhs_slots[i].mismatches(want)
                bad_all.extend(bad)
                ok = ok and not bad
            rec.check(f"derivative-congruence-l{l}", ok, f"{name} p={p} k={k}",
                      lhs="; ".join(tate.mono_str(m) for m in bad_all))

    return rec.report("maurischat-perkins", started)


# ---------------------------------------------------------------------------
# main-theorem

def suite_main_theorem(seed=0, cases=None) -> dict:
    started = time.perf_counter()
    rec = Recorder()
    F, K, _, rank2 = _rational_modules(3)
    rank3 = DrinfeldModule(F, K, K.gen(), [K.one(), K.zero(), K.one()])
    Rx = PolyRing(F, "x")
    moduli = [Rx.gen(), Rx.poly([1, 1]), Rx.poly([2, 1]),
              Rx.poly([0, 0, 1]), Rx.poly([1, 0, 1]), Rx.poly([2, 1, 1])]
    for name, M, N in (("rank2", rank2, 3), ("rank3", rank3, 2)):
        for f in moduli:
            rep = pairing_mod.main_theorem_check(M, f, M.rank, N)
            rec.check("moore-bridge", not rep["failures"],
                      f"{name} f={f} N={N} checked={rep['monomials_checked']}",
                      lhs="; ".join(x["monomial"] for x in rep["failures"]))
    # structural: the top t-slot of the (r+1)-variable operator is the
    # rank-r operator
    for f in moduli:
        n = int(f.degree)
        ot = W.weil_op_r(f, 3)
        o2 = W.weil_op_r(f, 2).inject(ot.ring, (0, 1))
        rec.equal("top-slot-operator", ot.coeff_in_var(2, n - 1), o2, f"f={f}")
    return rec.report("main-theorem", started)


# ---------------------------------------------------------------------------
# pairing-axioms

def _finite_instance(q, g_coeffs, theta_val=1, ext=1):
    qf = make_field(q)
    if ext == 1:
        base = qf
        theta = base.elem(theta_val)
        g = [base.elem(c) for c in g_coeffs]
        return DrinfeldModule(qf, base, theta, g)
    base = make_field(qf.p, qf.e * ext)
    emb = embed(qf, base)
    theta = base.gen() if theta_val == "gen" else base.elem(theta_val)
    g = [emb(qf.elem(c)) if isinstance(c, int) else c for c in g_coeffs]
    return DrinfeldModule(qf, base, theta, g, emb)


def suite_pairing_axioms(seed=0, cases=None) -> dict:
    started = time.perf_counter()
    rec = Recorder()
    rng = _rng(seed, "pairing-axioms")
    n_samples = cases if cases is not None else 200

    for q in (2, 3):
        M = _finite_instance(q, [1, 1])
        Rx = PolyRing(M.q_field, "x")
        x = Rx.gen()
        tb = torsion_basis(M, x)
        rec.equal("torsion-size-f=x", tb.cardinality(), q ** 2, f"q={q}")
        Mx = tb.module_ext
        psi = Mx.exterior()
        pts = list(tb.all_points())

        def pair(a, b, f=x, module=Mx):
            return pairing_mod.weil_pairing(module, f, [a, b])

        exhaustive = q == 2
        pair_list = [(a, b) for a in pts for b in pts]
        if not exhaustive:
            pair_list = [pair_list[rng.randrange(len(pair_list))]
                         for _ in range(n_samples)]

        # multilinearity in the first slot (the second follows by the
        # alternating checks plus bilinearity of the determinant)
        triples = ([(a, b, c) for a in pts for b in pts for c in pts]
                   if exhaustive else
                   [(pts[rng.randrange(len(pts))], pts[rng.randrange(len(pts))],
                     pts[rng.randrange(len(pts))]) for _ in range(n_samples)])
        ok = all(pair(a + b, c) == pair(a, c) + pair(b, c) for a, b, c in triples)
        rec.check("additivity", ok, f"q={q} f=x")
        ok = all(pair(a, b + c) == pair(a, b) + pair(a, c) for a, b, c in triples)
        rec.check("additivity-slot2", ok, f"q={q} f=x")

        # A-linearity: Weil(phi_a mu, nu) = psi_a Weil(mu, nu)
        for a_poly in (x, x + 1, x * x):
            phi_a = Mx.phi_of(a_poly)
            psi_a = psi.phi_of(a_poly)
            ok = all(pair(phi_a.apply(mu), nu) == psi_a.apply(pair(mu, nu))
                     for mu, nu in pair_list)
            rec.check("a-linearity", ok, f"q={q} a={a_poly}")

        # alternating
        ok = all(pair(mu, mu).is_zero() for mu in pts)
        rec.check("alternating", ok, f"q={q} f=x")
        ok = all(pair(mu, nu) == -pair(nu, mu) for mu, nu in pair_list)
        rec.check("antisymmetry", ok, f"q={q} f=x")

        # Galois equivariance for the Frobenius of the splitting field
        # over the base A-field
        frob_exp = M.q_field.order ** (M.base.e // M.q_field.e)
        ok = all(pair(mu, nu) ** frob_exp == pair(mu ** frob_exp, nu ** frob_exp)
                 for mu, nu in pair_list)
        rec.check("galois-equivariance", ok, f"q={q} f=x")

        # membership: psi_f kills every pairing value
        psi_x = psi.phi_of(x)
        ok = all(psi_x.apply(pair(mu, nu)).is_zero() for mu, nu in pair_list)
        rec.check("psi-membership", ok, f"q={q} f=x")

        # surjectivity and nondegeneracy at desk scale: the value set is
        # exactly ker(psi_x) in the splitting field, and every basis
        # pair maps to a generator (nonzero, for n = 1)
        kernel_pts = kernel_in_field(psi, x, tb.rel)
        psi_tor = set()
        qf = M.q_field
        for combo in itertools.product(list(qf.elements()), repeat=len(kernel_pts)):
            acc = tb.field_ext.zero()
            for c, pt in zip(combo, kernel_pts):
                if not c.is_zero():
                    acc = acc + Mx.embed_scalars(c) * pt
            psi_tor.add(acc.coeffs)
        rec.equal("psi-torsion-size", len(psi_tor), q, f"q={q}")
        values = {pair(a, b).coeffs for a in pts for b in pts}
        rec.equal("surjectivity", sorted(values), sorted(psi_tor), f"q={q}")
        indep, nonzero_gen = 0, 0
        for a in pts:
            for b in pts:
                if a.is_zero() or b.is_zero():
                    continue
                if any((a * Mx.embed_scalars(c) == b) for c in qf.elements()):
                    continue
                indep += 1
                if not pair(a, b).is_zero():
                    nonzero_gen += 1
        rec.equal("basis-pairs-generate", nonzero_gen, indep, f"q={q}")

        # compatibility: psi_n Weil_{mn} = Weil_m(phi_n ...) for f = x * x
        f2 = x * x
        tb2 = torsion_basis(M, f2)
        rec.equal("torsion-size-f=x^2", tb2.cardinality(), q ** 4, f"q={q}")
        M2 = tb2.module_ext
        psi2 = M2.exterior()
        pts2 = list(tb2.all_points())
        phi_n = M2.phi_of(x)
        psi_n = psi2.phi_of(x)
        pairs2 = ([(a, b) for a in pts2 for b in pts2] if q == 2 else
                  [(pts2[rng.randrange(len(pts2))], pts2[rng.randrange(len(pts2))])
                   for _ in range(n_samples)])
        ok = all(psi_n.apply(pair(a, b, f2, M2))
                 == pair(phi_n.apply(a), phi_n.apply(b), x, M2)
                 for a, b in pairs2)
        rec.check("compatibility", ok, f"q={q} f=x^2")

        # spanning property of the dual-map coefficient sets
        for tb_i in (tb, tb2):
            f_i = tb_i.f
            n_i = int(f_i.degree)
            basis = a_module_basis(tb_i)
            rows = []
            for mu in basis:
                for j in range(n_i):
                    img = tb_i.module_ext.phi_of(W.dual_map(f_i, j)).apply(mu)
                    rows.append(tb_i.rel.coords(img))
            rec.equal("coefficient-span", mat_rank(rows, M.q_field),
                      M.rank * n_i, f"q={q} f={f_i}")

    # torsion sanity on an extension A-field (theta a generator of F_4)
    M4 = _finite_instance(2, [1, 1], theta_val="gen", ext=2)
    Rx4 = PolyRing(M4.q_field, "x")
    x4 = Rx4.gen()
    for f in (x4, x4 + 1, x4 * (x4 + 1)):
        tbf = torsion_basis(M4, f)
        rec.equal("torsion-size-ext", tbf.cardinality(),
                  2 ** (2 * int(f.degree)), f"f={f}")
        phi_f = tbf.module_ext.phi_of(f)
        ok = all(phi_f.apply(pt).is_zero() for pt in tbf.all_points())
        rec.check("torsion-killed-ext", ok, f"f={f}")

    return rec.report("pairing-axioms", started)


SUITES = {
    "operators": suite_operators,
    "residues": suite_residues,
    "remainders": suite_remainders,
    "agf": suite_agf,
    "maurischat-perkins": suite_maurischat_perkins,
    "main-theorem": suite_main_theorem,
    "pairing-axioms": suite_pairing_axioms,
}


def run_suite(name: str, seed=0, cases=None):
    """Run one suite (or "all"); returns a list of report dicts."""
    if name == "all":
        return [SUITES[k](seed, cases) for k in sorted(SUITES)]
    if name not in SUITES:
        raise KeyError(name)
    return [SUITES[name](seed, cases)]
