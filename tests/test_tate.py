import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from drinfeld_weil import (DrinfeldModule, FracField, PolyRing, agf, agf_mod,
                           agf_remainder, ev_remainder, exp_coeffs,
                           exp_qexp, hasse_schmidt, hermite_jets, make_field,
                           moore_det, mp_coeffs, remainder_via_interpolation)
from drinfeld_weil.errors import PoleOnModulus
from drinfeld_weil.polys import lift_poly, poly_gcd
from drinfeld_weil.tate import RemainderPoly, band_monomials, mono_str
from drinfeld_weil.weil_ops import dual_map, weil_op2_quotient

F3 = make_field(3)
Rth = PolyRing(F3, "theta")
K = FracField(Rth)
THETA = K.gen()
Rq = PolyRing(F3, "t")
RtK = PolyRing(K, "t")
KT = FracField(RtK)


def lin_theta_minus_t():
    return RtK.poly([THETA, -(K.one())])


def theta_of(p):
    return K.coerce(lift_poly(p, Rth)(Rth.gen()))


def carlitz():
    return DrinfeldModule(F3, K, THETA, [K.one()])


def rank2():
    return DrinfeldModule(F3, K, THETA, [THETA, K.one()])


# ---------------------------------------------------------------------------
# remainders

def test_ev_remainder_pole_at_theta():
    f = Rq.poly([1, 0, 1])
    w = KT.frac(RtK.one(), lin_theta_minus_t())
    rem = ev_remainder(w, f)
    den = THETA * THETA + 1
    assert list(rem.coeffs) == [THETA / den, K.one() / den]


def test_ev_remainder_polynomial_division():
    f = Rq.poly([1, 0, 1])
    rem = ev_remainder(Rq.poly([0, 0, 0, 1]), f)
    assert list(rem.coeffs) == [F3.zero(), F3.elem(2)]


def test_ev_remainder_low_degree_identity():
    f = Rq.poly([1, 0, 1])
    w = Rq.poly([2, 1])
    assert list(ev_remainder(w, f).coeffs) == [F3.elem(2), F3.one()]


def test_ev_remainder_pole_on_modulus():
    f = Rq.poly([1, 0, 1])
    Ft = FracField(Rq)
    with pytest.raises(PoleOnModulus):
        ev_remainder(Ft.frac(Rq.one(), f), f)


def test_theta_pole_remainder_closed_form():
    # [1/(theta-t)]_f == (f(theta) - f(t)) / (f(theta)(theta - t))
    rng = random.Random(0)
    for _ in range(25):
        d = rng.randrange(1, 6)
        f = Rq.poly([rng.randrange(3) for _ in range(d)] + [1])
        fth = theta_of(f)
        rem = ev_remainder(KT.frac(RtK.one(), lin_theta_minus_t()), f)
        quot, rr = divmod(RtK.constant(fth) - lift_poly(f, RtK), lin_theta_minus_t())
        assert rr.is_zero()
        scaled = quot * (K.one() / fth)
        assert list(rem.coeffs) == [scaled.coeff(i) for i in range(d)]


# ---------------------------------------------------------------------------
# the remainder ring F_q(theta)[t]/(f)

def twist_kt(w):
    """Raise the F_3(theta) coefficients of w in K(t) to the cube; t fixed."""
    return KT.frac(lift_poly(w.num, RtK, lambda c: c ** 3),
                   lift_poly(w.den, RtK, lambda c: c ** 3))


def twist_rem(h, k):
    """Raise the F_3(theta) coefficients of a remainder to 3^k; t fixed."""
    return RemainderPoly(h.f, tuple(c ** 3 ** k for c in h.coeffs))


K_ELEMS = st.lists(st.integers(0, 2), max_size=3).map(K.frac)
T_POLYS = st.lists(K_ELEMS, min_size=1, max_size=3).map(RtK.poly)
MODULI = st.lists(st.integers(0, 2), max_size=2).map(lambda cs: Rq.poly(cs + [1]))


@settings(max_examples=40, deadline=None)
@given(MODULI, T_POLYS, T_POLYS, T_POLYS, T_POLYS)
def test_remainder_map_is_a_ring_hom_commuting_with_twist(f, n1, d1, n2, d2):
    f_k = lift_poly(f, RtK)
    for d in (d1, d2):
        assume(not d.is_zero() and poly_gcd(d, f_k).degree == 0)
    w1, w2 = KT.frac(n1, d1), KT.frac(n2, d2)
    h1, h2 = ev_remainder(w1, f), ev_remainder(w2, f)
    assert ev_remainder(w1 + w2, f) == h1 + h2
    assert ev_remainder(w1 - w2, f) == h1 - h2
    assert ev_remainder(w1 * w2, f) == h1 * h2
    assert ev_remainder(twist_kt(w1), f) == twist_rem(h1, 1)
    assert ev_remainder(twist_kt(twist_kt(w2)), f) == twist_rem(h2, 2)


def test_remainder_ring_rejects_another_modulus():
    h = ev_remainder(Rq.poly([0, 1]), Rq.poly([1, 0, 1]))
    g = ev_remainder(Rq.poly([0, 1]), Rq.poly([2, 0, 1]))
    with pytest.raises(ValueError):
        h * g


def test_agf_mod_slots_are_single_term_remainders():
    # the Z^{q^i} coefficient of slot k is the t^k-coefficient of
    # [e_i / (theta^{q^i} - t)]_f
    N = 2
    for M in (carlitz(), rank2()):
        ec = exp_coeffs(M, N)
        for f in (Rq.gen(), Rq.poly([1, 0, 1]), Rq.poly([2, 1, 1, 1])):
            h = agf_mod(M, f, "Z", N)
            assert len(h.coeffs) == f.degree
            assert all(slot.caps == {"Z": N} for slot in h.coeffs)
            for i in range(N + 1):
                term = KT.frac(RtK.constant(ec.e[i]),
                               RtK.poly([THETA ** 3 ** i, -(K.one())]))
                rem = ev_remainder(term, f)
                for k, slot in enumerate(h.coeffs):
                    assert slot.coeff((("Z", i),)) == rem.coeffs[k]


def test_agf_mod_pole_on_modulus():
    # theta = 1 is a root of f = x - 1; at depth 0 the exponential data
    # exist, and both routes refuse the pole
    M = DrinfeldModule(F3, K, K.one(), [K.one()])
    f = Rq.poly([2, 1])
    with pytest.raises(PoleOnModulus):
        agf_mod(M, f, "Z", 0)
    with pytest.raises(PoleOnModulus):
        agf_remainder(agf(M, "Z", 0), f)


# ---------------------------------------------------------------------------
# interpolation

def test_interpolation_lagrange_case():
    f = Rq.poly([1, 0, 1])
    big, emb, roots, jets = hermite_jets(Rq.poly([0, 0, 0, 1]), f, 1)
    rp = remainder_via_interpolation(f, 1, roots, jets)
    assert rp.coeffs[0] == big.zero()
    assert rp.coeffs[1] == emb(F3.elem(2))


def test_interpolation_identity_on_low_degree():
    p = Rq.poly([1, 0, 1])
    omega = Rq.poly([2, 1])
    big, emb, roots, jets = hermite_jets(omega, p, 1)
    rp = remainder_via_interpolation(p, 1, roots, jets)
    assert list(rp.coeffs) == [emb(c) for c in omega.coeffs]


def test_interpolation_hermite_case():
    p = Rq.poly([1, 1])
    omega = Rq.poly([0, 0, 0, 1])
    big, emb, roots, jets = hermite_jets(omega, p, 2)
    rp = remainder_via_interpolation(p, 2, roots, jets)
    oracle = ev_remainder(omega, p * p)
    assert list(rp.coeffs) == [emb(c) for c in oracle.coeffs]


def test_interpolation_incomplete_jets_error():
    p = Rq.poly([1, 0, 1])
    big, emb, roots, jets = hermite_jets(Rq.poly([0, 0, 0, 1]), p, 2)
    del jets[(0, 1)]
    with pytest.raises(ValueError):
        remainder_via_interpolation(p, 2, roots, jets)


# ---------------------------------------------------------------------------
# Hasse-Schmidt

def test_hasse_schmidt_basics():
    w = Rq.poly([0, 0, 1])
    assert hasse_schmidt(w, 0) == w
    assert hasse_schmidt(w, 1) == Rq.poly([0, 2])
    v = KT.frac(RtK.one(), lin_theta_minus_t())
    assert hasse_schmidt(v, 0) == v
    d = lin_theta_minus_t()
    assert hasse_schmidt(v, 1) == KT.frac(RtK.one(), d * d)
    assert hasse_schmidt(v, 2) == KT.frac(RtK.one(), d * d * d)


def test_hasse_schmidt_product_convolution():
    rng = random.Random(1)
    Ft = FracField(Rq)
    for _ in range(20):
        a = Ft.frac(Rq.poly([rng.randrange(3) for _ in range(3)] + [1]),
                    Rq.poly([rng.randrange(1, 3), 1]))
        b = Ft.frac(Rq.poly([rng.randrange(3) for _ in range(2)] + [1]),
                    Rq.poly([rng.randrange(1, 3), 0, 1]))
        for l in (1, 2, 3):
            conv = None
            for i in range(l + 1):
                term = hasse_schmidt(a, i) * hasse_schmidt(b, l - i)
                conv = term if conv is None else conv + term
            assert hasse_schmidt(a * b, l) == conv


def test_pairing_as_residue_sum():
    # <w, eta> computed from the remainder at infinity equals the residue
    # sum over the poles of w, and minus the sum over the roots of f
    from drinfeld_weil import make_field, residue_at_infinity, residue_at_point
    from drinfeld_weil.fields import embed
    from drinfeld_weil.polys import lift_poly
    F9 = make_field(3, 2)
    emb = embed(F3, F9)
    R9 = PolyRing(F9, "t")
    F9t = FracField(R9)
    f = R9.poly([emb(F3.one()), F9.zero(), emb(F3.one())])   # t^2 + 1
    w = F9t.frac(R9.one(), R9.poly([-emb(F3.one()), emb(F3.one())]))  # 1/(t-1)
    for i in range(2):
        dfi = lift_poly(dual_map(Rq.poly([1, 0, 1]), i), R9, emb)
        eta = F9t.frac(-dfi, f)
        rem = ev_remainder(w, f)
        rem_poly = R9.poly(list(rem.coeffs))
        lhs = residue_at_infinity(F9t.coerce(rem_poly) * eta)
        via_poles = (residue_at_infinity(w * eta)
                     + residue_at_point(w * eta, emb(F3.one())))
        assert lhs == via_poles
        roots = [x for x in F9.elements()
                 if (x * x + emb(F3.one())).is_zero()]
        assert len(roots) == 2
        minus_root_sum = F9.zero()
        for zeta in roots:
            minus_root_sum = minus_root_sum - residue_at_point(w * eta, zeta)
        assert lhs == minus_root_sum


def test_prime_power_jet_congruences():
    p = Rq.poly([1, 0, 1])
    for k in (1, 2, 3, 4):
        pk = p ** k
        for l in range(k):
            assert (hasse_schmidt(pk, l) % p).is_zero()
        assert poly_gcd(hasse_schmidt(pk, k), p).degree == 0


# ---------------------------------------------------------------------------
# generating functions

def test_agf_depth_zero():
    w = agf(carlitz(), "Z", 0)
    assert w.caps == {"Z": 0}
    assert w.coeff((("Z", 0),)) == KT.frac(RtK.one(), lin_theta_minus_t())


def test_agf_carlitz_depth_one():
    w = agf(carlitz(), "Z", 1)
    e1 = K.one() / (THETA ** 3 - THETA)
    den = RtK.poly([THETA ** 3, -(K.one())])
    assert w.coeff((("Z", 1),)) == KT.frac(RtK.constant(e1), den)


def test_agf_vanishing_term_when_g1_zero():
    M = DrinfeldModule(F3, K, THETA, [K.zero(), K.one()])
    w = agf(M, "Z", 1)
    assert (("Z", 1),) not in w.terms
    assert w.caps == {"Z": 1}  # the missing term is an exact zero


def test_twist_action():
    w = agf(carlitz(), "Z", 0)
    tw = w.frobenius(1)
    assert tw.coeff((("Z", 1),)) == KT.frac(RtK.one(),
                                            RtK.poly([THETA ** 3, -(K.one())]))
    assert tw.caps == {"Z": 1}
    w1 = agf(carlitz(), "Z", 1)
    tw1 = w1.frobenius(1)
    assert tw1.terms == (tw1 + tw1 - tw1).terms


def test_twist_commutes_with_remainder():
    f = Rq.poly([1, 0, 1])
    w = agf(carlitz(), "Z", 1)
    lhs = agf_remainder(w.frobenius(1), f)
    rhs = [s.frobenius(1) for s in agf_remainder(w, f)]
    for a, b in zip(lhs, rhs):
        assert a.mismatches(b) == []


def test_c_coeffs_depth_zero_formula():
    M = carlitz()
    f = Rq.poly([1, 0, 1])
    fth = theta_of(f)
    slots = agf_remainder(agf(M, "Z", 0), f)
    for i in range(2):
        dfi = theta_of(dual_map(f, i))
        assert slots[i].coeff((("Z", 0),)) == dfi / fth


def test_c_coeffs_carlitz_f_linear():
    M = carlitz()
    fx = Rq.gen()
    slots = agf_remainder(agf(M, "Z", 1), fx)
    c0 = slots[0]
    assert c0.coeff((("Z", 0),)) == K.one() / THETA
    assert c0.coeff((("Z", 1),)) == K.one() / ((THETA ** 3 - THETA) * THETA ** 3)
    lead = exp_qexp(M, K.one() / THETA, "Z", 1)
    assert c0.mismatches(lead) == []


def test_remainder_coefficient_theorem_truncated():
    # every Z^{q^k} coefficient of [agf]_f matches the exponential route
    for M in (carlitz(), rank2()):
        N = 2
        ec = exp_coeffs(M, N)
        for f in (Rq.gen(), Rq.poly([0, 0, 1]), Rq.poly([1, 0, 1])):
            fth = theta_of(f)
            slots = agf_remainder(agf(M, "Z", N, ec), f)
            for i in range(int(f.degree)):
                want = exp_qexp(M, theta_of(dual_map(f, i)) / fth, "Z", N)
                assert slots[i].mismatches(want) == []


def test_moore_series_shapes():
    M = carlitz()
    w1, w2 = agf(M, "Z1", 1), agf(M, "Z2", 1)
    assert moore_det([w1], M.q) is w1
    kappa = moore_det([w1, w2], M.q)
    # the twists' terms above the caps formed only terms above them
    manual = w1 * w2.frobenius(1) - w2 * w1.frobenius(1)
    assert kappa.caps == manual.caps
    assert kappa.terms == manual.prune(kappa.caps).terms
    assert not kappa.is_zero()
    assert moore_det([w1, w1], M.q).is_zero()


def test_qexpansion_guard_band():
    M = carlitz()
    a = exp_qexp(M, K.one() / THETA, "Z", 2)
    b = exp_qexp(M, K.one() / THETA, "Z", 3)
    # disagreement above the shared band is invisible
    assert a.mismatches(b) == []
    assert b.prune(a.caps).caps == {"Z": 2}
    assert list(band_monomials({"Z": 1})) == [(("Z", 0),), (("Z", 1),)]
    assert mono_str((("Z1", 0), ("Z2", 2))) == "Z1^q^0*Z2^q^2"


def test_mp_coeffs_examples():
    Rx = PolyRing(F3, "x")
    p = Rq.poly([1, 0, 1])
    E0 = mp_coeffs(p, 0)
    assert E0[0] == Rx.gen() and E0[1] == Rx.one()
    E1 = mp_coeffs(p, 1)
    assert E1[0] == Rx.poly([-1, 0, 1]) and E1[1] == Rx.poly([0, 2])
    for l in range(4):
        for Ei in mp_coeffs(p, l):
            assert Ei.is_zero() or Ei.degree < (l + 1) * 2


def test_mp_coeffs_match_the_quotient_operator():
    # E_i^(0)(x) is the t^i-coefficient of (p(t) - p(x)) / (t - x), which
    # weil_op2_quotient builds without the dual map
    for q in (2, 3, 5):
        F = make_field(q)
        Rt = PolyRing(F, "t")
        rng = random.Random(q)
        for _ in range(12):
            d = rng.randrange(1, 5)
            p = Rt.poly([rng.randrange(q) for _ in range(d)] + [1])
            got = {(j, i): c for i, Ei in enumerate(mp_coeffs(p, 0))
                   for j, c in enumerate(Ei.coeffs) if not c.is_zero()}
            assert got == weil_op2_quotient(p).terms


def test_derivative_congruence_truncated():
    # d_l(agf) mod p matches the exponential side termwise
    p = Rq.poly([1, 0, 1])
    N = 2
    for M in (carlitz(), rank2()):
        ec = exp_coeffs(M, N)
        p_theta = theta_of(p)
        for l in (0, 1):
            w = agf(M, "Z", N, ec=ec)
            slots = agf_remainder(hasse_schmidt(w, l), p, (p_theta ** (l + 1)).num)
            Es = mp_coeffs(p, l)
            for i in range(2):
                want = exp_qexp(M, theta_of(Es[i]) / p_theta ** (l + 1), "Z", N)
                assert slots[i].mismatches(want) == []


def test_agf_remainder_names_a_pole_off_den():
    # the first Hasse-Schmidt derivative has poles p(theta)^2 per symbol;
    # over the default pole p(theta) the numerators are not polynomials
    p = Rq.poly([1, 0, 1])
    w = hasse_schmidt(agf(rank2(), "Z", 1), 1)
    with pytest.raises(ValueError, match=r"^coefficient of Z\^q\^0 has a pole off den\(m\)$"):
        agf_remainder(w, p)
    slots = agf_remainder(w, p, (theta_of(p) ** 2).num)
    assert all(slot.poles == {"Z": (theta_of(p) ** 2).num} for slot in slots)


def test_qexpansion_numerators_refuse_mixed_poles_and_fraction_scalars():
    # den(m) is fixed by the monomial and the per-symbol pole, so two
    # poles for one symbol cannot share numerators, and a scalar must
    # be a polynomial in theta
    M = carlitz()
    a = exp_qexp(M, K.one() / THETA, "Z", 1)
    b = exp_qexp(M, K.one() / (THETA + 1), "Z", 1)
    with pytest.raises(ValueError, match="^q-expansions with different poles at Z$"):
        a + b
    with pytest.raises(ValueError, match="is not a polynomial$"):
        a * (K.one() / THETA)
    assert (a * THETA).coeff((("Z", 0),)) == K.one()
    assert (a * exp_qexp(M, THETA, "W", 1)).poles == {"Z": Rth.gen(), "W": Rth.one()}
