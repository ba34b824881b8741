import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from drinfeld_weil import (Differential, FracField, PolyRing, inv_mod,
                           is_irreducible_poly, laurent_at_infinity, make_field,
                           poly_gcd, residue_at_infinity, residue_at_point)
from drinfeld_weil.errors import NotInvertibleModF
from drinfeld_weil.polys import NEG_INF
from drinfeld_weil.weil_ops import dual_map

F3 = make_field(3)
R = PolyRing(F3, "t")
Ft = FracField(R)


def test_zero_polynomial_degree_sentinel():
    z = R.zero()
    assert z.degree == NEG_INF
    assert z.degree < 0
    assert (R.one() * z).is_zero()


def test_trim_and_equality():
    assert R.poly([1, 2, 0, 0]) == R.poly([1, 2])
    assert R.poly([0]) == R.zero()


def test_inv_mod_examples():
    f = R.poly([1, 0, 1])
    # t * 2t = 2t^2 = 2(t^2+1) - 2 = 1 mod f
    assert inv_mod(R.gen(), f) == R.poly([0, 2])
    assert inv_mod(R.one(), f) == R.one()
    with pytest.raises(NotInvertibleModF):
        inv_mod(R.gen(), R.poly([0, 0, 1]))


@given(st.lists(st.integers(0, 2), min_size=1, max_size=6),
       st.lists(st.integers(0, 2), min_size=1, max_size=6))
def test_divmod_roundtrip(ac, bc):
    a = R.poly(ac)
    b = R.poly(bc)
    if b.is_zero():
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


@settings(max_examples=60)
@given(st.sampled_from([(2, 1), (5, 1), (59023, 1), (2, 2), (3, 2)]), st.data())
def test_mod_is_the_divmod_remainder(pe, data):
    # F_p takes the int-list division, F_{p^e} the element path
    F = make_field(*pe)
    ring = PolyRing(F, "t")
    coeffs = st.lists(st.lists(st.integers(0, F.p - 1), min_size=F.e, max_size=F.e),
                      min_size=0, max_size=6)
    a = ring.poly([F.elem(c) for c in data.draw(coeffs)])
    b = ring.poly([F.elem(c) for c in data.draw(coeffs)])
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a % b
        with pytest.raises(ZeroDivisionError):
            divmod(a, b)
        return
    q, r = divmod(a, b)
    assert a % b == r and q * b + r == a


@settings(max_examples=60)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=5),
       st.lists(st.integers(0, 2), min_size=1, max_size=5))
def test_inv_mod_property(hc, fc):
    h = R.poly(hc)
    f = R.poly(fc + [1])
    if h.is_zero() or poly_gcd(h, f).degree != 0:
        return
    g = inv_mod(h, f)
    assert (g * h) % f == R.one()
    assert g.is_zero() or g.degree < f.degree


def test_laurent_examples():
    exp = laurent_at_infinity(Ft.frac(R.one(), R.gen()), 3)
    assert exp.lead_exp == 1 and exp.coeffs[0] == F3.one()

    exp2 = laurent_at_infinity(Ft.frac(R.poly([1, 1]), R.gen()), 3)
    assert exp2.lead_exp == 0
    assert exp2.coeffs[0] == F3.one() and exp2.coeffs[1] == F3.one()
    assert exp2.coeffs[2].is_zero()


def test_laurent_geometric_series_with_constant_pole():
    # 1/(c - t) = -u - c u^2 - c^2 u^3 - ...
    c = F3.elem(2)
    exp = laurent_at_infinity(Ft.frac(R.one(), R.poly([c, F3.elem(-1)])), 4)
    assert exp.lead_exp == 1
    want = [-F3.one(), -c, -(c * c), -(c * c * c)]
    assert list(exp.coeffs) == want


def test_laurent_product_property():
    rng = random.Random(5)
    for _ in range(40):
        def rand_rat():
            num = R.poly([rng.randrange(3) for _ in range(rng.randrange(1, 5))])
            den = R.poly([rng.randrange(3) for _ in range(rng.randrange(1, 4))] + [1])
            return Ft.frac(num, den)
        r1, r2 = rand_rat(), rand_rat()
        if r1.is_zero() or r2.is_zero():
            continue
        prec = 6
        e1 = laurent_at_infinity(r1, prec)
        e2 = laurent_at_infinity(r2, prec)
        e12 = laurent_at_infinity(r1 * r2, prec)
        assert e12.lead_exp == e1.lead_exp + e2.lead_exp
        for k in range(prec):
            conv = F3.zero()
            for i in range(k + 1):
                if i < len(e1.coeffs) and k - i < len(e2.coeffs):
                    conv = conv + e1.coeffs[i] * e2.coeffs[k - i]
            assert e12.coeffs[k] == conv


def test_residue_at_infinity_examples():
    assert residue_at_infinity(Differential(Ft.frac(R.one(), R.gen()))) == F3.elem(-1)
    # the dual-basis normalization: Res_inf(-t/(t^2+1) dt) = 1
    g = Ft.frac(R.poly([0, -1]), R.poly([1, 0, 1]))
    assert residue_at_infinity(Differential(g)) == F3.one()
    assert residue_at_infinity(Differential(Ft.frac(R.one(), R.one()))).is_zero()


def test_residue_at_point_examples():
    g = Ft.frac(R.one(), R.poly([-1, 1]))
    assert residue_at_point(Differential(g), F3.one()) == F3.one()
    g2 = Ft.frac(R.one(), R.poly([0, 0, 1]))
    assert residue_at_point(Differential(g2), F3.zero()).is_zero()
    assert residue_at_point(Differential(g), F3.elem(2)).is_zero()


def test_residue_at_theta_pole_matches_dual_map_formula():
    # over K = F_3(theta): Res_theta of D_f(t^i)/((t-theta) f(t)) dt
    Rth = PolyRing(F3, "theta")
    K = FracField(Rth)
    theta = K.gen()
    RtK = PolyRing(K, "t")
    KT = FracField(RtK)
    from drinfeld_weil.polys import lift_poly
    f = R.poly([1, 0, 1])
    fK = lift_poly(f, RtK)
    f_at_theta = K.coerce(lift_poly(f, Rth)(Rth.gen()))
    for i in range(2):
        dfi = lift_poly(dual_map(f, i), RtK)
        w = KT.frac(dfi, RtK.poly([-theta, K.one()]) * fK)
        res = residue_at_point(Differential(w), theta)
        dfi_at_theta = K.coerce(lift_poly(dual_map(f, i), Rth)(Rth.gen()))
        assert res == dfi_at_theta / f_at_theta


def test_rational_function_canonical_form():
    a = Ft.frac(R.poly([0, 2]), R.poly([0, 0, 2]))  # 2t / 2t^2 = 1/t
    assert a == Ft.frac(R.one(), R.gen())
    assert a.den.is_monic()
    assert poly_gcd(a.num, a.den).degree == 0


def test_is_irreducible_poly():
    assert is_irreducible_poly(R.poly([1, 0, 1]))        # t^2 + 1 over F_3
    assert not is_irreducible_poly(R.poly([2, 0, 1]))    # t^2 - 1 = (t-1)(t+1)
    assert is_irreducible_poly(R.poly([1, 2, 0, 1]))     # no roots in F_3
    assert not is_irreducible_poly(R.poly([0, 0, 1]))


def test_is_irreducible_poly_constants():
    for c in ([], [1], [2]):
        assert not is_irreducible_poly(R.poly(c))


def _rabin_poly_oracle(f):
    """Rabin's test over F_q, the generic irreducibility test before
    Ben-Or's: t^(q^d) = t mod f, and t^(q^(d/l)) - t prime to f for
    every prime l | d."""
    from drinfeld_weil.polys import poly_powmod
    q, d = f.ring.field.order, f.degree
    if d is NEG_INF or d <= 0:
        return False
    d = int(d)
    if d == 1:
        return True
    t = f.ring.gen() % f
    powers, b = {}, t
    for k in range(1, d + 1):
        b = poly_powmod(b, q, f)
        powers[k] = b
    if powers[d] != t:
        return False
    return all(poly_gcd(powers[d // ell] - t, f).degree == 0
               for ell in range(2, d + 1)
               if d % ell == 0 and all(ell % k for k in range(2, ell)))


_EXT_RINGS = [PolyRing(make_field(p, e), "t") for p, e in ((2, 2), (2, 3), (3, 2), (5, 2))]


@st.composite
def _ext_polys(draw):
    # a random polynomial of degree 1-6 with a nonzero, often non-monic,
    # leading coefficient, or a product of two
    ring = draw(st.sampled_from(_EXT_RINGS))
    field = ring.field

    def poly(lo, hi):
        d = draw(st.integers(lo, hi))
        digits = st.lists(st.integers(0, field.p - 1), min_size=field.e, max_size=field.e)
        coeffs = [field.elem(draw(digits)) for _ in range(d + 1)]
        assume(not coeffs[-1].is_zero())
        return ring.poly(coeffs)

    return poly(1, 6) if draw(st.booleans()) else poly(1, 3) * poly(1, 3)


@settings(max_examples=120, deadline=None)
@given(_ext_polys())
def test_is_irreducible_poly_matches_rabin_oracle(f):
    assert is_irreducible_poly(f) == _rabin_poly_oracle(f), f
