import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from drinfeld_weil import (FracField, PolyRing, inv_mod, is_irreducible_poly,
                           laurent_at_infinity, make_field, poly_gcd,
                           residue_at_infinity, residue_at_point)
from drinfeld_weil.errors import NotInvertibleModF
from drinfeld_weil.fields import _pmul
from drinfeld_weil.polys import NEG_INF, RatFunc
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
    assert residue_at_infinity(Ft.frac(R.one(), R.gen())) == F3.elem(-1)
    # the dual-basis normalization: Res_inf(-t/(t^2+1) dt) = 1
    g = Ft.frac(R.poly([0, -1]), R.poly([1, 0, 1]))
    assert residue_at_infinity(g) == F3.one()
    assert residue_at_infinity(Ft.frac(R.one(), R.one())).is_zero()


def test_residue_at_point_examples():
    g = Ft.frac(R.one(), R.poly([-1, 1]))
    assert residue_at_point(g, F3.one()) == F3.one()
    g2 = Ft.frac(R.one(), R.poly([0, 0, 1]))
    assert residue_at_point(g2, F3.zero()).is_zero()
    assert residue_at_point(g, F3.elem(2)).is_zero()


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
        res = residue_at_point(w, theta)
        dfi_at_theta = K.coerce(lift_poly(dual_map(f, i), Rth)(Rth.gen()))
        assert res == dfi_at_theta / f_at_theta


def test_rational_function_canonical_form():
    a = Ft.frac(R.poly([0, 2]), R.poly([0, 0, 2]))  # 2t / 2t^2 = 1/t
    assert a == Ft.frac(R.one(), R.gen())
    assert a.den.is_monic()
    assert poly_gcd(a.num, a.den).degree == 0
    # a constant denominator needs no gcd, only the monic scaling
    assert Ft.frac(R.poly([1, 2]), R.poly([2])) == Ft.frac(R.poly([2, 1]))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]), st.integers(0, 2), st.data())
def test_spread_is_the_frobenius_and_quo_var_power_the_quotient(pe, k, data):
    # over F_q, n(t)^(q^k) = n(t^(q^k)); dropping the k lowest
    # coefficients is the quotient by t^k
    F = make_field(*pe)
    ring = PolyRing(F, "t")
    coeffs = st.lists(st.lists(st.integers(0, F.p - 1), min_size=F.e, max_size=F.e),
                      max_size=6)
    a = ring.poly([F.elem(c) for c in data.draw(coeffs)])
    assert a.spread(F.order ** k) == a ** (F.order ** k)
    assert a.quo_var_power(k) == a // ring.gen() ** k


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


# ---------------------------------------------------------------------------
# UniPoly over F_p holds ints and runs on the fields kernel.  The oracle is
# schoolbook arithmetic on lists of field elements, constant term first.

_PRIMES = (2, 3, 5, 7, 59023)
_PRIME_RINGS = {p: PolyRing(make_field(p), "t") for p in _PRIMES}


def _o_trim(a):
    a = list(a)
    while a and a[-1].is_zero():
        a.pop()
    return a


def _o_add(a, b):
    n = max(len(a), len(b))
    zero = (a or b)[0].field.zero() if (a or b) else None
    a = a + [zero] * (n - len(a))
    b = b + [zero] * (n - len(b))
    return _o_trim([x + y for x, y in zip(a, b)])


def _o_neg(a):
    return [-x for x in a]


def _o_mul(a, b):
    if not a or not b:
        return []
    out = [a[0].field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _o_trim(out)


def _o_divmod(a, b):
    inv = b[-1].inverse()
    quot = [b[0].field.zero()] * max(len(a) - len(b) + 1, 0)
    rem = list(a)
    while len(rem) >= len(b):
        c = rem[-1] * inv
        shift = len(rem) - len(b)
        quot[shift] = c
        for j, y in enumerate(b):
            rem[shift + j] = rem[shift + j] - c * y
        rem = _o_trim(rem)
    return _o_trim(quot), rem


def _o_monic(a):
    if not a:
        return a
    inv = a[-1].inverse()
    return [x * inv for x in a]


def _o_gcd(a, b):
    while b:
        a, b = b, _o_divmod(a, b)[1]
    return _o_monic(a)


@st.composite
def _prime_poly_pair(draw):
    # lengths 0 to 24: zero, constants and long products alike
    p = draw(st.sampled_from(_PRIMES))
    digits = st.lists(st.integers(0, p - 1), min_size=0, max_size=24)
    return _PRIME_RINGS[p], draw(digits), draw(digits)


def _elems(ring, ints):
    return _o_trim([ring.field.elem(c) for c in ints])


@settings(max_examples=150, deadline=None)
@given(_prime_poly_pair())
def test_int_unipoly_matches_element_schoolbook(case):
    ring, ac, bc = case
    a, b = ring.poly(ac), ring.poly(bc)
    ea, eb = _elems(ring, ac), _elems(ring, bc)
    assert list(a.coeffs) == ea
    assert list((a + b).coeffs) == _o_add(ea, eb)
    assert list((a - b).coeffs) == _o_add(ea, _o_neg(eb))
    assert list((-a).coeffs) == _o_neg(ea)
    assert list((a * b).coeffs) == _o_mul(ea, eb)
    assert list(a.monic().coeffs) == _o_monic(ea)
    scalar = ring.field.elem(bc[0] if bc else 0)
    assert list((a * scalar).coeffs) == _o_trim([x * scalar for x in ea])
    if eb:
        quot, rem = divmod(a, b)
        want_q, want_r = _o_divmod(ea, eb)
        assert (list(quot.coeffs), list(rem.coeffs)) == (want_q, want_r)
        assert list((a % b).coeffs) == want_r
        assert list(poly_gcd(a, b).coeffs) == _o_gcd(ea, eb)
        if len(eb) > 1 and len(_o_gcd(ea, eb)) == 1 and ea:
            # the inverse of a mod b, checked by the oracle's product
            g = list(inv_mod(a, b).coeffs)
            assert len(g) < len(eb)
            assert _o_divmod(_o_mul(g, ea), eb)[1] == [ring.field.one()]


@settings(max_examples=100, deadline=None)
@given(_prime_poly_pair())
def test_int_unipoly_eq_hash_str_match_the_built_poly(case):
    # a result of arithmetic and ring.poly of the same list are one value
    ring, ac, bc = case
    a, b = ring.poly(ac), ring.poly(bc)
    for got, want in ((a * b, _o_mul(_elems(ring, ac), _elems(ring, bc))),
                      (a + b, _o_add(_elems(ring, ac), _elems(ring, bc))),
                      (-a, _o_neg(_elems(ring, ac)))):
        built = ring.poly(want)
        assert got == built and hash(got) == hash(built)
        assert str(got) == str(built)
        assert got.degree == built.degree and got.is_zero() == built.is_zero()
        assert got.is_monic() == built.is_monic()
        assert got.leading() == built.leading()


def test_coeffs_view_is_cached():
    P = R.poly([1, 0, 2, 1])
    view = P.coeffs
    assert P.coeffs is view
    assert all(P.coeff(k) is view[k] for k in range(4))
    assert P.coeff(7) == F3.zero()


def test_polys_and_fractions_equal_only_their_own_type():
    # equality does not coerce, so it agrees with hash
    K = FracField(R)
    for x, y in ((R.one(), 1), (K.one(), R.one()), (R.one(), F3.one()),
                 (K.one(), 1), (K.one(), F3.one()), (R.zero(), 0)):
        assert x != y and y != x
        assert len({x, y}) == 2
    assert R.poly([2, 1]) == R.poly([2, 1]) and K.gen() == K.frac([0, 1])


_FRAC_FIELDS = [FracField(PolyRing(make_field(*pe), "theta")) for pe in ((2, 1), (3, 1), (59023, 1), (2, 2))]


@st.composite
def _fraction_pair(draw):
    # fractions with common factors between the denominators and across
    # the two fractions, so that every gcd of the sum and product is hit
    K = draw(st.sampled_from(_FRAC_FIELDS))
    F = K.ring.field
    digits = st.lists(st.integers(0, F.order - 1), min_size=0, max_size=4)

    def poly():
        return K.ring.poly([F.elem([(c // F.p ** i) % F.p for i in range(F.e)])
                            for c in draw(digits)])

    shared = poly()
    fracs = []
    for _ in range(2):
        num, den = poly() * shared, poly() * shared
        assume(not den.is_zero())
        fracs.append(K.frac(num, den))
    return K, fracs[0], fracs[1]


@settings(max_examples=150, deadline=None)
@given(_fraction_pair())
def test_ratfunc_sum_and_product_match_reduce_after(case):
    # the oracle reduces num/den by one gcd after the plain formula
    K, x, y = case
    assert x + y == RatFunc(K, x.num * y.den + y.num * x.den, x.den * y.den)
    assert x - y == RatFunc(K, x.num * y.den - y.num * x.den, x.den * y.den)
    assert x * y == RatFunc(K, x.num * y.num, x.den * y.den)
    for z in (x + y, x * y):
        assert z.den.is_monic() and poly_gcd(z.num, z.den).degree == 0


_SCALAR_RINGS = [PolyRing(make_field(*pe), "t") for pe in ((2, 1), (3, 1), (59023, 1),
                                                            (2, 2), (3, 2))]


@st.composite
def _constant_times_poly(draw):
    # one factor of length 0 or 1, often the constant 1, on either side
    ring = draw(st.sampled_from(_SCALAR_RINGS))
    F = ring.field
    elem = st.one_of(st.just(F.one()),
                     st.lists(st.integers(0, F.p - 1), min_size=F.e, max_size=F.e).map(F.elem))
    short = draw(st.lists(elem, min_size=0, max_size=1))
    other = draw(st.lists(elem, min_size=0, max_size=6))
    return (ring, short, other) if draw(st.booleans()) else (ring, other, short)


@settings(max_examples=200, deadline=None)
@given(_constant_times_poly())
def test_products_by_constants_match_the_convolution(case):
    ring, ac, bc = case
    a, b = ring.poly(ac), ring.poly(bc)
    want = ring.poly(_pmul(ac, bc))
    got = a * b
    assert got == want and hash(got) == hash(want) and str(got) == str(want)
    for x in ac[:1]:
        # a field element and its int digit act as the constant polynomial
        assert b * x == x * b == ring.poly(_pmul([x], bc))
        if ring.p is not None:
            assert b * x.v == x.v * b == ring.poly(_pmul([x], bc))
    if ring.p is not None and b.degree >= 1:
        # over F_p a product by the polynomial 1 is the other operand
        one = ring.one()
        assert one * b is b and b * one is b
