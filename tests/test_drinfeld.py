import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from drinfeld_weil import (DrinfeldModule, FracField, PolyRing, TwistedPoly,
                           embed, exp_coeffs, make_field, torsion_basis)
from drinfeld_weil.errors import BadCharacteristic, SplittingFieldTooLarge
from drinfeld_weil.fields import RelativeBasis
from drinfeld_weil.modules import (a_module_basis, characteristic_poly,
                                   kernel_in_field, splitting_degree)
from drinfeld_weil.polys import poly_gcd
from drinfeld_weil.pairing import moore_det

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F9 = make_field(3, 2)


def tw(field, q, coeffs):
    return TwistedPoly(field, q, [field.coerce(c) for c in coeffs])


def test_twisted_defining_relation():
    # tau * c = c^q tau
    t4 = TwistedPoly(F4, 2, [F4.zero(), F4.one()])
    c = TwistedPoly(F4, 2, [F4.gen()])
    assert t4 * c == TwistedPoly(F4, 2, [F4.zero(), F4.gen() ** 2])


def test_twisted_mul_examples():
    theta = F4.gen()
    tau = tw(F4, 2, [0, 1])
    a = tau + tw(F4, 2, [theta])
    assert a * tau == tw(F4, 2, [F4.zero(), theta]) + tw(F4, 2, [0, 0, 1])
    # over F_9 with q = 3: tau * y = y^3 tau = (2y) tau
    y = F9.gen()
    tau9 = TwistedPoly(F9, 3, [F9.zero(), F9.one()])
    prod = tau9 * TwistedPoly(F9, 3, [y])
    assert prod == TwistedPoly(F9, 3, [F9.zero(), y * 2])
    assert y ** 3 == y * 2


def test_twisted_degree_adds():
    theta = F4.gen()
    a = tw(F4, 2, [theta, 1])
    b = tw(F4, 2, [1, theta, 1])
    assert (a * b).degree == 3


def carlitz_f4():
    emb = embed(F2, F4)
    return DrinfeldModule(F2, F4, F4.gen(), [F4.one()], emb)


def test_phi_of_is_algebra_map():
    M = carlitz_f4()
    Rx = M.x_ring()
    x = Rx.gen()
    assert M.phi_of(x) == M.phi_x()
    assert M.phi_of(x * x) == M.phi_x() * M.phi_x()
    assert M.phi_of(x + 1) == M.phi_x() + TwistedPoly(F4, 2, [F4.one()])
    import random
    rng = random.Random(0)
    M2 = DrinfeldModule(F3, F3, F3.one(), [F3.elem(2), F3.one()])
    for mod in (M, M2):
        q = mod.q
        ring = mod.x_ring()
        for _ in range(100):
            a = ring.poly([rng.randrange(q) for _ in range(rng.randrange(1, 5))])
            b = ring.poly([rng.randrange(q) for _ in range(rng.randrange(1, 5))])
            assert mod.phi_of(a * b) == mod.phi_of(a) * mod.phi_of(b)
            assert mod.phi_of(a + b) == mod.phi_of(a) + mod.phi_of(b)


def test_phi_apply_carlitz():
    M = carlitz_f4()
    x = M.x_ring().gen()
    theta = F4.gen()
    for mu in F4.elements():
        assert M.phi_of(x).apply(mu) == theta * mu + mu * mu
        assert M.phi_of(M.x_ring().one()).apply(mu) == mu
        assert M.phi_of(M.x_ring().zero()).apply(mu) == F4.zero()


def test_torsion_carlitz_f4():
    M = carlitz_f4()
    x = M.x_ring().gen()
    tb = torsion_basis(M, x)
    assert tb.s == 1
    assert tb.points == [F4.gen()]
    assert sorted(str(p) for p in tb.all_points()) == ["0", "y"]
    assert tb.cardinality() == 2


def test_torsion_rank2_f4():
    emb = embed(F2, F4)
    M = DrinfeldModule(F2, F4, F4.gen(), [F4.one(), F4.one()], emb)
    x = M.x_ring().gen()
    tb = torsion_basis(M, x)
    assert len(tb.points) == 2
    assert tb.cardinality() == 4
    phi_x = tb.module_ext.phi_of(x)
    for pt in tb.all_points():
        assert phi_x.apply(pt).is_zero()


def test_torsion_cardinality_matches_rank():
    M = DrinfeldModule(F3, F3, F3.one(), [F3.one(), F3.one()])
    Rx = M.x_ring()
    for f in (Rx.gen(), Rx.gen() ** 2):
        tb = torsion_basis(M, f)
        assert tb.cardinality() == 3 ** (2 * int(f.degree))


def test_characteristic_poly_and_bad_characteristic():
    M = carlitz_f4()
    Rx = M.x_ring()
    assert characteristic_poly(M) == Rx.poly([1, 1, 1])
    with pytest.raises(BadCharacteristic):
        torsion_basis(M, Rx.poly([1, 1, 1]))


def test_splitting_cap_error():
    M = DrinfeldModule(F3, F3, F3.one(), [F3.one(), F3.one()])
    x = M.x_ring().gen()
    with pytest.raises(SplittingFieldTooLarge):
        torsion_basis(M, x, s_cap=1)


def test_exterior_examples():
    emb = embed(F2, F4)
    g2 = F4.gen()
    M2 = DrinfeldModule(F2, F4, F4.one() + g2, [F4.one(), g2], emb)
    psi = M2.exterior()
    assert psi.rank == 1 and psi.g[0] == -g2
    M1 = DrinfeldModule(F2, F4, g2, [g2], emb)
    assert M1.exterior().g[0] == g2
    M3 = DrinfeldModule(F2, F4, g2, [F4.one(), F4.one(), g2], emb)
    assert M3.exterior().g[0] == g2


def test_exterior_kills_moore_of_torsion():
    # rank 2 over a finite A-field: psi_x annihilates the 2x2 Moore
    # determinant of any pair of x-torsion points
    emb = embed(F2, F4)
    M = DrinfeldModule(F2, F4, F4.gen(), [F4.one(), F4.one()], emb)
    x = M.x_ring().gen()
    tb = torsion_basis(M, x)
    psi_x = tb.module_ext.exterior().phi_of(x)
    pts = list(tb.all_points())
    for a in pts:
        for b in pts:
            assert psi_x.apply(moore_det([a, b], 2)).is_zero()


def test_exp_coeffs_carlitz():
    Rth = PolyRing(F3, "theta")
    K = FracField(Rth)
    theta = K.gen()
    M = DrinfeldModule(F3, K, theta, [K.one()])
    ec = exp_coeffs(M, 5)
    assert ec.e[0] == K.one()
    assert ec.e[1] == K.one() / (theta ** 3 - theta)
    for i in range(1, 6):
        assert ec.recursion_residual(i).is_zero()


def test_exp_coeffs_rank2_vanishing():
    Rth = PolyRing(F3, "theta")
    K = FracField(Rth)
    theta = K.gen()
    M = DrinfeldModule(F3, K, theta, [K.zero(), K.one()])
    ec = exp_coeffs(M, 5)
    assert ec.e[1].is_zero()
    for i in range(1, 6):
        assert ec.recursion_residual(i).is_zero()


def test_exp_coeffs_random_rank2_consistency():
    import random
    rng = random.Random(9)
    Rth = PolyRing(F3, "theta")
    K = FracField(Rth)
    theta = K.gen()
    for _ in range(5):
        g1 = K.coerce(Rth.poly([rng.randrange(3) for _ in range(2)]))
        M = DrinfeldModule(F3, K, theta, [g1, K.one()])
        ec = exp_coeffs(M, 5)
        for i in range(1, 6):
            assert ec.recursion_residual(i).is_zero()


def test_a_module_basis_spans():
    from drinfeld_weil.linalg import rank as mat_rank
    from drinfeld_weil.weil_ops import dual_map
    M = DrinfeldModule(F2, F2, F2.one(), [F2.one(), F2.one()])
    Rx = M.x_ring()
    f = Rx.gen() ** 2
    tb = torsion_basis(M, f)
    basis = a_module_basis(tb)
    assert len(basis) == 2
    rows = []
    for mu in basis:
        for j in range(2):
            img = tb.module_ext.phi_of(dual_map(f, j)).apply(mu)
            rows.append(tb.rel.coords(img))
    assert mat_rank(rows, F2) == 4


def _elems(field):
    return st.lists(st.integers(0, field.p - 1), min_size=field.e,
                    max_size=field.e).map(field.elem)


def _twisted(field, q, max_deg):
    return st.lists(_elems(field), max_size=max_deg + 1).map(
        lambda cs: TwistedPoly(field, q, cs))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_twisted_remainder_is_right_division(data):
    field, q = data.draw(st.sampled_from([(F4, 2), (F9, 3), (F9, 9)]))
    d = data.draw(_twisted(field, q, 3))
    assume(not d.is_zero())
    quo = data.draw(_twisted(field, q, 3))
    r = data.draw(_twisted(field, q, max(d.degree - 1, -1)))
    assert (quo * d + r) % d == r
    a = data.draw(_twisted(field, q, 6))
    rem = a % d
    assert rem.is_zero() or rem.degree < d.degree
    assert ((a - rem) % d).is_zero()


def test_twisted_remainder_examples():
    tau = tw(F4, 2, [0, 1])
    y = F4.gen()
    # tau^2 = (tau + y^2)(tau + y) + y^3 in characteristic 2
    assert (tau * tau) % (tau + tw(F4, 2, [y])) == tw(F4, 2, [y ** 3])
    assert tau % tau == tw(F4, 2, [])
    with pytest.raises(ZeroDivisionError):
        tau % tw(F4, 2, [])


def _mod_oracle(a, d):
    """Right-division remainder of a by d, each divisor coefficient raised
    to q^k from scratch at step k: the oracle of TwistedPoly.__mod__,
    which raises the row before to the q-th power instead."""
    n = len(d.coeffs) - 1
    out = list(a.coeffs)
    while len(out) > n:
        k = len(out) - 1 - n
        qk = a.q ** k
        c = out[-1] / d.coeffs[-1] ** qk
        for j, dj in enumerate(d.coeffs[:-1]):
            if not dj.is_zero():
                out[k + j] = out[k + j] - c * dj ** qk
        out.pop()
        while out and out[-1].is_zero():
            out.pop()
    return TwistedPoly(a.field, a.q, out)


GF16, GF27, F5 = make_field(2, 4), make_field(3, 3), make_field(5)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_twisted_remainder_matches_oracle(data):
    field, q = data.draw(st.sampled_from([(GF16, 2), (GF16, 4), (GF27, 3), (F5, 5)]))
    d = data.draw(_twisted(field, q, 4))
    assume(not d.is_zero())
    a = data.draw(_twisted(field, q, 12))
    assert a % d == _mod_oracle(a, d)


def test_twisted_remainder_power_calls(monkeypatch):
    # K steps by a divisor of degree n: at most K (n + 1) field powers,
    # where raising each coefficient to q^k at step k takes K (n + 2)
    from drinfeld_weil.fields import FieldElem
    calls = []
    real = FieldElem.__pow__
    monkeypatch.setattr(FieldElem, "__pow__", lambda x, e: calls.append(e) or real(x, e))
    y = GF16.gen()
    n, deg = 3, 40
    d = TwistedPoly(GF16, 2, [y, y + 1, y * y, y])
    a = TwistedPoly(GF16, 2, [y + i for i in range(deg + 1)])
    rem = a % d
    steps = deg - n + 1
    assert 0 < len(calls) <= steps * (n + 1)
    monkeypatch.setattr(FieldElem, "__pow__", real)
    assert rem == _mod_oracle(a, d)


def _scan_splitting(M, f, s_cap):
    """The extension scan: least s whose field F_{q^{ms}} holds the full
    kernel of phi_f, found by building every field up to it."""
    base = M.base
    want = M.rank * int(f.degree)
    for s in range(1, s_cap + 1):
        big = base if s == 1 else make_field(base.p, base.e * s)
        emb_base = embed(base, big)
        comp = (lambda eb: (lambda c: eb(M.embed_scalars(c))))(emb_base)
        rel = RelativeBasis(big, M.q_field, comp)
        M_ext = DrinfeldModule(M.q_field, big, emb_base(M.theta),
                               [emb_base(gi) for gi in M.g], comp)
        points = kernel_in_field(M_ext, f, rel)
        if len(points) == want:
            return s, points
    return None, None


@st.composite
def _finite_modules(draw):
    q = draw(st.sampled_from([2, 3]))
    m = draw(st.sampled_from([1, 2]))
    qf = make_field(q)
    base = qf if m == 1 else make_field(q, m)
    emb = embed(qf, base)
    theta = draw(_elems(base))
    g = draw(st.lists(_elems(base), min_size=1, max_size=3))
    assume(not g[-1].is_zero())
    M = DrinfeldModule(qf, base, theta, g, emb)
    n = draw(st.integers(1, 2))
    f = M.x_ring().poly(draw(st.lists(st.integers(0, q - 1), min_size=n,
                                      max_size=n)) + [1])
    assume(poly_gcd(f, characteristic_poly(M)).degree == 0)
    return M, f


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_finite_modules())
def test_splitting_degree_matches_extension_scan(mf):
    M, f = mf
    s_cap = 8 // (M.base.e // M.q_field.e)
    s, points = _scan_splitting(M, f, s_cap)
    if s is None:
        with pytest.raises(SplittingFieldTooLarge):
            splitting_degree(M, f, s_cap)
        with pytest.raises(SplittingFieldTooLarge):
            torsion_basis(M, f, s_cap=s_cap)
        return
    assert splitting_degree(M, f, s_cap) == s
    tb = torsion_basis(M, f, s_cap=s_cap)
    assert (tb.s, tb.points) == (s, points)


def test_splitting_degree_of_constant_f():
    # phi_1 = 1 has the zero kernel, already inside the base field
    M = DrinfeldModule(F3, F3, F3.one(), [F3.one(), F3.one()])
    one = M.x_ring().one()
    assert splitting_degree(M, one, 1) == 1
    tb = torsion_basis(M, one)
    assert (tb.s, tb.points) == (1, [])


@pytest.mark.parametrize("m,theta,g,f", [
    (1, [0, 1], [[1]], [0, 1]),
    (1, [1], [[0, 1], [1]], [0, 1]),
    (1, [1, 1], [[0, 1], [1]], [0, 0, 1]),
    (2, [0, 1], [[1], [0, 1]], [0, 1]),
    (2, [0, 0, 1], [[1]], [1, 1]),
    (2, [0, 1], [[1]], [0, 1]),
])
def test_splitting_degree_over_f4_coefficients(m, theta, g, f):
    # q = 4 is not prime, so m = [K : F_q] differs from the degree of K over F_p
    base = F4 if m == 1 else make_field(2, 4)
    emb = embed(F4, base)
    M = DrinfeldModule(F4, base, base.elem(theta), [base.elem(c) for c in g], emb)
    fx = M.x_ring().poly([F4.elem(c) if isinstance(c, list) else c for c in f])
    s, points = _scan_splitting(M, fx, 6)
    assert s is not None
    assert splitting_degree(M, fx, 6) == s
    assert torsion_basis(M, fx, s_cap=6).points == points
