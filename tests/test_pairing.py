import functools
import hashlib
import itertools
import json
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from drinfeld_weil import (DrinfeldModule, FracField, MPoly, MPolyRing,
                           PolyRing, agf, agf_mod, agf_remainder, ev_remainder,
                           diamond_moore, embed, exp_coeffs, exp_numerators,
                           exp_qexp,
                           main_theorem_check, make_field, moore_det,
                           torsion_basis, weil_pairing)
from drinfeld_weil.errors import NotTorsion, PoleOnModulus
from drinfeld_weil.tate import QExpansion, RemainderPoly, TruncAGF, mono_in_band
from drinfeld_weil.weil_ops import weil_op_r

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)


def rank2_f4():
    emb = embed(F2, F4)
    return DrinfeldModule(F2, F4, F4.gen(), [F4.one(), F4.one()], emb)


def test_moore_det_rank2_formula():
    w = F4.gen()
    for a in F4.elements():
        for b in F4.elements():
            assert moore_det([a, b], 2) == a * b ** 2 - b * a ** 2
    assert moore_det([w, w], 2).is_zero()
    assert moore_det([w], 2) == w


def test_diamond_examples():
    M = rank2_f4()
    x = M.x_ring().gen()
    tb = torsion_basis(M, x)
    Mx = tb.module_ext
    pts = list(tb.all_points())
    a, b = pts[1], pts[2]
    ring = MPolyRing(F2, ("X1", "X2"))
    one = ring.one()
    assert diamond_moore(one, Mx, [a, b]) == moore_det([a, b], 2)
    x1x2 = MPoly(ring, {(1, 1): F2.one()})
    phi_x = Mx.phi_of(x)
    assert diamond_moore(x1x2, Mx, [a, b]) == moore_det(
        [phi_x.apply(a), phi_x.apply(b)], 2)
    ring_t = MPolyRing(F2, ("X1", "X2", "t"))
    tx1 = MPoly(ring_t, {(1, 0, 1): F2.one()})
    out = diamond_moore(tx1, Mx, [a, b])
    assert out[0].is_zero()
    assert out[1] == moore_det([phi_x.apply(a), b], 2)


def test_diamond_rank_mismatch():
    M = rank2_f4()
    ring = MPolyRing(F2, ("X1", "X2"))
    with pytest.raises(ValueError):
        diamond_moore(ring.one(), M, [F4.one()])


def test_weil_pairing_f_linear_is_moore():
    M = rank2_f4()
    x = M.x_ring().gen()
    tb = torsion_basis(M, x)
    Mx = tb.module_ext
    psi_x = Mx.exterior().phi_of(x)
    pts = list(tb.all_points())
    for a in pts:
        for b in pts:
            W = weil_pairing(Mx, x, [a, b])
            assert W == moore_det([a, b], 2)
            assert psi_x.apply(W).is_zero()
    for a in pts:
        assert weil_pairing(Mx, x, [a, a]).is_zero()


def test_weil_pairing_rejects_non_torsion():
    M = rank2_f4()
    x = M.x_ring().gen()
    tb = torsion_basis(M, x)
    Mx = tb.module_ext
    bad = tb.field_ext.gen()
    if Mx.phi_of(x).apply(bad).is_zero():
        bad = bad + tb.field_ext.one()
    with pytest.raises(NotTorsion):
        weil_pairing(Mx, x, [bad, tb.points[0]])


def test_weil_pairing_matches_tree_representative():
    # replacing the operator by any spanning-tree product does not
    # change pairing values
    from drinfeld_weil.weil_ops import tree_product
    M = DrinfeldModule(F2, F2, F2.one(), [F2.one(), F2.one(), F2.one()])
    Rx = M.x_ring()
    f = Rx.gen()
    tb = torsion_basis(M, f)
    Mx = tb.module_ext
    pts = [p for p in tb.all_points()]
    P_star = tree_product(f, 3, [(1, 3), (2, 3)])
    P_path = tree_product(f, 3, [(1, 2), (2, 3)])
    for a in pts[:4]:
        for b in pts[:4]:
            for c in pts[:4]:
                v1 = diamond_moore(P_star, Mx, [a, b, c])
                v2 = diamond_moore(P_path, Mx, [a, b, c])
                assert v1 == v2


def test_main_theorem_rank2_f_linear():
    Rth = PolyRing(F3, "theta")
    K = FracField(Rth)
    theta = K.gen()
    M = DrinfeldModule(F3, K, theta, [K.one(), K.one()])
    Rx = PolyRing(F3, "x")
    rep = main_theorem_check(M, Rx.gen(), 2, 1)
    assert rep["failures"] == []
    assert rep["monomials_checked"] > 0


def test_main_theorem_rank2_quadratic():
    Rth = PolyRing(F3, "theta")
    K = FracField(Rth)
    theta = K.gen()
    M = DrinfeldModule(F3, K, theta, [theta, K.one()])
    Rx = PolyRing(F3, "x")
    rep = main_theorem_check(M, Rx.poly([1, 0, 1]), 2, 2)
    assert rep["failures"] == []


def test_main_theorem_builds_each_orbit_once(monkeypatch):
    # the t-slots and the pairing part share one orbit c, phi_x c, ...,
    # phi_x^(n-1) c per argument: r * (deg f - 1) phi_x steps in all
    import drinfeld_weil.pairing as pairing_mod
    calls = []
    real = pairing_mod._phi_x_step

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pairing_mod, "_phi_x_step", counting)
    Rth = PolyRing(F3, "theta")
    K = FracField(Rth)
    theta = K.gen()
    M = DrinfeldModule(F3, K, theta, [theta, K.one()])
    f = PolyRing(F3, "x").poly([1, 0, 1])
    rep = main_theorem_check(M, f, 2, 2)
    assert rep["failures"] == []
    assert len(calls) == 2 * (2 - 1)


@pytest.mark.parametrize("gs, N, expected", [
    (((0, 1), (1,)), 2, 10),       # rank 2, g = (theta, 1)
    (((1,), (), (1,)), 1, 27),     # rank 3, g = (1, 0, 1)
])
def test_main_theorem_twists_each_orbit_point_once(monkeypatch, gs, N, expected):
    # f = x^2 + 1 over F_3(theta), r = rank, n = 2: each of the r
    # arguments has n rows of r - 1 twists and n - 1 phi_x steps, each
    # twisting once past its row; the Moore determinant of the r
    # remainders twists n slots r - 1 times each
    from drinfeld_weil.tate import _SymSeries
    M = _bridge_module(3, gs)
    r, n = M.rank, 2
    assert r * (n * (r - 1) + n - 1) + r * (r - 1) * n == expected
    calls = []
    real = _SymSeries.frobenius

    def counting(self, k):
        calls.append(k)
        return real(self, k)

    monkeypatch.setattr(_SymSeries, "frobenius", counting)
    rep = main_theorem_check(M, PolyRing(M.q_field, "x").poly([1, 0, 1]), r, N)
    monkeypatch.undo()
    assert rep["failures"] == []
    assert len(calls) == expected


def phi_apply_qexp_oracle(M, qe):
    """phi_x on a q-expansion as sum_i qe.frobenius(i) * c_i over the
    coefficients c_i of phi_x, pruned to qe's guard band."""
    acc = None
    for i, c in enumerate((M.theta,) + M.g):
        if not c.is_zero():
            term = qe.frobenius(i) * c
            acc = term if acc is None else acc + term
    return acc.prune(qe.caps)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("gs", [((1,),), ((0, 1), (1,)), ((1,), (), (1,)),
                                ((1, 1), (0, 1), (1,))])
def test_phi_x_step_on_qexpansions_matches_oracle(q, gs):
    from drinfeld_weil.pairing import _orbit_rows, _phi_x_step, _twists
    M = _bridge_module(q, gs)
    K = M.base
    E = exp_numerators(M, 2)
    fx = PolyRing(M.q_field, "x").poly([1, 0, 1])
    seeds = [exp_qexp(M, K.gen() + K.one(), "Z", 2, E),
             agf_mod(M, fx, "Z1", 2, E).coeffs[0],
             moore_det([agf_mod(M, fx, s, 1, E).coeffs[1] for s in ("Z1", "Z2")], q)]
    for qe in seeds:
        for width in range(1, M.rank + 2):
            got = _phi_x_step(M, _twists(qe, q, width))
            want = phi_apply_qexp_oracle(M, qe)
            assert (got.terms, got.caps) == (want.terms, want.caps)
        rows = _orbit_rows(M, qe, 2, M.rank)
        v = qe
        for row in rows:
            assert [(w.terms, w.caps) for w in row] == \
                [(w.terms, w.caps) for w in _twists(v, q, M.rank)]
            v = phi_apply_qexp_oracle(M, v)


ORBIT_MODULES = [(2, 4, (1, 1)), (2, 4, (1, 0, 1)), (3, 3, (1, 0, 1)),
                 (3, 2, (2, 1)), (5, 2, (1, 0, 1)), (5, 2, (3,))]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORBIT_MODULES), st.integers(1, 4), st.integers(1, 4),
       st.data())
def test_orbit_rows_match_iterated_phi_x(case, count, width, data):
    # field elements: row k is the twists of phi_x^k mu, one step past
    # the last row gives phi_x^count mu, as iterated TwistedPoly.apply
    from drinfeld_weil.pairing import _orbit_rows, _phi_x_step
    q, m, g = case
    qf = make_field(q)
    base = make_field(q, m)
    emb = embed(qf, base)
    M = DrinfeldModule(qf, base, base.gen(), [emb(qf.elem(c)) for c in g], emb)
    mu = base.elem(data.draw(st.lists(st.integers(0, base.p - 1),
                                      min_size=m, max_size=m)))
    rows = _orbit_rows(M, mu, count, width)
    assert len(rows) == count
    v = mu
    for row in rows:
        assert row == [v ** (q ** j) for j in range(width)]
        v = M.phi_x().apply(v)
    assert _phi_x_step(M, rows[-1]) == v


def test_operator_top_slot_matches_lower_rank():
    # main_theorem_check reads its part-2 pairing off this slot
    for q, r in itertools.product((2, 3), range(1, 5)):
        Rx = PolyRing(make_field(q), "x")
        for coeffs in ([0, 1], [1, 1], [0, 0, 1], [1, 0, 1], [q - 1, 1, 1],
                       [1, 1, 0, 1], [0, q - 1, 1, 1]):
            f = Rx.poly(coeffs)
            n = int(f.degree)
            ot = weil_op_r(f, r + 1)
            o_r = weil_op_r(f, r).inject(ot.ring, tuple(range(r)))
            assert ot.coeff_in_var(r, n - 1) == o_r


def test_a_linearity_at_composite_modulus():
    # Weil(phi_a mu, nu) = psi_a Weil(mu, nu) for f = x^2, where the
    # A-action genuinely differs from scalar multiplication
    M = DrinfeldModule(F2, F2, F2.one(), [F2.one(), F2.one()])
    x = M.x_ring().gen()
    f = x * x
    tb = torsion_basis(M, f)
    Mx = tb.module_ext
    psi = Mx.exterior()
    pts = list(tb.all_points())
    assert len(pts) == 16
    for a_poly in (x, x + 1):
        phi_a = Mx.phi_of(a_poly)
        psi_a = psi.phi_of(a_poly)
        for mu in pts[:8]:
            for nu in pts[:8]:
                lhs = weil_pairing(Mx, f, [phi_a.apply(mu), nu])
                assert lhs == psi_a.apply(weil_pairing(Mx, f, [mu, nu]))


def test_main_theorem_nonconstant_top_coefficient():
    # g_r need not be a unit constant: g = (theta^2, theta)
    Rth = PolyRing(F3, "theta")
    K = FracField(Rth)
    theta = K.gen()
    M = DrinfeldModule(F3, K, theta, [theta * theta, theta])
    Rx = PolyRing(F3, "x")
    rep = main_theorem_check(M, Rx.poly([1, 0, 1]), 2, 2)
    assert rep["failures"] == []


def test_rank_one_pairing_is_identity():
    # exterior of a rank-one module is the module itself, and the
    # pairing of a single torsion point is that point
    emb = embed(F2, F4)
    M = DrinfeldModule(F2, F4, F4.gen(), [F4.one()], emb)
    x = M.x_ring().gen()
    tb = torsion_basis(M, x)
    Mx = tb.module_ext
    assert Mx.exterior().g == Mx.g
    for pt in tb.all_points():
        assert weil_pairing(Mx, x, [pt]) == pt


def test_pairing_swap_negates_rank2():
    M = DrinfeldModule(F3, F3, F3.one(), [F3.one(), F3.one()])
    x = M.x_ring().gen()
    tb = torsion_basis(M, x)
    Mx = tb.module_ext
    pts = list(tb.all_points())
    for a in pts[:5]:
        for b in pts[:5]:
            assert weil_pairing(Mx, x, [a, b]) == -weil_pairing(Mx, x, [b, a])


def cofactor_det(rows):
    """Laplace expansion along the first row; no permutation sum."""
    if len(rows) == 1:
        return rows[0][0]
    acc = None
    for j, a in enumerate(rows[0]):
        term = a * cofactor_det([row[:j] + row[j + 1:] for row in rows[1:]])
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def perm_det(rows):
    """The signed sum over permutations of prod_i rows[i][perm[i]]."""
    acc = None
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        prod = rows[0][perm[0]]
        for i in range(1, len(rows)):
            prod = prod * rows[i][perm[i]]
        prod = -prod if inversions % 2 else prod
        acc = prod if acc is None else acc + prod
    return acc


def twist(mu, q, j):
    """mu^(q^j): a series twists itself, an f-remainder coefficient by
    coefficient (t is fixed), a field element is raised to q^j."""
    if isinstance(mu, RemainderPoly):
        return RemainderPoly(mu.f, tuple(twist(c, q, j) for c in mu.coeffs))
    return mu.frobenius(j) if hasattr(mu, "frobenius") else mu ** q ** j


def moore_matrix(mus, q):
    return [[twist(mu, q, j) for j in range(len(mus))] for mu in mus]


F16 = make_field(2, 4)
F9 = make_field(3, 2)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(F16, 2), (F9, 3)]), st.integers(1, 6), st.data())
def test_moore_det_matches_cofactor_expansion(field_q, r, data):
    field, q = field_q
    coeffs = st.lists(st.integers(0, field.p - 1), min_size=field.e,
                      max_size=field.e)
    mus = [field.elem(c) for c in data.draw(st.lists(coeffs, min_size=r,
                                                     max_size=r))]
    table = moore_matrix(mus, q)
    assert moore_det(mus, q) == cofactor_det(table) == perm_det(table)


def assert_band_exact(kappa, oracle):
    """kappa is the oracle inside kappa's caps, with the oracle's caps
    and no term outside them."""
    pairs = (zip(kappa.coeffs, oracle.coeffs) if isinstance(kappa, RemainderPoly)
             else [(kappa, oracle)])
    for got, want in pairs:
        assert got.caps == want.caps
        assert got.terms == want.prune(got.caps).terms
        assert all(mono_in_band(m, got.caps) for m in got.terms)


def test_moore_det_of_rank3_generating_functions_matches_cofactor():
    # the bridge's rank-3 module g = (1, 0, 1) over F_2(theta); every
    # Moore term twists one symbol twice, so N = 1 is zero in the band
    Rth = PolyRing(F2, "theta")
    K = FracField(Rth)
    M = DrinfeldModule(F2, K, K.gen(), [K.one(), K.zero(), K.one()])
    for N in (1, 2):
        ec = exp_coeffs(M, N)
        series = [agf(M, f"Z{i + 1}", N, ec) for i in range(3)]
        kappa = moore_det(series, M.q)
        assert kappa.is_zero() == (N == 1)
        assert_band_exact(kappa, cofactor_det(moore_matrix(series, M.q)))


def test_moore_det_of_rank3_remainders_matches_cofactor():
    # the same module's remainders in F_2(theta)[t]/(t^2 + t + 1)
    Rth = PolyRing(F2, "theta")
    K = FracField(Rth)
    M = DrinfeldModule(F2, K, K.gen(), [K.one(), K.zero(), K.one()])
    f = PolyRing(F2, "x").poly([1, 1, 1])
    for N in (1, 2):
        rems = [agf_mod(M, f, f"Z{i + 1}", N) for i in range(3)]
        kappa = moore_det(rems, M.q)
        assert_band_exact(kappa, cofactor_det(moore_matrix(rems, M.q)))
        assert any(not c.is_zero() for c in kappa.coeffs) == (N == 2)


def _symbols_and_terms(data, syms, N, value):
    """A nonempty set of the symbols, capped at N, and one or two
    monomials of one or two factors within the caps, each with a
    nonzero value drawn by value()."""
    own = sorted(data.draw(st.sets(st.sampled_from(syms), min_size=1)))
    factor = st.tuples(st.sampled_from(own), st.integers(0, N))
    monos = data.draw(st.lists(st.lists(factor, min_size=1, max_size=2),
                               min_size=1, max_size=2))
    return {sym: N for sym in own}, {tuple(sorted(m)): value() for m in monos}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(1, 4), st.integers(0, 3),
       st.sampled_from(["qexp", "remainder", "agf"]), st.data())
def test_moore_det_is_the_unpruned_determinant_in_its_band(q, r, N, kind, data):
    # oracle: the signed sum of the unpruned twist table, then pruned to
    # the determinant's caps; entries share the cap N on every symbol
    F = make_field(q)
    syms = [f"Z{i + 1}" for i in range(r)]
    digit = st.integers(0, q - 1)

    def poly(ring):
        coeffs = data.draw(st.lists(digit, min_size=1, max_size=3))
        return ring.poly(coeffs[:-1] + [data.draw(st.integers(1, q - 1))])

    Rth = PolyRing(F, "theta")
    K = FracField(Rth)
    poles = {s: Rth.poly([1, 1]) for s in syms}

    def qexp():
        caps, terms = _symbols_and_terms(data, syms, N, lambda: poly(Rth))
        return QExpansion(K, q, terms, caps, poles)

    if kind == "qexp":
        mus = [qexp() for _ in range(r)]
    elif kind == "remainder":
        f = PolyRing(F, "x").poly(data.draw(st.lists(digit, min_size=1, max_size=2)) + [1])
        mus = [RemainderPoly(f, tuple(qexp() for _ in range(int(f.degree))))
               for _ in range(r)]
    else:
        Kt = FracField(PolyRing(F, "t"))
        mus = []
        for _ in range(r):
            caps, terms = _symbols_and_terms(
                data, syms, N, lambda: Kt.frac(poly(Kt.ring), poly(Kt.ring)))
            mus.append(TruncAGF(Kt, q, terms, caps))
    kappa = moore_det(mus, q)
    assert_band_exact(kappa, perm_det(moore_matrix(mus, q)))


def test_main_theorem_forms_no_product_term_outside_the_band(monkeypatch):
    # every product of two q-expansions in the bridge, on both sides,
    # multiplies only monomials inside the operands' merged caps
    from drinfeld_weil.tate import _merge_caps, _SymSeries, mono_mul
    real = _SymSeries.__mul__
    formed = []

    def counting(self, other):
        if isinstance(other, _SymSeries):
            caps = _merge_caps(self.caps, other.caps)
            formed.extend(mono_in_band(mono_mul(m1, m2), caps)
                          for m1 in self.terms for m2 in other.terms)
        return real(self, other)

    monkeypatch.setattr(_SymSeries, "__mul__", counting)
    for gs, N in [(((0, 1), (1,)), 2), (((1,), (), (1,)), 1), (((1,), (), (1,)), 2)]:
        M = _bridge_module(3, gs)
        rep = main_theorem_check(M, PolyRing(M.q_field, "x").poly([1, 0, 1]), M.rank, N)
        assert rep["failures"] == []
    assert formed and all(formed)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("gs", [((1,),), ((0, 1), (1,)), ((1,), (), (1,))])
def test_bridge_left_side_is_nonzero_in_band_from_depth_rank_minus_one(q, gs):
    # every Moore term twists one symbol r - 1 times, so below N = r - 1
    # the left side is zero inside the band, and from there on it is not
    M = _bridge_module(q, gs)
    r = M.rank
    fx = PolyRing(M.q_field, "x").poly([1, 1, 1])
    E = exp_numerators(M, r)
    for N in range(r + 1):
        lhs = moore_det([agf_mod(M, fx, f"Z{i + 1}", N, E) for i in range(r)], q)
        assert any(not c.prune().is_zero() for c in lhs.coeffs) == (N >= r - 1)


# the (q, module, f, N) cells of the bridge benchmark, with g as
# polynomials in theta and one fixed f per cell
BRIDGE_MODULES = {"carlitz": ((1,),), "rank2": ((0, 1), (1,)),
                  "rank3": ((1,), (), (1,))}
BRIDGE_CELLS = [
    (2, "carlitz", [1, 1], 1), (2, "carlitz", [0, 1, 1], 1),
    (2, "carlitz", [0, 0, 0, 1], 1), (2, "carlitz", [1, 1], 2),
    (2, "carlitz", [1, 0, 1], 2), (2, "carlitz", [1, 0, 0, 1], 2),
    (2, "rank2", [0, 1], 1), (2, "rank2", [1, 0, 1], 1),
    (2, "rank2", [1, 0, 0, 1], 1), (2, "rank2", [0, 1], 2),
    (2, "rank2", [1, 0, 1], 2), (2, "rank3", [0, 1], 1),
    (3, "carlitz", [2, 1], 1), (3, "carlitz", [0, 1, 1], 1),
    (3, "carlitz", [0, 2, 1, 1], 1), (3, "carlitz", [2, 1], 2),
    (3, "carlitz", [0, 2, 1], 2), (3, "carlitz", [1, 2, 2, 1], 2),
    (3, "rank2", [2, 1], 1), (3, "rank2", [0, 2, 1], 1),
    (3, "rank2", [2, 1, 2, 1], 1), (3, "rank2", [1, 1], 2),
    (3, "rank2", [1, 1, 1], 2), (3, "rank3", [1, 1], 1),
]
# sha256 of the reports, one JSON line each, from the construction with
# a separate Moore determinant for generating functions
BRIDGE_SHA256 = "cb1159b5f8842c2e7aca83011a81416ecd7a140a6498e28baf8fa60482781b32"


def test_main_theorem_reports_on_bridge_cells_pinned():
    h = hashlib.sha256()
    for q, name, f, N in BRIDGE_CELLS:
        F = make_field(q)
        K = FracField(PolyRing(F, "theta"))
        M = DrinfeldModule(F, K, K.gen(), [K.frac(list(c)) for c in BRIDGE_MODULES[name]])
        rep = main_theorem_check(M, PolyRing(F, "x").poly(f), M.rank, N)
        assert rep["failures"] == []
        h.update((json.dumps(rep) + "\n").encode())
    assert h.hexdigest() == BRIDGE_SHA256


def _bridge_module(q, gs):
    F = make_field(q)
    K = FracField(PolyRing(F, "theta"))
    return DrinfeldModule(F, K, K.gen(), [K.frac(list(c)) for c in gs])


def test_bridge_left_side_matches_series_oracle():
    # Moore determinant of the remainders against the remainder of the
    # Moore determinant of the K(t)-valued generating functions: the same
    # terms and the same caps, which fix monomials_checked
    for q, name, f, N in BRIDGE_CELLS:
        M = _bridge_module(q, BRIDGE_MODULES[name])
        fx = PolyRing(M.q_field, "x").poly(f)
        ec = exp_coeffs(M, N)
        syms = [f"Z{i + 1}" for i in range(M.rank)]
        new = moore_det([agf_mod(M, fx, s, N) for s in syms], q).coeffs
        old = agf_remainder(moore_det([agf(M, s, N, ec) for s in syms], q), fx)
        assert [(a.terms, a.caps) for a in new] == [(b.terms, b.caps) for b in old]


@pytest.mark.parametrize("gs, f, N", [
    (((0, 1), (1,)), [0, 1], 3),        # rank 2, g = (theta, 1)
    (((0, 1), (1,)), [1, 1], 3),
    (((1,), (), (1,)), [1, 1], 2),      # rank 3, g = (1, 0, 1)
    (((1,), (), (1,)), [0, 1], 2),
    (((0, 1), (1,)), [1, 0, 1], 3),     # rank 2, f = x^2 + 1
    (((1,), (), (1,)), [1, 0, 1], 2),   # rank 3, f = x^2 + 1
    (((1,), (), (1,)), [1, 0, 1], 3),
    (((0, 1), (1,)), [1, 0, 1], 4),
])
def test_main_theorem_deeper_cells_over_f3(gs, f, N):
    M = _bridge_module(3, gs)
    t0 = time.perf_counter()
    rep = main_theorem_check(M, PolyRing(M.q_field, "x").poly(f), M.rank, N)
    assert time.perf_counter() - t0 < 5.0
    assert rep["failures"] == [] and rep["monomials_checked"] > 0


@pytest.mark.parametrize("q, gs, f, N", [
    (2, ((1,), (), (), (1,)), [0, 1], 3),         # rank 4, g = (1, 0, 0, 1)
    (3, ((1,), (), (), (1,)), [1, 0, 1], 3),
    (2, ((1,), (), (), (), (1,)), [0, 1], 4),     # rank 5, g = (1, 0, 0, 0, 1)
])
def test_main_theorem_deep_cells_within_budget(q, gs, f, N):
    # N = r - 1 is the first depth at which the cell is not vacuous
    M = _bridge_module(q, gs)
    fx = PolyRing(M.q_field, "x").poly(f)
    t0 = time.perf_counter()
    rep = main_theorem_check(M, fx, M.rank, N)
    assert time.perf_counter() - t0 < 1.5
    assert rep["failures"] == []
    assert rep["monomials_checked"] == (int(fx.degree) + 1) * (N + 1) ** M.rank


def test_main_theorem_pole_on_modulus():
    # theta = 1 is a root of x - 1 (depth 0 needs no division by
    # theta^q - theta)
    F = make_field(3)
    K = FracField(PolyRing(F, "theta"))
    M = DrinfeldModule(F, K, K.one(), [K.one()])
    with pytest.raises(PoleOnModulus):
        main_theorem_check(M, PolyRing(F, "x").poly([2, 1]), 1, 0)


def test_bridge_outside_polynomial_setting_is_refused():
    # the numerators need theta = K.gen() and every g_j in F_q[theta]
    F = make_field(3)
    K = FracField(PolyRing(F, "theta"))
    th = K.gen()
    f = PolyRing(F, "x").poly([1, 0, 1])
    cases = [(DrinfeldModule(F, K, th, [th, K.one() / (th + 1)]),
              "g_2 = (1)/(theta + 1) in F_q[theta]"),
             (DrinfeldModule(F, K, th + 1, [K.one(), K.one()]),
              "theta = theta, not theta + 1")]
    for M, reason in cases:
        for call in (lambda: main_theorem_check(M, f, 2, 1),
                     lambda: agf_mod(M, f, "Z", 1)):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == f"exponential numerators need {reason}"


def test_main_theorem_takes_no_gcd(monkeypatch):
    # the bridge holds numerators over den(m): no poly_gcd anywhere on
    # its path, rank 3 at N = 2 included
    import sys
    from drinfeld_weil import polys
    calls = []
    real = polys.poly_gcd

    def counting(*args):
        calls.append(args)
        return real(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("drinfeld_weil") and getattr(mod, "poly_gcd", None) is real:
            monkeypatch.setattr(mod, "poly_gcd", counting)
    M = _bridge_module(3, ((1,), (), (1,)))
    rep = main_theorem_check(M, PolyRing(M.q_field, "x").poly([1, 0, 1]), 3, 2)
    monkeypatch.undo()
    assert rep["failures"] == [] and rep["monomials_checked"] == 3 * 27
    assert calls == []


def carlitz_den(ring, q, e):
    """D_e = prod_{l=1}^{e} (theta^{q^l} - theta)^{q^{e-l}}, by powering."""
    th = ring.gen()
    acc = ring.one()
    for l in range(1, e + 1):
        acc = acc * (th ** (q ** l) - th) ** (q ** (e - l))
    return acc


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(1, 3), st.integers(1, 3), st.data())
def test_bridge_numerators_match_kt_oracle(q, r, n, data):
    # both sides of the bridge, held as numerators, against the K(t)
    # route: the f-remainder of the Moore determinant of the generating
    # functions, whose every value times den(m) is a polynomial.  N <= 2,
    # and N <= 1 at q = 3 and rank 3, where the oracle's remainders over
    # K(t) take up to 9 s a draw
    N = data.draw(st.integers(0, 1 if (q, r) == (3, 3) else 2))
    from drinfeld_weil.pairing import _diamond_orbits, _orbit_rows
    from drinfeld_weil.tate import _merge_caps, band_monomials
    F = make_field(q)
    ring = PolyRing(F, "theta")
    K = FracField(ring)
    poly = st.lists(st.integers(0, q - 1), max_size=3)
    g = [K.frac(data.draw(poly)) for _ in range(r - 1)]
    g.append(K.frac(data.draw(poly.filter(any))))
    M = DrinfeldModule(F, K, K.gen(), g)
    tail = data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    f = PolyRing(F, "x").poly(tail + [1])
    ec, E = exp_coeffs(M, N), exp_numerators(M, N)
    for i in range(N + 1):
        assert K.frac(E[i], carlitz_den(ring, q, i)) == ec.e[i]

    f_theta = ring.poly(list(f.coeffs))

    def den(m):
        acc = ring.one()
        for _, e in m:
            acc = acc * carlitz_den(ring, q, e) * f_theta ** (q ** e)
        return acc

    syms = [f"Z{i + 1}" for i in range(r)]
    oracle = [dict() for _ in range(n)]
    for m, v in moore_det([agf(M, s, N, ec) for s in syms], q).terms.items():
        for k, c in enumerate(ev_remainder(v, f).coeffs):
            assert (c * den(m)).den == ring.one()
            if not c.is_zero():
                oracle[k][m] = c

    rems = [agf_mod(M, f, s, N, E) for s in syms]
    lhs = moore_det(rems, q).coeffs
    for k in range(n):
        assert set(lhs[k].terms) == set(oracle[k])
        for m, c in oracle[k].items():
            assert lhs[k].den(m) == den(m)
            assert lhs[k].coeff(m) == c

    tables = [_orbit_rows(M, h.coeffs[n - 1], n, r) for h in rems]
    rhs = _diamond_orbits(weil_op_r(f, r + 1), M, tables, n)
    pair_val = _diamond_orbits(weil_op_r(f, r), M, tables, None)
    for k, side in [(k, rhs[k]) for k in range(n)] + [(n - 1, pair_val)]:
        for m in band_monomials(_merge_caps(lhs[k].caps, side.caps)):
            assert side.coeff(m) == oracle[k].get(m, K.zero())


# ---------------------------------------------------------------------------
# The per-term route as the oracle of weil_pairing: the torsion check by
# phi_f applied as a twisted polynomial, then one moore_det per operator
# term on the phi_x-powers of the arguments.

def weil_pairing_per_term(M, f, mus):
    phi_f = M.phi_of(f)
    for i, mu in enumerate(mus):
        if not phi_f.apply(mu).is_zero():
            raise NotTorsion(f"argument {i + 1} is not f-torsion")
    P = weil_op_r(f, M.rank)
    pows = []
    for i, mu in enumerate(mus):
        row = [mu]
        for _ in range(P.degree_in(i)):
            row.append(M.phi_x().apply(row[-1]))
        pows.append(row)
    out = M.base.zero()
    for exps, c in sorted(P.terms.items()):
        args = [pows[i][exps[i]] for i in range(M.rank)]
        out = out + moore_det(args, M.q) * M.embed_scalars(c)
    return out


# (q, base degree m, theta, g, f): the ten modules of the pairing
# benchmark (theta None means the base generator), a modulus with a
# coefficient other than 0 and 1, four quadratic moduli with nonzero
# lower coefficients (the last over F_4 = F_2[y]/(y^2 + y + 1), its
# elements written as digit tuples: theta = y, f = x^2 + y x + y + 1),
# a rank-5 case with f = x^2, which splits in GF(2^10), then the
# smallest rank-4 case, which splits in GF(2^7)
PAIRING_MODULES = (
    (2, 1, 1, (1, 1), (0, 0, 0, 1)),
    (3, 1, 1, (1, 1), (0, 0, 1)),
    (2, 1, 1, (1, 1), (0, 1)),
    (3, 1, 1, (1, 1), (0, 1)),
    (2, 2, None, (1, 1), (1, 1)),
    (2, 3, None, (1, 1), (0, 1)),
    (5, 1, 2, (1, 2), (0, 1)),
    (7, 1, 1, (1, 1), (0, 1)),
    (2, 1, 1, (1, 0, 1), (0, 1)),
    (3, 1, 1, (1, 1, 1), (0, 1)),
    (3, 1, 2, (1, 1), (2, 1)),
    (2, 1, 1, (0, 1), (1, 1, 1)),
    (3, 1, 1, (0, 1), (1, 2, 1)),
    (5, 1, 1, (0, 2), (2, 3, 1)),
    (4, 1, (0, 1), (0, (0, 1)), ((1, 1), (0, 1), 1)),
    (2, 1, 1, (0, 0, 0, 0, 1), (0, 0, 1)),
    (2, 1, 1, (1, 1, 0, 1), (0, 1)),
)


@functools.lru_cache(maxsize=None)
def pairing_case(k):
    q, m, theta, g, f = PAIRING_MODULES[k]
    qf = make_field(2, 2) if q == 4 else make_field(q)
    if m == 1:
        M = DrinfeldModule(qf, qf, qf.elem(theta), [qf.elem(c) for c in g])
    else:
        base = make_field(q, m)
        emb = embed(qf, base)
        M = DrinfeldModule(qf, base, base.gen(), [emb(qf.elem(c)) for c in g], emb)
    fx = PolyRing(qf, "x").poly(list(f))
    return fx, torsion_basis(M, fx)


def test_rank4_case_splits_in_gf_2_7():
    _, tb = pairing_case(len(PAIRING_MODULES) - 1)
    assert tb.module_ext.rank == 4
    assert (tb.field_ext.p, tb.field_ext.e) == (2, 7)


def draw_torsion_points(data, tb):
    """r points, each an F_q-combination of the basis drawn by hypothesis."""
    Mx = tb.module_ext
    qf = list(tb.module.q_field.elements())
    mus = []
    for _ in range(Mx.rank):
        acc = tb.field_ext.zero()
        for pt in tb.points:
            c = data.draw(st.integers(0, Mx.q - 1))
            acc = acc + Mx.embed_scalars(qf[c]) * pt
        mus.append(acc)
    return mus


@settings(max_examples=120, deadline=None)
@given(st.integers(0, len(PAIRING_MODULES) - 1), st.data())
def test_weil_pairing_matches_per_term_route(k, data):
    fx, tb = pairing_case(k)
    mus = draw_torsion_points(data, tb)
    Mx = tb.module_ext
    assert weil_pairing(Mx, fx, mus) == weil_pairing_per_term(Mx, fx, mus)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(PAIRING_MODULES) - 1), st.data())
def test_both_routes_name_the_perturbed_argument(k, data):
    fx, tb = pairing_case(k)
    Mx = tb.module_ext
    mus = draw_torsion_points(data, tb)
    i = data.draw(st.integers(0, Mx.rank - 1))
    phi_f = Mx.phi_of(fx)
    # phi[f] is all of L for the q = 5 quadratic module (5^4 points in
    # GF(5^4)); elsewhere a torsion point plus a non-torsion element is
    # not torsion
    assume(Mx.q ** len(tb.points) < tb.field_ext.order)
    w = tb.field_ext.gen()
    if phi_f.apply(w).is_zero():
        w = w + tb.field_ext.one()
    assert not phi_f.apply(w).is_zero()
    mus[i] = mus[i] + w
    for route in (weil_pairing, weil_pairing_per_term):
        with pytest.raises(NotTorsion) as exc:
            route(Mx, fx, mus)
        assert str(exc.value) == f"argument {i + 1} is not f-torsion"


def test_first_non_torsion_argument_is_named():
    fx, tb = pairing_case(9)  # rank 3
    Mx = tb.module_ext
    w = tb.field_ext.gen()
    if Mx.phi_of(fx).apply(w).is_zero():
        w = w + tb.field_ext.one()
    mus = [tb.points[0], w, w]
    for route in (weil_pairing, weil_pairing_per_term):
        with pytest.raises(NotTorsion, match="argument 2 is not"):
            route(Mx, fx, mus)


def test_weil_pairing_cost_guard(monkeypatch):
    # one pairing at rank r = 2 on GF(2^12) with f = x^3 (n = 3), one on
    # GF(2^3) with f = x (n = 1), and one at rank 5 on GF(2^10) with
    # f = x^2.  Each argument's n table rows take r - 1 twists and each of
    # its n phi_x steps one more, r * r * n field powers in all.  The one
    # Moore determinant of remainders makes r(2^(r-1) - 1) products in
    # L[t]/(f) at n >= 2 (75 at rank 5, against r! (r - 1) = 480 for the
    # permutation sum) and none at n = 1; no operator is built, and no
    # twisted or multivariate product is formed
    import drinfeld_weil.pairing as pairing_mod
    from drinfeld_weil import weil_ops
    from drinfeld_weil.fields import FieldElem
    from drinfeld_weil.twisted import TwistedPoly
    counts = {}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    rank5 = len(PAIRING_MODULES) - 2
    for k, r, n, field_e, picks, remainder_products, powers in [
            (0, 2, 3, 12, (0, -1), 2, 12), (2, 2, 1, 3, (0, -1), 0, 4),
            (rank5, 5, 2, 10, (5, 6, 7, 8, 9), 75, 50)]:
        fx, tb = pairing_case(k)
        Mx = tb.module_ext
        assert (Mx.rank, int(fx.degree), tb.field_ext.p, tb.field_ext.e) == (r, n, 2, field_e)
        mus = [tb.points[i] for i in picks]
        counts.update(pow=0, tmul=0, mmul=0, rmul=0, op=0)
        monkeypatch.setattr(FieldElem, "__pow__", counting("pow", FieldElem.__pow__))
        monkeypatch.setattr(TwistedPoly, "__mul__", counting("tmul", TwistedPoly.__mul__))
        monkeypatch.setattr(MPoly, "__mul__", counting("mmul", MPoly.__mul__))
        monkeypatch.setattr(RemainderPoly, "__mul__",
                            counting("rmul", RemainderPoly.__mul__))
        for mod in (pairing_mod, weil_ops):
            monkeypatch.setattr(mod, "weil_op_r", counting("op", weil_op_r))
        value = weil_pairing(Mx, fx, mus)
        monkeypatch.undo()
        assert counts["tmul"] == counts["mmul"] == counts["op"] == 0
        assert counts["rmul"] == remainder_products == (n > 1) * r * (2 ** (r - 1) - 1)
        assert counts["pow"] == powers == r * r * n
        assert not value.is_zero()
        assert value == weil_pairing_per_term(Mx, fx, mus)


def test_main_theorem_builds_one_operator(monkeypatch):
    # part 2 is the top t-slot of weil_op_r(f, r + 1): the rank-r
    # operator is never built
    import drinfeld_weil.pairing as pairing_mod
    ranks = []

    def recording(f, r):
        ranks.append(r)
        return weil_op_r(f, r)

    monkeypatch.setattr(pairing_mod, "weil_op_r", recording)
    for gs in (((1,),), ((0, 1), (1,)), ((1,), (), (1,))):
        M = _bridge_module(3, gs)
        ranks.clear()
        rep = main_theorem_check(M, PolyRing(M.q_field, "x").poly([1, 0, 1]), M.rank, 1)
        assert rep["failures"] == []
        assert ranks == [M.rank + 1]


def _bridge_sides(q, name, f, N):
    """The bridge's pieces for one BRIDGE_CELLS cell: the module, f, the
    generating-function remainders, one orbit table per top coefficient
    c_i, and both sides' t-slots."""
    from drinfeld_weil.pairing import _diamond_orbits, _orbit_rows
    M = _bridge_module(q, BRIDGE_MODULES[name])
    fx = PolyRing(M.q_field, "x").poly(f)
    n, r = int(fx.degree), M.rank
    rems = [agf_mod(M, fx, f"Z{i + 1}", N) for i in range(r)]
    tables = [_orbit_rows(M, h.coeffs[n - 1], n, r) for h in rems]
    lhs = moore_det(rems, q).coeffs
    rhs = _diamond_orbits(weil_op_r(fx, r + 1), M, tables, n)
    return M, fx, rems, tables, lhs, rhs


def test_remainder_determinant_is_the_bridge_top_slot():
    # the third picture: [t^(n-1)] det(h_(c_i)^(q^j)), built from the
    # q-expansion tables of the top coefficients c_i, is the operator
    # side's top t-slot and the left side's, on every band monomial
    from drinfeld_weil.pairing import _remainder_det
    from drinfeld_weil.tate import _merge_caps, band_monomials
    for cell in BRIDGE_CELLS:
        M, fx, _, tables, lhs, rhs = _bridge_sides(*cell)
        n = int(fx.degree)
        val = _remainder_det(M, fx, tables)
        band = list(band_monomials(_merge_caps(lhs[n - 1].caps, rhs[n - 1].caps)))
        assert band
        for m in band:
            assert val.coeff(m) == rhs[n - 1].coeff(m) == lhs[n - 1].coeff(m)


def test_agf_mod_slots_are_torsion_remainders():
    # e(a z) = phi_a(e(z)): slot k of a generating function's remainder
    # is phi_(b_k)(c) = sum_l a_(k+l+1) phi_x^l(c), c its top slot
    from drinfeld_weil.tate import band_monomials
    for cell in BRIDGE_CELLS:
        M, fx, rems, tables, _, _ = _bridge_sides(*cell)
        a = [M.embed_scalars(c) for c in fx.coeffs]
        n = len(a) - 1
        for h, rows in zip(rems, tables):
            for k, slot in enumerate(h.coeffs):
                terms = [rows[l][0] * a[k + l + 1] for l in range(n - k)]
                want = sum(terms[1:], start=terms[0])
                for m in band_monomials(slot.caps):
                    assert slot.coeff(m) == want.coeff(m)
