import functools
import hashlib
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld_weil import (DrinfeldModule, FracField, MPoly, MPolyRing,
                           PolyRing, agf, agf_mod, agf_remainder,
                           diamond_moore, embed, exp_coeffs,
                           main_theorem_check, make_field, moore_det,
                           torsion_basis, weil_pairing)
from drinfeld_weil.errors import NotTorsion, PoleOnModulus
from drinfeld_weil.weil_ops import weil_op_r, weil_op_rt

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


def test_operator_top_slot_matches_lower_rank():
    Rx = PolyRing(F3, "x")
    for coeffs in ([0, 1], [1, 1], [0, 0, 1], [1, 0, 1], [2, 1, 1]):
        f = Rx.poly(coeffs)
        n = int(f.degree)
        ot = weil_op_rt(f, 2)
        o2 = weil_op_r(f, 2).inject(ot.ring, (0, 1))
        assert ot.coeff_in_var(2, n - 1) == o2


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


def test_t_anchored_operator_matches_plain_construction():
    Rx = PolyRing(F3, "x")
    for coeffs in ([0, 1], [1, 0, 1], [2, 1, 1]):
        f = Rx.poly(coeffs)
        ot = weil_op_rt(f, 2)
        plain = weil_op_r(f, 3)
        assert ot.terms == plain.terms  # same exponents, t in the last slot
        assert ot.ring.names == ("X1", "X2", "t")


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


def moore_matrix(mus, q):
    r = len(mus)
    return [[mu.frobenius(j) if hasattr(mu, "frobenius") else mu ** q ** j
             for j in range(r)] for mu in mus]


F16 = make_field(2, 4)
F9 = make_field(3, 2)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(F16, 2), (F9, 3)]), st.integers(3, 4), st.data())
def test_moore_det_matches_cofactor_expansion(field_q, r, data):
    field, q = field_q
    coeffs = st.lists(st.integers(0, field.p - 1), min_size=field.e,
                      max_size=field.e)
    mus = [field.elem(c) for c in data.draw(st.lists(coeffs, min_size=r,
                                                     max_size=r))]
    assert moore_det(mus, q) == cofactor_det(moore_matrix(mus, q))


def test_moore_det_of_rank3_generating_functions_matches_cofactor():
    # the bridge's rank-3 module g = (1, 0, 1) over F_2(theta), N = 1
    Rth = PolyRing(F2, "theta")
    K = FracField(Rth)
    M = DrinfeldModule(F2, K, K.gen(), [K.one(), K.zero(), K.one()])
    ec = exp_coeffs(M, 1)
    series = [agf(M, f"Z{i + 1}", 1, ec) for i in range(3)]
    kappa = moore_det(series, M.q)
    assert not kappa.is_zero()
    assert kappa == cofactor_det(moore_matrix(series, M.q))


def test_moore_det_of_rank3_remainders_matches_cofactor():
    # the same module's remainders in F_2(theta)[t]/(t^2 + t + 1)
    Rth = PolyRing(F2, "theta")
    K = FracField(Rth)
    M = DrinfeldModule(F2, K, K.gen(), [K.one(), K.zero(), K.one()])
    f = PolyRing(F2, "x").poly([1, 1, 1])
    ec = exp_coeffs(M, 1)
    rems = [agf_mod(M, f, f"Z{i + 1}", 1, ec) for i in range(3)]
    kappa = moore_det(rems, M.q)
    assert kappa == cofactor_det(moore_matrix(rems, M.q))
    assert any(not c.is_zero() for c in kappa.coeffs)


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
        new = moore_det([agf_mod(M, fx, s, N, ec) for s in syms], q).coeffs
        old = agf_remainder(moore_det([agf(M, s, N, ec) for s in syms], q), fx)
        assert [(a.terms, a.caps) for a in new] == [(b.terms, b.caps) for b in old]


@pytest.mark.parametrize("gs, f, N", [
    (((0, 1), (1,)), [0, 1], 3),        # rank 2, g = (theta, 1)
    (((0, 1), (1,)), [1, 1], 3),
    (((1,), (), (1,)), [1, 1], 2),      # rank 3, g = (1, 0, 1)
    (((1,), (), (1,)), [0, 1], 2),
    (((0, 1), (1,)), [1, 0, 1], 3),     # rank 2, f = x^2 + 1
])
def test_main_theorem_deeper_cells_over_f3(gs, f, N):
    M = _bridge_module(3, gs)
    t0 = time.perf_counter()
    rep = main_theorem_check(M, PolyRing(M.q_field, "x").poly(f), M.rank, N)
    assert time.perf_counter() - t0 < 5.0
    assert rep["failures"] == [] and rep["monomials_checked"] > 0


def test_main_theorem_pole_on_modulus():
    # theta = 1 is a root of x - 1 (depth 0 needs no division by
    # theta^q - theta)
    F = make_field(3)
    K = FracField(PolyRing(F, "theta"))
    M = DrinfeldModule(F, K, K.one(), [K.one()])
    with pytest.raises(PoleOnModulus):
        main_theorem_check(M, PolyRing(F, "x").poly([2, 1]), 1, 0)


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
# coefficient other than 0 and 1, then the smallest rank-4 case, which
# splits in GF(2^7)
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
    (2, 1, 1, (1, 1, 0, 1), (0, 1)),
)


@functools.lru_cache(maxsize=None)
def pairing_case(k):
    q, m, theta, g, f = PAIRING_MODULES[k]
    qf = make_field(q)
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
    qf = tb.module.q_field
    mus = []
    for _ in range(Mx.rank):
        acc = tb.field_ext.zero()
        for pt in tb.points:
            c = data.draw(st.integers(0, Mx.q - 1))
            acc = acc + Mx.embed_scalars(qf.elem(c)) * pt
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
    # a torsion point plus a non-torsion element is not torsion
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
    # one pairing on GF(2^12), rank r = 2, f = x^3 (n = 3): r * n orbit
    # steps with r twists each, plus the r - 1 table twists of the n
    # orbit points the operator reads, and no twisted products
    from drinfeld_weil.fields import FieldElem
    from drinfeld_weil.twisted import TwistedPoly
    fx, tb = pairing_case(0)
    Mx = tb.module_ext
    assert (tb.field_ext.p, tb.field_ext.e) == (2, 12)
    r, n = Mx.rank, int(fx.degree)
    mus = [tb.points[0], tb.points[-1]]
    counts = {"pow": 0, "tmul": 0}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(FieldElem, "__pow__", counting("pow", FieldElem.__pow__))
    monkeypatch.setattr(TwistedPoly, "__mul__", counting("tmul", TwistedPoly.__mul__))
    value = weil_pairing(Mx, fx, mus)
    monkeypatch.undo()
    assert counts["tmul"] == 0
    assert counts["pow"] <= r * n * (2 * r - 1)
    assert value == weil_pairing_per_term(Mx, fx, mus)
