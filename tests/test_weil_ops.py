import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld_weil import PolyRing, make_field
from drinfeld_weil import weil_ops as W
from drinfeld_weil.errors import NotATree

F2 = make_field(2)
F3 = make_field(3)
R2 = PolyRing(F2, "t")
R3 = PolyRing(F3, "t")


def test_dual_map_examples():
    f = R3.poly([1, 0, 1])
    assert W.dual_map(f, 0) == R3.gen()
    assert W.dual_map(f, 1) == R3.one()
    with pytest.raises(ValueError):
        W.dual_map(f, 2)


def test_dual_map_top_is_one():
    rng = random.Random(1)
    for _ in range(20):
        d = rng.randrange(1, 7)
        f = R3.poly([rng.randrange(3) for _ in range(d)] + [1])
        assert W.dual_map(f, int(f.degree) - 1) == R3.one()


def test_weil_op2_examples():
    assert W.weil_op_r(R3.poly([1, 0, 1]), 2).text() == "X1 + X2"
    assert W.weil_op_r(R3.poly([-1, 1]), 2).text() == "1"
    # f = t^n gives the full homogeneous sum of degree n-1
    o = W.weil_op_r(R2.poly([0, 0, 0, 1]), 2)
    assert o.text() == "X1^2 + X1*X2 + X2^2"


def test_weil_op2_equals_exact_quotient():
    # the rank-two operator against the synthetic division, over prime
    # and non-prime F_q
    rng = random.Random(2)
    for F in (F2, F3, make_field(2, 2), make_field(3, 2)):
        R = PolyRing(F, "t")
        elems = list(F.elements())
        for _ in range(30):
            d = rng.randrange(1, 7)
            f = R.poly([rng.choice(elems) for _ in range(d)] + [1])
            assert W.weil_op_r(f, 2) == W.weil_op2_quotient(f)


def test_weil_op_r_examples():
    assert W.weil_op_r(R3.poly([1, 0, 1]), 1).text() == "1"
    o3 = W.weil_op_r(R2.poly([0, 0, 1]), 3)
    assert o3.text() == "X1*X2 + X1*X3 + X2*X3"


def test_weil_op_r_power_modulus_closed_form():
    for n, r in [(2, 2), (2, 3), (3, 3), (2, 4), (3, 2)]:
        f = R2.poly([0] * n + [1])
        ring = W.op_ring(F2, r)
        acc = ring.zero()
        for ks in itertools.product(range(n), repeat=r):
            if sum(ks) == (n - 1) * (r - 1):
                acc = acc + ring.term(ks, 1)
        assert W.weil_op_r(f, r) == acc


def test_reduce_mod_star_examples():
    f = R3.poly([1, 0, 1])
    ring = W.op_ring(F3, 2)
    x1, x2 = ring.var(0), ring.var(1)
    assert W.reduce_mod_star(x1 * x1, f, [0]) == ring.constant(2)
    assert W.reduce_mod_star(x1 * x2, f) == x1 * x2
    assert W.reduce_mod_star(ring.from_unipoly(f, 1) * x1, f).is_zero()


def test_star_action_examples():
    f = R3.poly([1, 0, 1])
    o2 = W.weil_op_r(f, 2)
    assert W.star_action(R3.one(), f, 2) == o2
    st = W.star_action(R3.gen(), f, 2)
    assert st.text() == "X1*X2 + 2"
    assert st == W.reduce_mod_star(W.tk_star_closed(f, 1), f)
    assert W.star_action(f, f, 2).is_zero()


def test_star_action_slot_independent():
    rng = random.Random(3)
    for _ in range(20):
        d = rng.randrange(1, 5)
        f = R3.poly([rng.randrange(3) for _ in range(d)] + [1])
        g = R3.poly([rng.randrange(3) for _ in range(rng.randrange(1, 5))])
        r = rng.choice((2, 3))
        results = {W.star_action(g, f, r, slot=s).text() for s in range(1, r + 1)}
        assert len(results) == 1


def test_reduce_mod_star_order_independent():
    # per-variable divisions commute: any processing order gives the
    # same normal form
    rng = random.Random(11)
    for _ in range(15):
        q = rng.choice((2, 3))
        F = make_field(q)
        R = PolyRing(F, "t")
        f = R.poly([rng.randrange(q) for _ in range(rng.randrange(1, 4))] + [1])
        ring = W.op_ring(F, 3)
        P = ring.zero()
        for _ in range(6):
            exps = tuple(rng.randrange(6) for _ in range(3))
            P = P + ring.term(exps, rng.randrange(1, q))
        results = {W.reduce_mod_star(P, f, order)
                   for order in itertools.permutations(range(3))}
        assert len(results) == 1


def _subst_indices(g, beta, ring):
    # substitute X_i -> X_{beta[i]} (indices may collide)
    from drinfeld_weil.multipoly import MPoly
    out = ring.zero()
    for exps, c in g.terms.items():
        kk = [0] * ring.nvars
        for i, e in enumerate(exps):
            kk[beta[i]] += e
        out = out + MPoly(ring, {tuple(kk): c})
    return out


def test_index_swap_congruence():
    # g(X_{b1},...,X_{br}) * O == g(X_1,...,X_r) * O  Mod f(*) for any
    # index map b, not only single-slot substitutions
    rng = random.Random(12)
    for _ in range(15):
        q = rng.choice((2, 3))
        F = make_field(q)
        R = PolyRing(F, "t")
        f = R.poly([rng.randrange(q) for _ in range(rng.randrange(1, 4))] + [1])
        r = 3
        ring = W.op_ring(F, r)
        o = W.weil_op_r(f, r)
        g = ring.zero()
        for _ in range(4):
            exps = tuple(rng.randrange(3) for _ in range(r))
            g = g + ring.term(exps, rng.randrange(1, q))
        beta = tuple(rng.randrange(r) for _ in range(r))
        g_swapped = _subst_indices(g, beta, ring)
        lhs = W.reduce_mod_star(g * o, f)
        rhs = W.reduce_mod_star(g_swapped * o, f)
        assert lhs == rhs


def test_star_action_rank_one():
    f = R3.poly([1, 0, 1])
    g = R3.gen() ** 3
    out = W.star_action(g, f, 1)
    # t^3 = t(t^2+1) - t == -t mod f
    assert out.text() == "2*X1"


def test_tk_star_closed_beyond_degree():
    f = R3.poly([1, 0, 1])
    # k = 3 > n = 2: the raw sums need reduction, then agree
    assert (W.star_action(R3.gen() ** 3, f, 2)
            == W.reduce_mod_star(W.tk_star_closed(f, 3), f))


def test_tree_product_examples():
    f = R2.poly([0, 0, 1])
    o3 = W.weil_op_r(f, 3)
    assert W.tree_product(f, 3, [(1, 3), (2, 3)]) == o3
    assert W.tree_product(f, 3, [(1, 2), (2, 3)]) == o3
    f2 = R3.poly([1, 0, 1])
    assert W.tree_product(f2, 2, [(1, 2)]) == W.weil_op2_quotient(f2)
    with pytest.raises(NotATree):
        W.tree_product(f, 3, [(1, 2), (1, 2)])
    with pytest.raises(NotATree):
        W.tree_product(f, 3, [(1, 2)])


def test_tree_product_spanning_tree_invariance():
    rng = random.Random(4)
    for _ in range(25):
        q = rng.choice((2, 3))
        R = PolyRing(make_field(q), "t")
        r = rng.randrange(3, 6)
        dmax = 6 if r == 3 else 3
        f = R.poly([rng.randrange(q) for _ in range(rng.randrange(1, dmax + 1))] + [1])
        edges = [(rng.randrange(1, v), v) for v in range(2, r + 1)]
        assert W.tree_product(f, r, edges) == W.weil_op_r(f, r)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)]),
       st.integers(1, 5), st.integers(1, 4), st.randoms(use_true_random=False))
def test_weil_op_r_matches_star_tree_product(pe, r, d, rnd):
    F = make_field(*pe)
    elems = list(F.elements())
    R = PolyRing(F, "t")
    f = R.poly([rnd.choice(elems) for _ in range(d)] + [1])
    o = W.weil_op_r(f, r)
    assert o == W.tree_product(f, r, [(j, r) for j in range(1, r)])
    if r == 2:
        assert o == W.weil_op2_quotient(f)


def test_rank3_closed_examples():
    f = R2.poly([0, 0, 1])
    assert W.rank3_closed(f).text() == "X1*X2 + X1*X3 + X2*X3"
    assert W.rank3_closed(R3.poly([-1, 1])).text() == "1"


def test_rank3_closed_exhaustive_f2():
    for d in (1, 2, 3):
        for lows in itertools.product(range(2), repeat=d):
            f = R2.poly(list(lows) + [1])
            assert W.rank3_closed(f) == W.weil_op_r(f, 3)


def test_katen_recursion_examples():
    f = R3.poly([-1, 0, 1])  # t^2 - 1 = (t-1)(t+1)
    assert W.katen_recursion(f, 1, 2, 1) == W.weil_op_r(f, 2)
    assert W.katen_recursion(f, 1, 2, 1).text() == "X1 + X2"
    f2 = R2.poly([1, 0, 1])  # (t+1)^2 over F_2
    assert W.katen_recursion(f2, 1, 2, 1) == W.weil_op_r(f2, 2)
    f3 = R2.poly([0, 1, 1])  # t(t+1)
    for l in (1, 2, 3):
        for z in (0, 1):
            assert W.katen_recursion(f3, z, 3, l) == W.weil_op_r(f3, 3)
    with pytest.raises(ValueError):
        W.katen_recursion(R3.poly([1, 0, 1]), 1, 2, 1)  # 1 is not a root


def test_slot_swap_identity_unreduced():
    rng = random.Random(6)
    for q in (2, 3, 5):
        F = make_field(q)
        R = PolyRing(F, "t")
        for _ in range(20):
            d = rng.randrange(1, 7)
            f = R.poly([rng.randrange(q) for _ in range(d)] + [1])
            o2 = W.weil_op_r(f, 2)
            ring = o2.ring
            lhs = ring.var(0) * o2 - ring.from_unipoly(f, 0)
            rhs = ring.var(1) * o2 - ring.from_unipoly(f, 1)
            assert lhs == rhs


def test_symmetry_up_to_rank_4():
    rng = random.Random(7)
    for _ in range(10):
        q = rng.choice((2, 3, 5))
        R = PolyRing(make_field(q), "t")
        f = R.poly([rng.randrange(q) for _ in range(rng.randrange(1, 5))] + [1])
        for r in (2, 3, 4):
            o = W.weil_op_r(f, r)
            for perm in itertools.permutations(range(r)):
                assert o.permute_vars(perm) == o


def test_rank_recursion_and_top_coefficient():
    rng = random.Random(8)
    for _ in range(15):
        q = rng.choice((2, 3))
        R = PolyRing(make_field(q), "t")
        f = R.poly([rng.randrange(q) for _ in range(rng.randrange(1, 6))] + [1])
        n = int(f.degree)
        for r in (2, 3):
            big = W.weil_op_r(f, r + 1)
            ring = big.ring
            acc = ring.zero()
            for k in range(n):
                s = W.star_action(W.dual_map(f, k), f, r).inject(ring, tuple(range(r)))
                acc = acc + s * ring.var(r) ** k
            assert acc == big
            small = W.weil_op_r(f, r).inject(ring, tuple(range(r)))
            assert big.coeff_in_var(r, n - 1) == small


def test_rendering_deterministic():
    f = R3.poly([1, 0, 1])
    o = W.weil_op_r(f, 3)
    assert o.text() == W.weil_op_r(f, 3).text()
    assert o.latex() == "X_{1} X_{2} + X_{1} X_{3} + X_{2} X_{3} + 2"
