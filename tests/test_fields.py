import functools
import itertools
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from drinfeld_weil import embed, make_field
from drinfeld_weil.fields import (PRIME_TEST_LIMIT, RelativeBasis, is_prime,
                                  min_poly_over)
from drinfeld_weil import linalg


def test_prime_field_elements():
    F3 = make_field(3, 1)
    assert sorted(int(x.coeffs[0]) for x in F3.elements()) == [0, 1, 2]


def test_f4_default_modulus_is_unique_quadratic():
    F4 = make_field(2, 2)
    assert F4.modulus == (1, 1, 1)  # y^2 + y + 1


def test_f9_default_modulus():
    # y^2 + 1 has no root in F_3: 0^2+1=1, 1^2+1=2, 2^2+1=2
    F9 = make_field(3, 2)
    assert F9.modulus == (1, 0, 1)
    for c in range(3):
        assert (c * c + 1) % 3 != 0


def test_explicit_modulus_accepted():
    F4 = make_field(2, 2, [1, 1, 1])
    w = F4.gen()
    assert w * w == w + 1


def test_default_modulus_is_lex_smallest():
    # degree-3 candidates over F_2 in lex order on (a_0, a_1, a_2): those
    # with a_0 = 0 have root 0, (1,0,0) has root 1, (1,0,1) is the first
    # with no root, i.e. y^3 + y^2 + 1
    assert make_field(2, 3).modulus == (1, 0, 1, 1)


def test_irreducibility_matches_trial_division():
    # cross-check the deterministic test against brute-force factor search
    from drinfeld_weil.fields import _is_irreducible
    for p in (2, 3):
        monic = {1: [[a, 1] for a in range(p)]}
        for d in (2, 3, 4):
            monic[d] = [list(lows) + [1]
                        for lows in itertools.product(range(p), repeat=d)]
        def divides(small, big):
            big = list(big)
            while len(big) >= len(small):
                c = big[-1]
                shift = len(big) - len(small)
                for j, s in enumerate(small):
                    big[shift + j] = (big[shift + j] - c * s) % p
                while big and big[-1] == 0:
                    big.pop()
                if not big:
                    return True
            return False
        for d in (2, 3, 4):
            for cand in monic[d]:
                has_factor = any(divides(g, cand)
                                 for dd in range(1, d // 2 + 1)
                                 for g in monic[dd])
                assert _is_irreducible(cand, p) == (not has_factor), (p, cand)


def test_is_prime_matches_trial_division():
    def by_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    for n in range(-3, 20000):
        assert is_prime(n) == by_division(n), n


def test_is_prime_large_values():
    assert is_prime(2 ** 61 - 1) and is_prime(100000007) and is_prime(10 ** 12 + 39)
    # strong pseudoprimes to all prime bases up to 2, 3, 7, 31 and 37 in turn,
    # a Carmichael number, and the two large q of the CLI tests
    for n in (2047, 1373653, 3215031751, 3825123056546413051,
              318665857834031151167461, 561, 100000007 ** 2,
              100000007 * 100000037):
        assert not is_prime(n), n
    for n in (PRIME_TEST_LIMIT, 2 ** 90):
        with pytest.raises(ValueError):
            is_prime(n)


@pytest.mark.parametrize("p,e", [(3, 1), (3, 2)])
def test_equal_elements_hash_equal(p, e):
    F = make_field(p, e)
    xs = list(F.elements())
    copies = [F.elem(list(x.coeffs)) for x in xs]
    for a, b in itertools.product(xs, copies):
        assert (a == b) == (a.coeffs == b.coeffs)
        if a == b:
            assert hash(a) == hash(b)
    for c in range(-p, 2 * p):
        x = F.elem(c)
        # an element never equals an int, in comparisons and in sets alike
        assert x != c and c != x
        assert c not in {x} and x not in {c}
    assert len({F.elem(1): "elem", 1: "int"}) == 2
    assert make_field(3).elem(1) != make_field(3, 2).elem(1)


def test_field_equality_is_structural():
    F9 = make_field(3, 2)
    assert F9 == F9 and not F9 != F9
    assert make_field(3, 2) == F9 and hash(make_field(3, 2)) == hash(F9)
    assert make_field(3, 2, [2, 2, 1]) != F9
    assert make_field(3) != F9 and make_field(5, 2) != F9
    assert F9 != (3, 2, F9.modulus)
    # elements of separately built equal fields mix
    assert make_field(3, 2).gen() + F9.gen() == F9.elem([0, 2])


def test_fields_and_elements_pickle():
    import copy
    import pickle
    for p, e in ((2, 5), (3, 1), (3, 4)):
        F = make_field(p, e)
        x = F.elem([1] * e)
        y = pickle.loads(pickle.dumps(x))
        assert y == x and y.field == F and y ** p == x ** p
        assert copy.deepcopy(x) == x


def test_non_prime_p_rejected():
    with pytest.raises(ValueError):
        make_field(4)


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        make_field(3, 2, [0, 0, 1])  # y^2 = y*y
    with pytest.raises(ValueError):
        make_field(2, 2, [1, 0, 1])  # y^2 + 1 = (y+1)^2


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4)])
def test_field_axioms_exhaustive(p, e):
    F = make_field(p, e)
    xs = list(F.elements())
    assert len(xs) == p ** e
    for a, b in itertools.product(xs, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    for a, b, c in itertools.islice(itertools.product(xs, repeat=3), 4096):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    one = F.one()
    for a in xs:
        if not a.is_zero():
            assert a * a.inverse() == one
        assert (a + (-a)).is_zero()


@given(st.integers(0, 8), st.integers(0, 8))
def test_f9_matches_structure_constants(i, j):
    F9 = make_field(3, 2)
    a = F9.elem([i % 3, i // 3])
    b = F9.elem([j % 3, j // 3])
    # multiply residue polynomials mod y^2 + 1 by hand
    a0, a1 = a.coeffs
    b0, b1 = b.coeffs
    c0 = (a0 * b0 - a1 * b1) % 3
    c1 = (a0 * b1 + a1 * b0) % 3
    assert a * b == F9.elem([c0, c1])


def test_embedding_is_ring_hom():
    F4 = make_field(2, 2)
    F16 = make_field(2, 4)
    emb = embed(F4, F16)
    img = emb(F4.gen())
    assert (img * img + img + F16.one()).is_zero()
    for a in F4.elements():
        for b in F4.elements():
            assert emb(a * b) == emb(a) * emb(b)
            assert emb(a + b) == emb(a) + emb(b)


def test_relative_basis_roundtrip_and_minpoly():
    F4 = make_field(2, 2)
    F16 = make_field(2, 4)
    rel = RelativeBasis(F16, F4, embed(F4, F16))
    for k in (0, 1, 5, 7, 11):
        el = F16.gen() ** k
        assert rel.lift(rel.coords(el)) == el
    mp = min_poly_over(F16.gen(), rel)
    assert len(mp) - 1 == 2  # the generator is quadratic over F_4


def test_nullspace_and_rank():
    F3 = make_field(3)
    e = F3.elem
    mat = [[e(1), e(2), e(0)], [e(0), e(1), e(1)]]
    ns = linalg.nullspace(mat, F3)
    assert len(ns) == 1
    for row in mat:
        acc = F3.zero()
        for a, b in zip(row, ns[0]):
            acc = acc + a * b
        assert acc.is_zero()
    assert linalg.rank(mat, F3) == 2
    inv = linalg.inverse([[e(1), e(1)], [e(1), e(2)]], F3)
    assert inv is not None


# The default modulus of every F_{p^e} with 2 <= e and p^e <= 3^10, as
# chosen by the plain scan (every candidate through _is_irreducible).
PINNED_MODULI = {
    (2, 2): (1, 1, 1), (2, 3): (1, 0, 1, 1), (2, 4): (1, 0, 0, 1, 1),
    (2, 5): (1, 0, 0, 1, 0, 1), (2, 6): (1, 0, 0, 0, 0, 1, 1),
    (2, 7): (1, 0, 0, 0, 0, 0, 1, 1), (2, 8): (1, 0, 0, 0, 1, 1, 0, 1, 1),
    (2, 9): (1, 0, 0, 0, 0, 0, 0, 0, 1, 1), (2, 10): (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (2, 11): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1),
    (2, 12): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (2, 13): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1),
    (2, 14): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    (2, 15): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1), (3, 2): (1, 0, 1),
    (3, 3): (1, 0, 2, 1), (3, 4): (1, 0, 1, 1, 1), (3, 5): (1, 0, 0, 0, 2, 1),
    (3, 6): (1, 0, 0, 0, 1, 1, 1), (3, 7): (1, 0, 0, 0, 0, 1, 2, 1),
    (3, 8): (1, 0, 0, 0, 0, 1, 1, 0, 1), (3, 9): (1, 0, 0, 0, 0, 0, 2, 1, 0, 1),
    (3, 10): (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1), (5, 2): (1, 1, 1),
    (5, 3): (1, 0, 1, 1), (5, 4): (1, 0, 1, 1, 1), (5, 5): (1, 0, 0, 0, 4, 1),
    (5, 6): (1, 0, 0, 0, 1, 1, 1), (7, 2): (1, 0, 1), (7, 3): (1, 0, 1, 1),
    (7, 4): (1, 0, 0, 1, 1), (7, 5): (1, 0, 0, 0, 3, 1), (11, 2): (1, 0, 1),
    (11, 3): (1, 0, 4, 1), (11, 4): (1, 0, 0, 4, 1), (13, 2): (1, 3, 1),
    (13, 3): (1, 0, 4, 1), (13, 4): (1, 0, 0, 1, 1), (17, 2): (1, 1, 1),
    (17, 3): (1, 0, 3, 1), (19, 2): (1, 0, 1), (19, 3): (1, 0, 1, 1),
    (23, 2): (1, 0, 1), (23, 3): (1, 0, 3, 1), (29, 2): (1, 1, 1),
    (29, 3): (1, 0, 2, 1), (31, 2): (1, 0, 1), (31, 3): (1, 0, 3, 1),
    (37, 2): (1, 3, 1), (37, 3): (1, 0, 5, 1), (41, 2): (1, 1, 1), (43, 2): (1, 0, 1),
    (47, 2): (1, 0, 1), (53, 2): (1, 1, 1), (59, 2): (1, 0, 1), (61, 2): (1, 5, 1),
    (67, 2): (1, 0, 1), (71, 2): (1, 0, 1), (73, 2): (1, 3, 1), (79, 2): (1, 0, 1),
    (83, 2): (1, 0, 1), (89, 2): (1, 1, 1), (97, 2): (1, 3, 1), (101, 2): (1, 1, 1),
    (103, 2): (1, 0, 1), (107, 2): (1, 0, 1), (109, 2): (1, 6, 1), (113, 2): (1, 1, 1),
    (127, 2): (1, 0, 1), (131, 2): (1, 0, 1), (137, 2): (1, 1, 1), (139, 2): (1, 0, 1),
    (149, 2): (1, 1, 1), (151, 2): (1, 0, 1), (157, 2): (1, 3, 1), (163, 2): (1, 0, 1),
    (167, 2): (1, 0, 1), (173, 2): (1, 1, 1), (179, 2): (1, 0, 1), (181, 2): (1, 5, 1),
    (191, 2): (1, 0, 1), (193, 2): (1, 3, 1), (197, 2): (1, 1, 1), (199, 2): (1, 0, 1),
    (211, 2): (1, 0, 1), (223, 2): (1, 0, 1), (227, 2): (1, 0, 1), (229, 2): (1, 5, 1),
    (233, 2): (1, 1, 1), (239, 2): (1, 0, 1), (241, 2): (1, 5, 1),
}


def test_default_moduli_pinned():
    assert len(PINNED_MODULI) == 91
    for (p, e), modulus in PINNED_MODULI.items():
        assert make_field(p, e).modulus == modulus, (p, e)
    for p in (2, 3, 5, 7, 59023):
        assert make_field(p).modulus == (0, 1)


def _plain_scan(p, e):
    from drinfeld_weil.fields import _is_irreducible
    for low in itertools.product(range(p), repeat=e):
        if _is_irreducible(list(low) + [1], p):
            return list(low) + [1]


@pytest.mark.parametrize("p,top", [(2, 8), (3, 5), (5, 3), (7, 2)])
def test_pruned_search_matches_plain_scan(p, top):
    from drinfeld_weil.fields import _smallest_irreducible
    for e in range(1, top + 1):
        assert _smallest_irreducible(p, e) == _plain_scan(p, e), (p, e)


def test_root_test_matches_evaluation():
    # in degrees 2 and 3, irreducible means having no root in F_p
    from drinfeld_weil.fields import _is_irreducible
    for p in (2, 3, 5):
        for e in (2, 3):
            for low in itertools.product(range(p), repeat=e):
                m = list(low) + [1]
                roots = [a for a in range(p)
                         if sum(c * a ** i for i, c in enumerate(m)) % p == 0]
                assert _is_irreducible(m, p) == (not roots), (p, m)


def _rabin_oracle(m, p):
    """Rabin's test, the int-list irreducibility test before Ben-Or's:
    y^(p^d) = y mod m, and y^(p^(d/l)) - y prime to m for every prime
    l | d."""
    from drinfeld_weil.fields import _minus_y, _pgcd, _ppow_mod
    d = len(m) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    frob, powers = [0, 1], {}
    for k in range(1, d + 1):
        frob = _ppow_mod(frob, p, m, p)
        powers[k] = frob
    if _minus_y(powers[d], p):
        return False
    return all(len(_pgcd(list(m), _minus_y(powers[d // ell], p), p)) == 1
               for ell in range(2, d + 1)
               if d % ell == 0 and all(ell % k for k in range(2, ell)))


def _has_root_oracle(m, p):
    """Whether m has a root in F_p: gcd(m, y^p - y) is not constant."""
    from drinfeld_weil.fields import _minus_y, _pgcd, _ppow_mod
    return len(_pgcd(list(m), _minus_y(_ppow_mod([0, 1], p, m, p), p), p)) > 1


def _monic(p, lo, hi):
    return st.integers(lo, hi).flatmap(lambda d: st.lists(
        st.integers(0, p - 1), min_size=d, max_size=d).map(lambda low: low + [1]))


@st.composite
def _monic_candidates(draw):
    # a random monic, or a product of two, so that reducible inputs with
    # no root and a smallest factor of any degree are common
    from drinfeld_weil.fields import _pmul
    p = draw(st.sampled_from([2, 3, 5, 7, 59023]))
    if draw(st.booleans()):
        return p, draw(_monic(p, 1, 16))
    a, b = draw(_monic(p, 1, 8)), draw(_monic(p, 1, 8))
    return p, [c % p for c in _pmul(a, b)]


@settings(max_examples=300, deadline=None)
@given(_monic_candidates())
def test_ben_or_matches_rabin_oracle(case):
    from drinfeld_weil.fields import _is_irreducible
    p, m = case
    irreducible = _is_irreducible(m, p)
    assert irreducible == _rabin_oracle(m, p), (p, m)
    if len(m) > 2:
        assert not (irreducible and _has_root_oracle(m, p)), (p, m)


def test_constants_are_not_irreducible():
    from drinfeld_weil.fields import _is_irreducible
    for p in (2, 3, 59023):
        assert not _is_irreducible([1], p)


def test_modulus_search_cost_does_not_grow_with_p():
    # p = 3 mod 4, so y^2 + 1, the first candidate with a_0 != 0, is irreducible
    p = 100000007
    t0 = time.perf_counter()
    assert make_field(p, 2).modulus == (1, 0, 1)
    assert time.perf_counter() - t0 < 1.0


def test_chosen_modulus_not_retested(monkeypatch):
    from drinfeld_weil import fields
    calls = []
    real = fields._is_irreducible
    monkeypatch.setattr(fields, "_is_irreducible",
                        lambda m, p: calls.append(tuple(m)) or real(m, p))
    F = make_field(2, 4)
    assert calls.count(F.modulus) == 1  # once, inside the search
    calls.clear()
    make_field(2, 4, [1, 0, 0, 1, 1])
    assert calls == [(1, 0, 0, 1, 1)]  # a caller's modulus is validated


def _poly_ints(p):
    # int lists as the kernel receives them: coefficients may exceed p
    return st.lists(st.integers(0, 3 * p), min_size=0, max_size=9)


@settings(max_examples=200)
@given(st.sampled_from([2, 3, 5, 7, 59023]), st.data())
def test_pdivmod_contract(p, data):
    from drinfeld_weil.fields import _pdivmod, _pmul
    a = data.draw(_poly_ints(p))
    b = data.draw(_poly_ints(p))
    # _pmul is the schoolbook product, coefficients unreduced
    school = [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
              for k in range(len(a) + len(b) - 1)] if a and b else []
    assert _pmul(a, b) == school
    # a divisor as _pdivmod's callers pass it: reduced, trimmed, nonzero
    m = [c % p for c in data.draw(_poly_ints(p))]
    while m and m[-1] == 0:
        m.pop()
    if not m:
        m = [data.draw(st.integers(1, p - 1))]
    for num in (a, _pmul(a, b)):
        quot, rem = _pdivmod(num, m, p)
        assert rem == [] or rem[-1] != 0
        assert all(0 <= c < p for c in quot + rem)
        assert len(rem) < len(m)
        back = _pmul(quot, m) + [0] * len(num)
        for k in range(max(len(num), len(back))):
            lhs = back[k] + (rem[k] if k < len(rem) else 0)
            rhs = num[k] if k < len(num) else 0
            assert (lhs - rhs) % p == 0, (num, m, quot, rem)


def _red_by_shift_and_subtract(p, e, modulus):
    """The reduction table y^k for k in [e, 2e-2], each power by shifting
    the one before and subtracting its carry times the modulus."""
    red = []
    cur = [(-c) % p for c in modulus[:-1]]  # y^e
    red.append(tuple(cur))
    for _ in range(e - 2):
        carry = cur[-1]
        cur = [0] + cur[:-1]
        if carry:
            cur = [(a - carry * c) % p for a, c in zip(cur, modulus[:-1])]
        red.append(tuple(cur))
    return red


def test_reduction_table_matches_shift_and_subtract():
    # the packed kernel (odd p, e > 1) folds with this table; p = 2 folds
    # the modulus itself
    cells = [(p, e) for p, e in PINNED_MODULI if p > 2] + [(3, 40)]
    for p, e in cells:
        F = make_field(p, e)
        want = _red_by_shift_and_subtract(p, e, F.modulus)
        assert F._red == [F.elem(list(t)).v for t in want], (p, e)


# ---------------------------------------------------------------------------
# Powers: left-to-right square-and-multiply on the part of the exponent
# prime to p, the Frobenius map for each factor p.

def _repeated_product(x, n):
    acc = x.field.one()
    for _ in range(n):
        acc = acc * x
    return acc


def _square_and_multiply(x, n):
    """The right-to-left binary powering that __pow__ replaced."""
    result = x.field.one()
    base = x
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


POW_FIELDS = [(2, 1), (3, 1), (7, 1), (2, 4), (2, 6), (3, 3), (5, 2), (7, 2)]


@pytest.mark.parametrize("p,e", POW_FIELDS)
def test_pow_matches_repeated_product(p, e):
    F = make_field(p, e)
    xs = [F.gen(), F.elem([1] * e), F.elem(list(range(1, e + 1))), F.zero()]
    exps = set(range(3 * p + 3))
    exps |= {p ** k for k in range(e + 2)}
    exps |= {p ** k * m for k in range(1, e + 1) for m in (2, p + 1, 2 * p - 1)}
    exps.add(F.order - 2)
    for x in xs:
        for n in sorted(exps):
            assert x ** n == _repeated_product(x, n), (p, e, x, n)


@pytest.mark.parametrize("p,e", POW_FIELDS)
def test_negative_pow_is_power_of_inverse(p, e):
    F = make_field(p, e)
    for x in (F.gen(), F.elem([1] * e), F.elem(list(range(1, e + 1)))):
        if x.is_zero():
            continue
        inv = next(y for y in F.elements() if x * y == F.one())
        for n in (1, 2, p, p + 1, 3 * p + 2):
            assert x ** -n == _repeated_product(inv, n), (p, e, x, n)


def test_zero_powers():
    for p, e in POW_FIELDS:
        F = make_field(p, e)
        assert F.zero() ** 0 == F.one()
        with pytest.raises(ZeroDivisionError):
            F.zero() ** -1


def test_frobenius_map_matches_square_and_multiply():
    cells = list(PINNED_MODULI) + [(2, 12), (3, 9)]
    for p, e in cells:
        F = make_field(p, e)
        # the map is F_p-linear: the basis fixes it, one dense element
        # checks the sum
        xs = [F.elem([0] * i + [1]) for i in range(e)]
        xs.append(F.elem([(3 * i + 1) % p for i in range(e)]))
        for x in xs:
            assert F._frob(x.v) == _square_and_multiply(x, p).v, (p, e, x)
            assert (x ** p).v == F._frob(x.v)


def test_frobenius_map_not_built_with_the_field():
    # p = 2 squares with no table; the packed kernel's columns are built
    # on the first p-th power
    F = make_field(3, 9)
    assert F._frob_cols is None
    F.gen() ** 2
    assert F._frob_cols is None
    F.gen() ** 3
    assert F._frob_cols is not None


def test_pow_p_in_large_characteristic_is_fast():
    F = make_field(59023, 2)
    x = F.elem([5, 7])
    t0 = time.perf_counter()
    y = x ** F.p
    assert time.perf_counter() - t0 < 1.0
    assert y == _square_and_multiply(x, F.p)
    assert y ** F.p == x  # the Frobenius has order e = 2


# ---------------------------------------------------------------------------
# F_p-linear maps between fields: embeddings, relative coordinates and
# minimal polynomials, against the field-product constructions they
# replaced.

def _subfield_pairs():
    return [(p, es, eb) for p, top in ((2, 12), (3, 6), (5, 4))
            for eb in range(1, top + 1) for es in range(1, eb + 1) if eb % es == 0]


SUBFIELD_PAIRS = _subfield_pairs()

# embed(GF(p^es), GF(p^eb)).image for every proper subfield of degree > 1
PINNED_EMBED_IMAGES = {
    (2, 2, 4): (0, 1, 0, 1), (2, 2, 6): (0, 0, 0, 1, 1, 1),
    (2, 2, 8): (0, 0, 1, 1, 0, 0, 1, 1), (2, 2, 10): (0, 1, 1, 1, 0, 0, 0, 1, 1, 0),
    (2, 2, 12): (0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0), (2, 3, 6): (0, 1, 0, 1, 0, 0),
    (2, 3, 9): (0, 0, 0, 1, 1, 1, 0, 1, 1),
    (2, 3, 12): (1, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0, 0),
    (2, 4, 8): (0, 0, 0, 1, 0, 1, 0, 1),
    (2, 4, 12): (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
    (2, 5, 10): (0, 1, 0, 0, 0, 0, 0, 1, 1, 0),
    (2, 6, 12): (0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 0),
    (3, 2, 4): (0, 1, 2, 0), (3, 2, 6): (0, 0, 1, 2, 0, 0),
    (3, 3, 6): (0, 1, 1, 1, 2, 2), (5, 2, 4): (1, 0, 3, 1),
}


def test_embed_images_pinned():
    assert len(PINNED_EMBED_IMAGES) == 16
    for p, es, eb in SUBFIELD_PAIRS:
        small, big = make_field(p, es), make_field(p, eb)
        image = embed(small, big).image
        if es == 1:
            assert image == big.one()
        elif es == eb:
            assert image == big.gen()
        else:
            assert image.coeffs == PINNED_EMBED_IMAGES[p, es, eb], (p, es, eb)


def _embed_by_products(emb, x):
    """Embedding as sum_i c_i image^i, by field products."""
    acc, power = emb.big.zero(), emb.big.one()
    for c in x.coeffs:
        if c:
            acc = acc + power * c
        power = power * emb.image
    return acc


def _mat_vec(mat, vec, field):
    out = []
    for row in mat:
        acc = field.zero()
        for a, b in zip(row, vec):
            acc = acc + a * b
        out.append(acc)
    return out


def _coords_by_inverse(emb, x):
    """Coordinates of x over emb.small in the basis {big.gen()^i}: the
    F_p matrix of the basis, inverted over F_p as field elements and
    applied to x's digits."""
    small, big = emb.small, emb.big
    dim = big.e // small.e
    fp = make_field(big.p)
    cols, w_i = [], big.one()
    for _ in range(dim):
        for j in range(small.e):
            cols.append((_embed_by_products(emb, small.elem([0] * j + [1])) * w_i).coeffs)
        w_i = w_i * big.gen()
    mat = [[fp.elem(cols[c][r]) for c in range(big.e)] for r in range(big.e)]
    digits = _mat_vec(linalg.inverse(mat, fp), [fp.elem(c) for c in x.coeffs], fp)
    return [small.elem([digits[i * small.e + j].coeffs[0] for j in range(small.e)])
            for i in range(dim)]


def _min_poly_by_solves(emb, x):
    """Minimal polynomial over emb.small: one solve per degree k for
    x^k in the span of 1, ..., x^(k-1)."""
    small, big = emb.small, emb.big
    vectors = [_coords_by_inverse(emb, big.one())]
    power = big.one()
    for k in range(1, big.e // small.e + 1):
        power = power * x
        vk = _coords_by_inverse(emb, power)
        mat = [[v[row] for v in vectors] for row in range(len(vk))]
        sol = linalg.solve(mat, vk, small)
        if sol is not None:
            return [-c for c in sol] + [small.one()]
        vectors.append(vk)


@functools.cache
def _rel(p, es, eb):
    small, big = make_field(p, es), make_field(p, eb)
    emb = embed(small, big)
    return emb, RelativeBasis(big, small, emb)


def _field_elem(field):
    return st.lists(st.integers(0, field.p - 1), min_size=field.e,
                    max_size=field.e).map(field.elem)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SUBFIELD_PAIRS), st.data())
def test_embedding_matches_products_and_is_ring_hom(pair, data):
    emb, _ = _rel(*pair)
    a, b = data.draw(_field_elem(emb.small)), data.draw(_field_elem(emb.small))
    assert emb(a) == _embed_by_products(emb, a)
    assert emb(a * b) == emb(a) * emb(b)
    assert emb(a + b) == emb(a) + emb(b)
    assert emb(emb.small.one()) == emb.big.one()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SUBFIELD_PAIRS), st.data())
def test_coords_match_inverse_and_lift_inverts(pair, data):
    emb, rel = _rel(*pair)
    x = data.draw(_field_elem(emb.big))
    coords = rel.coords(x)
    assert coords == _coords_by_inverse(emb, x)
    assert rel.lift(coords) == x
    v = [data.draw(_field_elem(emb.small)) for _ in range(rel.dim)]
    assert rel.coords(rel.lift(v)) == v


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SUBFIELD_PAIRS), st.data())
def test_min_poly_matches_solves_and_vanishes(pair, data):
    emb, rel = _rel(*pair)
    x = data.draw(_field_elem(emb.big))
    mp = min_poly_over(x, rel)
    assert mp == _min_poly_by_solves(emb, x)
    assert mp[-1] == emb.small.one()
    acc = emb.big.zero()
    for c in reversed(mp):
        acc = acc * x + emb(c)
    assert acc.is_zero()


# ---------------------------------------------------------------------------
# Packed elements against the digit-tuple oracle: the arithmetic elements
# ran when they were length-e tuples of digits, each product an e^2
# convolution reduced by the table y^k mod the modulus, the Frobenius an
# F_p-linear map on int rows.

class _TupleField:
    def __init__(self, F):
        from drinfeld_weil.fields import _pdivmod, _pmul, _ppow_mod
        self.p, self.e, self.order = F.p, F.e, F.order
        self.red = _red_by_shift_and_subtract(F.p, F.e, F.modulus) if F.e > 1 else []
        yp = _ppow_mod([0, 1], F.p, F.modulus, F.p)
        cols, cur = [], [1]
        for _ in range(F.e):
            cols.append(cur + [0] * (F.e - len(cur)))
            cur = _pdivmod(_pmul(cur, yp), F.modulus, F.p)[1]
        self.frob_rows = list(zip(*cols))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        from drinfeld_weil.fields import _pmul
        p, e = self.p, self.e
        conv = _pmul(a, b)
        out = [c % p for c in conv[:e]]
        for k in range(e, 2 * e - 1):
            c = conv[k] % p
            if c:
                out = [(o + c * t) % p for o, t in zip(out, self.red[k - e])]
        return tuple(out)

    def frob(self, a):
        return tuple(sum(r * x for r, x in zip(row, a)) % self.p for row in self.frob_rows)

    def pow(self, a, n):
        """n = p^k m: a^m by left-to-right square-and-multiply, then k
        Frobenius steps."""
        if n == 0:
            return (1,) + (0,) * (self.e - 1)
        k = 0
        while n % self.p == 0:
            n //= self.p
            k += 1
        result = a
        for bit in bin(n)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
        for _ in range(k):
            result = self.frob(result)
        return result

    def inverse(self, a):
        return self.pow(a, self.order - 2)


ORACLE_FIELDS = ([(p, e) for p in (2, 3, 5, 7) for e in (1, 2, 3, 5, 9, 12)]
                 + [(2, 64), (3, 40)])


@functools.cache
def _oracle_field(p, e):
    F = make_field(p, e)
    return F, _TupleField(F)


@st.composite
def _oracle_case(draw):
    p, e = draw(st.sampled_from(ORACLE_FIELDS))
    # all-(p-1) digits fill the slots of the packed product the most
    digits = st.one_of(st.just([p - 1] * e),
                       st.lists(st.integers(0, p - 1), min_size=e, max_size=e))
    n = draw(st.integers(0, 40)) * p ** draw(st.integers(0, 3))
    return p, e, tuple(draw(digits)), tuple(draw(digits)), n


@settings(max_examples=300, deadline=None)
@given(_oracle_case())
# the square of all-6 digits in GF(7^12) overflows a slot one bit narrower
@example((7, 12, (6,) * 12, (6,) * 12, 7))
def test_packed_elements_match_tuple_oracle(case):
    p, e, da, db, n = case
    F, T = _oracle_field(p, e)
    a, b = F.elem(list(da)), F.elem(list(db))
    assert a.coeffs == da and b.coeffs == db
    assert F.elem(a.coeffs) == a and hash(F.elem(a.coeffs)) == hash(a)
    assert (a == b) == (da == db)
    if a == b:
        assert hash(a) == hash(b)
    assert (a + b).coeffs == T.add(da, db)
    assert (a - b).coeffs == T.sub(da, db)
    assert (-a).coeffs == T.neg(da)
    assert (a * b).coeffs == T.mul(da, db)
    assert (a * a).coeffs == T.mul(da, da)
    assert (a ** n).coeffs == T.pow(da, n)
    assert (a ** p).coeffs == T.frob(da) == F._digits(F._frob(a.v))
    if any(da):
        assert a.inverse().coeffs == T.inverse(da)
        assert (b / a).coeffs == T.mul(db, T.inverse(da))
