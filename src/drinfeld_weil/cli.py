"""Batch command-line surface: operators, torsion, pairings, verification.

Polynomials on the command line are comma-separated coefficient lists,
constant term first, matching the JSON file format.  An F_q coefficient
(of --f, or of --mu) is an integer c with 0 <= c < q, read as the
element sum a_i y^i of F_q = F_p[y]/(modulus) whose base-p digits are
c = sum a_i p^i, constant digit first.  An F_p digit (of --theta,
--g, --modulus or --mu-raw) is an integer in [0, p); any other value
is a usage error, never reduced mod p.  Exit codes: 0 on success, 1 on
a verification or mathematical failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (BadCharacteristic, NotATree, NotInvertibleModF,
                     NotTorsion, PoleOnModulus, SplittingFieldTooLarge,
                     TruncationTooShallow)
from .fields import PRIME_TEST_LIMIT, FiniteField, embed, is_prime, make_field
from .modules import DrinfeldModule, torsion_basis
from .pairing import weil_pairing
from .polys import PolyRing
from .verify import SUITES, run_suite
from .weil_ops import weil_op_r

USAGE_ERROR = 2
MATH_ERROR = 1
# weil-op refuses, before any work, an operator of rank above MAX_RANK or
# with more than MAX_OPERATOR_TERMS terms; deg(f)^rank bounds the count
MAX_RANK = 1000
MAX_OPERATOR_TERMS = 100_000
# pairing refuses, before the torsion basis is built, a module with
# deg(f)^2 * rank * 2^(rank-1) > MAX_PAIRING_PRODUCTS: its determinant makes
# under rank * 2^(rank-1) remainder products, deg(f)^2 coefficient products each
MAX_PAIRING_PRODUCTS = 100_000
MAX_CASES = 200  # verify --cases: the largest default per-family count

_MATH_ERRORS = (SplittingFieldTooLarge, BadCharacteristic, NotTorsion,
                NotInvertibleModF, PoleOnModulus, NotATree,
                TruncationTooShallow)


class UsageError(Exception):
    pass


def _parse_ints(text: str):
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}")


def _coeffs_below(text: str, bound: int, flag: str):
    """The integers of a comma-separated list, each checked to lie in
    [0, bound)."""
    out = _parse_ints(text)
    for c in out:
        if not 0 <= c < bound:
            raise UsageError(f"{flag} coefficient {c} is outside [0, {bound})")
    return out


def _fq_elems(field: FiniteField, text: str, flag: str):
    """The F_q coefficients of a comma-separated list, each c in [0, q)
    read through its base-p digits, constant digit first."""
    out = []
    for c in _coeffs_below(text, field.order, flag):
        digits = []
        for _ in range(field.e):
            c, a = divmod(c, field.p)
            digits.append(a)
        out.append(field.elem(digits))
    return out


def _factor_prime_power(q: int):
    """(p, e) with q = p^e and p prime, from the integer e-th roots of q."""
    if q >= PRIME_TEST_LIMIT:
        raise UsageError(f"{q} is too large: q must be below {PRIME_TEST_LIMIT}")
    for e in range(1, max(q, 1).bit_length()):
        p = _iroot(q, e)
        if p ** e == q and is_prime(p):
            return p, e
    raise UsageError(f"{q} is not a prime power")


def _iroot(q: int, e: int) -> int:
    """floor(q^(1/e)) for q >= 1, by Newton's method from above."""
    x = 1 << -(-q.bit_length() // e)
    while True:
        y = ((e - 1) * x + q // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def _q_field(args) -> FiniteField:
    p, e = _factor_prime_power(args.q)
    try:
        return make_field(p, e)
    except ValueError as exc:
        raise UsageError(str(exc))


def _module_from_args(args) -> DrinfeldModule:
    qf = _q_field(args)
    ext = args.field_ext
    if ext < 1:
        raise UsageError("--field-ext must be >= 1")
    try:
        if ext == 1 and args.modulus is None:
            base = qf
        else:
            modulus = (_coeffs_below(args.modulus, qf.p, "--modulus")
                       if args.modulus else None)
            base = make_field(qf.p, qf.e * ext, modulus)
    except ValueError as exc:
        raise UsageError(str(exc))
    emb = embed(qf, base) if base != qf else (lambda c: c)
    if args.theta is None:
        raise UsageError("--theta is required")
    try:
        theta = base.elem(_coeffs_below(args.theta, qf.p, "--theta"))
        g = [base.elem(_coeffs_below(gi, qf.p, "--g")) for gi in args.g or []]
    except ValueError as exc:
        raise UsageError(str(exc))
    if not g:
        raise UsageError("at least one --g coefficient is required")
    try:
        return DrinfeldModule(qf, base, theta, g, emb)
    except ValueError as exc:
        raise UsageError(str(exc))


def _modulus_poly(args, field: FiniteField, var="x"):
    if args.f is None:
        raise UsageError("--f is required")
    f = PolyRing(field, var).poly(_fq_elems(field, args.f, "--f"))
    if f.is_zero() or not f.is_monic() or f.degree < 1:
        raise UsageError("--f must be monic of degree >= 1 (constant term first)")
    return f


def cmd_weil_op(args) -> int:
    qf = _q_field(args)
    f = _modulus_poly(args, qf, var="t")
    if args.rank < 1:
        raise UsageError("--rank must be >= 1")
    if args.rank > MAX_RANK:
        raise UsageError(f"--rank must be <= {MAX_RANK}")
    n = int(f.degree)
    if n ** args.rank > MAX_OPERATOR_TERMS:
        raise UsageError(f"operator would have up to deg(f)^rank = {n}^{args.rank} "
                         f"terms, more than {MAX_OPERATOR_TERMS}")
    op = weil_op_r(f, args.rank)
    if args.format == "latex":
        print(op.latex())
    elif args.format == "json":
        print(_weil_op_json(op))
    else:
        print(op.text())
    return 0


def _weil_op_json(op) -> str:
    """{"vars": [...], "terms": [[exps, digits], ...]} as json.dumps
    writes it, the terms in ascending exponent order as weil_op_r gives
    them.  Neighbouring terms share their head exps[:-1], whose
    "[[k1, k2, " prefix is formed once per head; each (last exponent,
    coefficient) tail "i], [d0, d1]]" is formed once and serves every
    permutation of its multiset."""
    tails = {}
    parts = []
    head = prefix = None
    for exps, c in op.terms.items():
        if exps[:-1] != head:
            head = exps[:-1]
            prefix = "[[" + ", ".join(map(str, head)) + ", " if head else "[["
        key = (exps[-1], c.v)
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = f"{exps[-1]}], {json.dumps(list(c.coeffs))}]"
        parts.append(prefix + tail)
    return f'{{"vars": {json.dumps(list(op.ring.names))}, "terms": [{", ".join(parts)}]}}'


def cmd_torsion(args) -> int:
    M = _module_from_args(args)
    f = _modulus_poly(args, M.q_field)
    tb = torsion_basis(M, f)
    out = {"module": M.describe(), "f": _parse_ints(args.f)}
    out.update(tb.describe())
    if args.format == "text":
        print(f"splitting extension s = {tb.s} "
              f"(field GF({tb.field_ext.p}^{tb.field_ext.e}))")
        print(f"cardinality = {tb.cardinality()}")
        for pt in tb.points:
            print(f"basis: {pt}")
    else:
        print(json.dumps(out))
    return 0


def cmd_pairing(args) -> int:
    M = _module_from_args(args)
    f = _modulus_poly(args, M.q_field)
    n, r = int(f.degree), M.rank
    if n * n * r * 2 ** (r - 1) > MAX_PAIRING_PRODUCTS:
        raise UsageError(f"pairing would form deg(f)^2 * rank * 2^(rank-1) = "
                         f"{n}^2 * {r} * 2^{r - 1} coefficient products, "
                         f"more than {MAX_PAIRING_PRODUCTS}")
    tb = torsion_basis(M, f)
    Mx = tb.module_ext
    mus = []
    for sel in args.mu or []:
        coeffs = _fq_elems(M.q_field, sel, "--mu")
        if len(coeffs) != len(tb.points):
            raise UsageError(f"--mu needs {len(tb.points)} coefficients")
        mus.append(tb.combine(coeffs))
    for sel in args.mu_raw or []:
        digits = _coeffs_below(sel, tb.field_ext.p, "--mu-raw")
        try:
            mus.append(tb.field_ext.elem(digits))
        except ValueError as exc:
            raise UsageError(f"--mu-raw: {exc} "
                             f"(splitting field has degree {tb.field_ext.e})")
    if len(mus) != M.rank:
        raise UsageError(f"need exactly {M.rank} torsion points "
                         f"(--mu/--mu-raw), got {len(mus)}")
    value = weil_pairing(Mx, f, mus)
    psi_ok = Mx.exterior().phi_of(f).apply(value).is_zero()
    if args.format == "json":
        print(json.dumps({"value": list(value.coeffs), "value_str": str(value),
                          "psi_annihilates": psi_ok}))
    else:
        print(f"W = {value}")
        print(f"psi_f(W) = 0: {psi_ok}")
    return 0 if psi_ok else MATH_ERROR


def cmd_verify(args) -> int:
    if args.suite not in SUITES and args.suite != "all":
        print(f"unknown suite: {args.suite}", file=sys.stderr)
        return USAGE_ERROR
    if args.cases is not None and args.cases < 1:
        raise UsageError("--cases must be >= 1")
    if args.cases is not None and args.cases > MAX_CASES:
        raise UsageError(f"--cases must be <= {MAX_CASES}")
    reports = run_suite(args.suite, seed=args.seed, cases=args.cases)
    failures = sum(len(r["failures"]) for r in reports)
    body = reports[0] if len(reports) == 1 else reports
    if args.format == "text":
        for r in reports:
            status = "ok" if not r["failures"] else f"{len(r['failures'])} FAILURES"
            print(f"{r['suite']}: {r['cases']} cases, {status}, {r['elapsed']}s")
        for r in reports:
            for fl in r["failures"]:
                print(f"  FAIL {r['suite']}/{fl['case']} [{fl['inputs']}] "
                      f"lhs={fl['lhs']} rhs={fl['rhs']}")
    else:
        print(json.dumps(body))
    return min(failures, 1)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="drinfeld-weil",
        description="Exact Weil-operator calculus and Drinfeld-module pairings "
                    "over small function fields.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_module_flags(sp):
        sp.add_argument("--q", type=int, required=True,
                        help="order of the coefficient field F_q (prime power)")
        sp.add_argument("--field-ext", type=int, default=1,
                        help="degree m of the base A-field F_{q^m} over F_q")
        sp.add_argument("--modulus", help="base-field modulus over F_p, "
                                          "comma-separated, constant first")
        sp.add_argument("--theta", help="theta as F_p coefficients of the base field")
        sp.add_argument("--g", action="append",
                        help="module coefficient g_i (repeat once per i)")
        sp.add_argument("--f", help="modulus polynomial over F_q, constant first, "
                                    "coefficients in [0, q) as base-p digits")

    w = sub.add_parser("weil-op", help="print a rank-r Weil operator")
    w.add_argument("--q", type=int, required=True)
    w.add_argument("--f", required=True)
    w.add_argument("--rank", type=int, required=True)
    w.add_argument("--format", choices=("text", "json", "latex"), default="text")
    w.set_defaults(func=cmd_weil_op)

    t = sub.add_parser("torsion", help="compute an f-torsion basis")
    add_module_flags(t)
    t.add_argument("--format", choices=("text", "json"), default="json")
    t.set_defaults(func=cmd_torsion)

    pr = sub.add_parser("pairing", help="evaluate the Weil pairing on torsion points")
    add_module_flags(pr)
    pr.add_argument("--mu", action="append",
                    help="torsion point as F_q coefficients over the computed basis, "
                         "each in [0, q) as base-p digits")
    pr.add_argument("--mu-raw", action="append",
                    help="raw splitting-field element (F_p coefficients)")
    pr.add_argument("--format", choices=("text", "json"), default="text")
    pr.set_defaults(func=cmd_pairing)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True,
                   help="one of: " + ", ".join(sorted(SUITES) + ["all"]))
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--cases", type=int, default=None,
                   help=f"override the per-family case count (1 to {MAX_CASES})")
    v.add_argument("--format", choices=("text", "json"), default="json")
    v.set_defaults(func=cmd_verify)

    return ap


_PARSER = None  # built by the first main() call, not at import


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    parser = _PARSER
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except _MATH_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return MATH_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
