import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from drinfeld_weil import PolyRing, make_field
from drinfeld_weil import cli
from drinfeld_weil.cli import MAX_OPERATOR_TERMS, main
from drinfeld_weil.weil_ops import weil_op_r


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_weil_op_examples(capsys):
    code, out, _ = run_cli(capsys, "weil-op", "--q", "3", "--f", "1,0,1", "--rank", "2")
    assert code == 0 and out.strip() == "X1 + X2"
    code, out, _ = run_cli(capsys, "weil-op", "--q", "2", "--f", "0,0,1", "--rank", "3")
    assert code == 0 and out.strip() == "X1*X2 + X1*X3 + X2*X3"
    code, out, _ = run_cli(capsys, "weil-op", "--q", "3", "--f", "1,0,1", "--rank", "1")
    assert code == 0 and out.strip() == "1"


def test_weil_op_latex_and_json(capsys):
    code, out, _ = run_cli(capsys, "weil-op", "--q", "3", "--f", "1,0,1",
                           "--rank", "2", "--format", "latex")
    assert code == 0 and out.strip() == "X_{1} + X_{2}"
    code, out, _ = run_cli(capsys, "weil-op", "--q", "3", "--f", "1,0,1",
                           "--rank", "2", "--format", "json")
    body = json.loads(out)
    assert body["vars"] == ["X1", "X2"]
    assert [[ [0, 1], [1] ], [ [1, 0], [1] ]] == body["terms"]


def test_weil_op_malformed_input(capsys):
    assert run_cli(capsys, "weil-op", "--q", "3", "--f", "1,0", "--rank", "2")[0] == 2
    assert run_cli(capsys, "weil-op", "--q", "6", "--f", "0,1", "--rank", "2")[0] == 2
    assert run_cli(capsys, "weil-op", "--q", "3", "--f", "zzz", "--rank", "2")[0] == 2


def test_weil_op_large_prime_q_is_fast(capsys):
    # a deterministic primality test, so a nine-digit prime q answers at once
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "weil-op", "--q", "100000007", "--f", "1,0,1",
                           "--rank", "2")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and out.strip() == "X1 + X2"


def test_weil_op_large_prime_square_q_is_fast(capsys):
    # q = 100000007^2 is found as an integer square root, not by division
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "weil-op", "--q", "10000001400000049",
                           "--f", "1,0,1", "--rank", "2")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and out.strip() == "X1 + X2"


def test_weil_op_oversized_operator_exit_2_fast(capsys):
    # deg(f)^rank = 6^8 terms would print 27 MB; the count is refused first
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "weil-op", "--q", "2", "--f", "1,1,1,1,1,1,1",
                             "--rank", "8", "--format", "json")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err == ("error: operator would have up to deg(f)^rank = 6^8 terms, "
                   "more than 100000\n")
    code, out, err = run_cli(capsys, "weil-op", "--q", "2", "--f", "1,1",
                             "--rank", "1001")
    assert code == 2 and out == "" and err == "error: --rank must be <= 1000\n"


def test_weil_op_bound_admits_the_largest_benchmark_cells(capsys):
    # rank 6 with deg f = 4 (4^6 = 4096 terms) and the bound's edge cases
    for f, r in (("1,1,1,1,1", 6), ("1,1,1,1,1,1", 7), ("1,1", 1000)):
        code, out, _ = run_cli(capsys, "weil-op", "--q", "2", "--f", f,
                               "--rank", str(r), "--format", "json")
        assert code == 0 and json.loads(out)["terms"]


def test_q_product_of_two_large_primes_exit_2_fast(capsys):
    q = str(100000007 * 100000037)
    t0 = time.perf_counter()
    code, _, err = run_cli(capsys, "weil-op", "--q", q, "--f", "1,0,1", "--rank", "2")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and err == f"error: {q} is not a prime power\n"


def test_q_beyond_exact_primality_exit_2(capsys):
    # 2^82 is a prime power, but q this large is refused, not guessed at
    for q in ("3317044064679887385961981", str(2 ** 82)):
        code, out, err = run_cli(capsys, "weil-op", "--q", q, "--f", "1,0,1",
                                 "--rank", "2")
        assert code == 2 and out == ""
        assert err == (f"error: {q} is too large: q must be below "
                       "3317044064679887385961981\n")


# weil-op over q in {2, 3, 4, 5, 7, 9}, ranks 1-5, deg f 1-4
WEIL_OP_GRID = [(2, "1,1", 1), (2, "0,0,1", 5), (2, "1,1,0,1", 4), (3, "1,0,1", 2),
                (3, "2,1,0,1", 4), (3, "1,2,0,2,1", 3), (4, "1,1,1", 3),
                (4, "0,1,0,1", 4), (5, "2,0,1", 4), (5, "1,3,4,1", 3), (7, "3,1", 5),
                (7, "1,2,3,6,1", 3), (9, "1,0,1", 3), (9, "2,1,1,1", 4)]
# sha256 of the concatenated output over the grid, from the MPoly
# product-and-reduce construction of the operators
WEIL_OP_GRID_SHA256 = {
    "json": "83fe5d7367151f0ffe810dec9a38664c661a872a7c63dcfd908824cd5a5cd939",
    "text": "e3a9772b0edd9d53b1bc50119c9cb8de66eb62b25f55c0e9971a6fc799e249d8",
    "latex": "013afca08f95445498873b67e460aa36ac36bd99da87c072b6a00e68734b01c8",
}


def test_weil_op_output_pinned(capsys):
    for fmt, expected in WEIL_OP_GRID_SHA256.items():
        h = hashlib.sha256()
        for q, f, r in WEIL_OP_GRID:
            code, out, _ = run_cli(capsys, "weil-op", "--q", str(q), "--f", f,
                                   "--rank", str(r), "--format", fmt)
            assert code == 0
            h.update(out.encode())
        assert h.hexdigest() == expected, fmt


def _main_output(argv):
    """(exit code, stdout, stderr) of one main() call, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def weil_op_json_oracle(q, f, r):
    """`weil-op --format json` output as json.dumps writes it from the
    operator's sorted terms."""
    p, e = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 9: (3, 2)}[q]
    field = make_field(p, e)
    digits = [field.elem([c // p ** i % p for i in range(e)]) for c in f]
    op = weil_op_r(PolyRing(field, "t").poly(digits), r)
    terms = [[list(exps), list(c.coeffs)] for exps, c in sorted(op.terms.items())]
    return json.dumps({"vars": list(op.ring.names), "terms": terms}) + "\n"


@st.composite
def _weil_op_cell(draw):
    # sparse f (zero lower coefficients) leaves whole heads without terms
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 9)))
    r = draw(st.integers(1, 6))
    n = draw(st.integers(1, 5))
    coeff = st.one_of(st.just(0), st.integers(0, q - 1))
    f = draw(st.lists(coeff, min_size=n, max_size=n)) + [1]
    return q, f, r


@settings(max_examples=100, deadline=None)
@given(_weil_op_cell())
# rank 1 (an empty head), f = x^n (heads whose product vanishes) and F_4
# and F_9 digits at the largest ranks
@example((3, [1, 0, 1], 1))
@example((9, [8, 1], 1))
@example((2, [0, 0, 0, 1], 4))
@example((9, [0, 0, 0, 0, 0, 1], 6))
@example((4, [3, 2, 1, 0, 2, 1], 6))
def test_weil_op_json_matches_json_dumps_oracle(cell):
    q, f, r = cell
    assert (len(f) - 1) ** r <= MAX_OPERATOR_TERMS
    code, out, err = _main_output(["weil-op", "--q", str(q), "--f", ",".join(map(str, f)),
                                   "--rank", str(r), "--format", "json"])
    assert (code, err) == (0, "")
    assert out == weil_op_json_oracle(q, f, r)


# a usage error of argparse and of the program, a --g list longer than the
# next call's, and weil-op in every format
PARSER_REUSE_CALLS = (
    ["weil-op", "--q", "3", "--f", "1,0,1"],
    ["weil-op", "--q", "6", "--f", "1,0,1", "--rank", "2"],
    ["torsion", "--q", "2", "--field-ext", "2", "--theta", "0,1", "--g", "1", "--g", "1",
     "--f", "0,1"],
    ["torsion", "--q", "2", "--field-ext", "2", "--theta", "0,1", "--g", "1", "--f", "0,1"],
    ["weil-op", "--q", "3", "--f", "2,1,0,1", "--rank", "3"],
    ["weil-op", "--q", "9", "--f", "5,1,1", "--rank", "3", "--format", "json"],
    ["weil-op", "--q", "5", "--f", "2,0,1", "--rank", "4", "--format", "latex"],
    ["weil-op", "--q", "3", "--f", "2,1,0,1", "--rank", "3", "--format", "text"],
)


def test_one_parser_serves_every_call(monkeypatch):
    fresh = []
    for argv in PARSER_REUSE_CALLS:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(_main_output(argv))
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_PARSER", None)
    reused = [_main_output(argv) for argv in PARSER_REUSE_CALLS]
    assert len(built) == 1
    assert [code for code, _, _ in fresh] == [2, 2, 0, 0, 0, 0, 0, 0]
    assert json.loads(fresh[2][1])["cardinality"] != json.loads(fresh[3][1])["cardinality"]
    assert reused == fresh


def test_importing_the_cli_builds_no_parser():
    code = ("import argparse, sys\n"
            "sys.path.insert(0, 'src')\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = "
            "lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
            "import drinfeld_weil.cli as cli\n"
            "assert cli._PARSER is None and not built, built\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).resolve().parent.parent,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_q_not_a_prime_power_exit_2(capsys):
    for q in ("12", "36", "1", "0", "-4", "200000014"):
        code, _, err = run_cli(capsys, "weil-op", "--q", q, "--f", "1,0,1",
                               "--rank", "2")
        assert code == 2
        assert err == f"error: {q} is not a prime power\n"
    code, out, _ = run_cli(capsys, "weil-op", "--q", "8", "--f", "1,0,1", "--rank", "2")
    assert code == 0 and out.strip() == "X1 + X2"


def test_torsion_splitting_field_too_large_fails_fast(capsys):
    # rank 2 with a cubic f: the true splitting degree is far beyond the cap
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "torsion", "--q", "3", "--theta", "1",
                             "--g", "1", "--g", "1", "--f", "1,2,0,1")
    assert time.perf_counter() - t0 < 2.0
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("SplittingFieldTooLarge: ")


def test_torsion_f9_degree_six_extension(capsys):
    code, out, _ = run_cli(capsys, "torsion", "--q", "3", "--field-ext", "2",
                           "--theta", "0,1", "--g", "1", "--g", "1", "--f", "0,1")
    assert code == 0
    assert json.loads(out)["s"] == 6
    assert out == F9_RANK2_TORSION


# The extension scan's output for the command above, which built every
# GF(3^(2s)) for s = 1..6 on its way to the answer.
F9_RANK2_TORSION = (
    '{"module": {"field": {"p": 3, "e": 2, "modulus": [1, 0, 1]}, "q": 3, '
    '"theta": [0, 1], "g": [[1, 0], [1, 0]]}, "f": [0, 1], "splitting_field": '
    '{"p": 3, "e": 12, "modulus": [1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1]}, '
    '"s": 6, "cardinality": 9, "basis": [[2, 1, 0, 1, 2, 0, 1, 1, 2, 2, 1, 0], '
    '[0, 2, 2, 2, 2, 2, 0, 2, 1, 0, 0, 1]]}\n')


def test_torsion_carlitz_f4(capsys):
    code, out, _ = run_cli(capsys, "torsion", "--q", "2", "--field-ext", "2",
                           "--theta", "0,1", "--g", "1", "--f", "0,1")
    assert code == 0
    body = json.loads(out)
    assert body["cardinality"] == 2
    assert body["s"] == 1
    assert body["basis"] == [[0, 1]]  # the distinguished generator theta


def test_torsion_rank2_f4_size(capsys):
    code, out, _ = run_cli(capsys, "torsion", "--q", "2", "--field-ext", "2",
                           "--theta", "0,1", "--g", "1", "--g", "1", "--f", "0,1")
    assert code == 0
    assert json.loads(out)["cardinality"] == 4


def test_torsion_bad_characteristic_exit_1(capsys):
    code, _, err = run_cli(capsys, "torsion", "--q", "2", "--field-ext", "2",
                           "--theta", "0,1", "--g", "1", "--f", "1,1,1")
    assert code == 1
    assert "BadCharacteristic" in err


def test_torsion_field_ext_zero_exit_2(capsys):
    for ext in ("0", "-1"):
        code, out, err = run_cli(capsys, "torsion", "--q", "2", "--theta", "1",
                                 "--g", "1", "--f", "0,1", "--field-ext", ext)
        assert code == 2 and out == ""
        assert err == "error: --field-ext must be >= 1\n"


def test_torsion_bad_config_exit_2(capsys):
    code, _, _ = run_cli(capsys, "torsion", "--q", "2", "--theta", "0,0,9,9",
                         "--g", "1", "--f", "0,1")
    assert code == 2


def test_pairing_basis_pair_generates(capsys):
    code, out, _ = run_cli(capsys, "pairing", "--q", "2", "--theta", "1",
                           "--g", "1", "--g", "1", "--f", "0,1",
                           "--mu", "1,0", "--mu", "0,1", "--format", "json")
    assert code == 0
    body = json.loads(out)
    assert body["psi_annihilates"] is True
    assert any(body["value"])  # nonzero generator


def test_pairing_repeated_selector_zero(capsys):
    code, out, _ = run_cli(capsys, "pairing", "--q", "2", "--theta", "1",
                           "--g", "1", "--g", "1", "--f", "0,1",
                           "--mu", "1,0", "--mu", "1,0", "--format", "json")
    assert code == 0
    assert not any(json.loads(out)["value"])


def test_pairing_swap_negates(capsys):
    base = ["pairing", "--q", "3", "--theta", "1", "--g", "1", "--g", "1",
            "--f", "0,1", "--format", "json"]
    _, out1, _ = run_cli(capsys, *base, "--mu", "1,0", "--mu", "0,1")
    _, out2, _ = run_cli(capsys, *base, "--mu", "0,1", "--mu", "1,0")
    v1 = json.loads(out1)["value"]
    v2 = json.loads(out2)["value"]
    assert v1 != v2
    assert [(-a) % 3 for a in v1] == v2


def test_pairing_not_torsion_exit_1(capsys):
    code, _, err = run_cli(capsys, "pairing", "--q", "3", "--theta", "1",
                           "--g", "1", "--g", "1", "--f", "0,1",
                           "--mu", "1,0", "--mu-raw", "0,1,0")
    assert code == 1
    assert "NotTorsion" in err


# An F_q coefficient c in [0, q) is the element whose F_p digits are the
# base-p digits of c, constant digit first: over F_4 = F_2[y]/(y^2+y+1),
# 2 is y and 3 is y + 1.

def test_weil_op_reads_fq_coefficients_as_base_p_digits(capsys):
    # x^2 + y x has operator X1 + X2 + y; reading 2 mod p dropped the y
    code, out, _ = run_cli(capsys, "weil-op", "--q", "4", "--f", "0,2,1", "--rank", "2")
    assert (code, out) == (0, "X1 + X2 + y\n")
    code, out, _ = run_cli(capsys, "weil-op", "--q", "4", "--f", "0,2,1",
                           "--rank", "2", "--format", "json")
    assert json.loads(out)["terms"] == [[[0, 0], [0, 1]], [[0, 1], [1, 0]],
                                        [[1, 0], [1, 0]]]
    code, out, _ = run_cli(capsys, "weil-op", "--q", "9", "--f", "5,1", "--rank", "1")
    assert (code, out) == (0, "1\n")


def test_pairing_mu_reads_fq_coefficients_as_base_p_digits(capsys):
    # W(y mu_1, mu_2) = y W(mu_1, mu_2), y embedded in the splitting field
    from drinfeld_weil import embed, make_field
    base = ["--q", "4", "--theta", "1", "--g", "1", "--g", "1", "--f", "0,1"]
    code, out, _ = run_cli(capsys, "torsion", *base)
    sf = json.loads(out)["splitting_field"]
    big = make_field(sf["p"], sf["e"], sf["modulus"])
    y = embed(make_field(2, 2), big)(make_field(2, 2).gen())
    values = []
    for mu1 in ("1,0", "2,0"):
        code, out, _ = run_cli(capsys, "pairing", *base, "--mu", mu1, "--mu", "0,1",
                               "--format", "json")
        assert code == 0
        values.append(big.elem(json.loads(out)["value"]))
    assert not values[0].is_zero()
    assert values[1] == y * values[0]


def test_fq_coefficient_outside_range_exit_2(capsys):
    base = ["pairing", "--q", "4", "--theta", "1", "--g", "1", "--g", "1"]
    code, out, err = run_cli(capsys, *base, "--f", "0,1", "--mu", "4,0", "--mu", "0,1")
    assert (code, out, err) == (2, "", "error: --mu coefficient 4 is outside [0, 4)\n")
    code, out, err = run_cli(capsys, *base, "--f=-1,1", "--mu", "1,0", "--mu", "0,1")
    assert (code, out, err) == (2, "", "error: --f coefficient -1 is outside [0, 4)\n")
    code, out, err = run_cli(capsys, "weil-op", "--q", "3", "--f", "3,1", "--rank", "2")
    assert (code, out, err) == (2, "", "error: --f coefficient 3 is outside [0, 3)\n")


# An F_p digit (of --theta, --g, --modulus or --mu-raw) outside [0, p) is a
# usage error; it used to be reduced mod p without a word.

def test_theta_digit_outside_range_exit_2(capsys):
    for q, theta, p in (("3", "5", 3), ("4", "3", 2), ("2", "-1", 2)):
        code, out, err = run_cli(capsys, "torsion", "--q", q, f"--theta={theta}",
                                 "--g", "1", "--f", "0,1")
        assert (code, out, err) == (
            2, "", f"error: --theta coefficient {theta} is outside [0, {p})\n")


def test_g_digit_outside_range_exit_2(capsys):
    code, out, err = run_cli(capsys, "torsion", "--q", "4", "--theta", "0,1",
                             "--g", "1", "--g", "0,2", "--f", "0,1")
    assert (code, out, err) == (2, "", "error: --g coefficient 2 is outside [0, 2)\n")


def test_modulus_digit_outside_range_exit_2(capsys):
    # 1 + y + 3y^2 used to be read as the monic 1 + y + y^2
    code, out, err = run_cli(capsys, "torsion", "--q", "2", "--field-ext", "2",
                             "--modulus", "1,1,3", "--theta", "0,1", "--g", "1",
                             "--f", "0,1")
    assert (code, out, err) == (2, "", "error: --modulus coefficient 3 is outside [0, 2)\n")


def test_mu_raw_digit_outside_range_exit_2(capsys):
    code, out, err = run_cli(capsys, "pairing", "--q", "3", "--theta", "1",
                             "--g", "1", "--g", "1", "--f", "0,1",
                             "--mu", "1,0", "--mu-raw", "0,3,0")
    assert (code, out, err) == (2, "", "error: --mu-raw coefficient 3 is outside [0, 3)\n")


def test_verify_unknown_suite_exit_2(capsys):
    assert run_cli(capsys, "verify", "--suite", "bogus")[0] == 2


def test_verify_report_schema_and_exit(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "maurischat-perkins",
                           "--seed", "7")
    assert code == 0
    body = json.loads(out)
    assert set(body) == {"suite", "cases", "failures", "elapsed"}
    assert body["suite"] == "maurischat-perkins"
    assert body["cases"] > 0 and body["failures"] == []


def test_verify_deterministic_reports(capsys):
    # byte-identical apart from the elapsed wall-clock field
    def run_once():
        code, out, _ = run_cli(capsys, "verify", "--suite", "agf", "--seed", "3")
        assert code == 0
        body = json.loads(out)
        body.pop("elapsed")
        return json.dumps(body, sort_keys=False)

    assert run_once() == run_once()


# sha256 of the seed-3 reports without "elapsed", from the construction
# with a separate Moore determinant for generating functions and three
# rank-two operator builders; operators and pairing-axioms from the
# construction with separate rank-two and t-anchored operator builders;
# residues and remainders from the construction with a separate q-expansion
# action phi_apply_qexp and a second twist pass over each orbit
VERIFY_SEED3_SHA256 = {
    "agf": "1d3b24a17e94b05ab7dc1eef20e206b7cb389850006e3286a94b4f6a20875190",
    "main-theorem": "9058a604c9ccf596a029bae1254744bfcd0880789182ae7ed89ebca059497ff2",
    "maurischat-perkins": "fe4406383302eb71e105d519f50470dbbf13ce2f49ec57ea956c139183aab7a2",
    "operators --cases 10": "d3cfb9dcc6035d0dea625973d056d9db56d46a51460f7ad31a7c68949c3475c8",
    "pairing-axioms": "8151fdafb9dd12c5efbdba94f475f9ff9ce9216060d0ab5de986f2cd0391b16d",
    "remainders --cases 5": "a9e32b05eec012b0fe75ca68737b452a1a84cbc49d44cdc9ddf923994ee88215",
    "residues --cases 5": "42235afefa7580cef32aa8abe07eb50122e83d1a0261f6d40a52104a7d035393",
}


def test_verify_reports_pinned(capsys):
    for suite, expected in VERIFY_SEED3_SHA256.items():
        code, out, _ = run_cli(capsys, "verify", "--suite", *suite.split(),
                               "--seed", "3")
        assert code == 0
        body = json.loads(out)
        body.pop("elapsed")
        assert hashlib.sha256(json.dumps(body).encode()).hexdigest() == expected, suite


def test_verify_main_theorem_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "main-theorem",
                           "--seed", "7")
    assert code == 0
    body = json.loads(out)
    assert body["failures"] == [] and body["cases"] >= 12


def test_verify_cases_below_one_exit_2(capsys):
    for cases in ("0", "-3"):
        code, out, err = run_cli(capsys, "verify", "--suite", "remainders",
                                 "--cases", cases)
        assert code == 2 and out == ""
        assert err == "error: --cases must be >= 1\n"


def test_verify_cases_above_bound_exit_2_fast(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--cases", "201")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err == "error: --cases must be <= 200\n"


def test_verify_trunc_is_not_an_option(capsys):
    # suites pin their own truncation depths; argparse exits with code 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "agf", "--trunc", "3"])
    assert exc.value.code == 2
    assert "--trunc" in capsys.readouterr().err


def test_verify_text_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "maurischat-perkins",
                           "--format", "text")
    assert code == 0
    assert "maurischat-perkins" in out and "ok" in out


def _unit_selectors(rank):
    return [arg for i in range(rank)
            for arg in ("--mu", ",".join("1" if j == i else "0" for j in range(rank)))]


def test_pairing_oversized_rank_exit_2_fast(capsys):
    # phi_x = 1 + tau^14 over GF(2^2), f = x: the determinant would form
    # 14 * 2^13 products, so the pairing exits before the torsion basis
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "pairing", "--q", "2", "--field-ext", "2",
                             "--theta", "1", *["--g", "0"] * 13, "--g", "1",
                             "--f", "0,1", *_unit_selectors(14))
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err == ("error: pairing would form deg(f)^2 * rank * 2^(rank-1) = "
                   "1^2 * 14 * 2^13 coefficient products, more than 100000\n")


def test_pairing_bound_admits_its_largest_cell(capsys):
    # rank 12 with deg f = 1: 12 * 2^11 = 24,576 products, under the bound
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "pairing", "--q", "2", "--theta", "1",
                             *["--g", "0"] * 11, "--g", "1", "--f", "0,1",
                             *_unit_selectors(12))
    assert time.perf_counter() - t0 < 1.0
    assert (code, out, err) == (0, "W = 1\npsi_f(W) = 0: True\n", "")
