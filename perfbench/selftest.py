"""Self-test of the benchmark's checks: for each workload, one round of
real outputs passes, and the same round with one output corrupted is
rejected.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Exits 0 when every check accepts the real outputs and rejects the
corrupted ones.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(1, str(SRC))

import checks  # noqa: E402
import workloads  # noqa: E402


def corrupt_operators(wl, inputs, outputs):
    q = inputs[0][0]
    body = json.loads(outputs[0])
    body["terms"][0][1][0] = (body["terms"][0][1][0] + 1) % q
    return [json.dumps(body)] + outputs[1:]


def corrupt_pairing(wl, inputs, outputs):
    # W(a + b, ...) of the first group, shifted by 1
    v = outputs[2]
    bad = v.field.elem([(v.coeffs[0] + 1) % v.field.p] + list(v.coeffs[1:]))
    return outputs[:2] + [bad] + outputs[3:]


def corrupt_bridge(wl, inputs, outputs):
    rep = dict(outputs[0], monomials_checked=outputs[0]["monomials_checked"] - 1)
    return [rep] + outputs[1:]


def corrupt_torsion(wl):
    """A torsion basis with its first point shifted by 1."""
    M, fx, tb = wl.entries[0]
    q, _, _, g, f = wl.MODULES[0]
    desc = tb.describe()
    pt = desc["basis"][0]
    desc["basis"][0] = [(pt[0] + 1) % desc["splitting_field"]["p"]] + pt[1:]
    return checks.check_torsion_basis(q, len(g), list(f), desc, wl.actions[0])


CORRUPT = {"operators": corrupt_operators, "pairing": corrupt_pairing,
           "bridge": corrupt_bridge}


def main() -> int:
    ok = True
    for name, cls in workloads.WORKLOADS.items():
        wl = cls()
        wl.setup()
        inputs = wl.make_round(random.Random(f"selftest:{name}"))
        outputs = [wl.run(inp) for inp in inputs]
        cases = [("round", wl.check_round(inputs, outputs),
                  wl.check_round(inputs, CORRUPT[name](wl, inputs, outputs)))]
        if name == "pairing":
            cases.append(("torsion basis", wl.check_setup(), corrupt_torsion(wl)))
        for what, clean_errs, bad_errs in cases:
            passed = not clean_errs and bool(bad_errs)
            ok &= passed
            print(f"{'ok  ' if passed else 'FAIL'} {name} {what}: real output "
                  f"{'accepted' if not clean_errs else 'REJECTED ' + clean_errs[0]}; "
                  f"corrupted output "
                  f"{'rejected: ' + bad_errs[0] if bad_errs else 'ACCEPTED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
