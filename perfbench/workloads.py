"""The three workloads: seeded inputs, one program call per operation,
and the independent checks of every output.

A workload object has:

* ``setup()``: imports the package and builds whatever the operations
  need (fields, modules, torsion bases); this is what ``setup_s`` times;
* ``make_round(rng)``: the inputs of one round, drawn from the seeded rng;
* ``run(inp)``: one timed operation, returning the program's output;
* ``check_round(inputs, outputs)``: error strings for wrong outputs;
* ``check_setup()``: error strings for the set-up's outputs.

A round has the same operations, in the same proportions, in every run;
only the coefficients drawn from the seed differ.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io

import checks


def _random_monic(rng, q, n):
    return [rng.randrange(q) for _ in range(n)] + [1]


class Operators:
    """`weil-op --format json` through cli.main, stdout captured."""

    # (rank, deg f) cells, sized so that an operation takes 5-100 ms
    CELLS = ((3, 8), (3, 10), (4, 5), (4, 6), (5, 4), (5, 5), (6, 3), (6, 4))
    QS = (2, 3, 5, 7)

    def setup(self):
        self.cli = importlib.import_module("drinfeld_weil.cli")

    def make_round(self, rng):
        ops = []
        for q in self.QS:
            for r, n in self.CELLS:
                f = _random_monic(rng, q, n)
                argv = ["weil-op", "--q", str(q), "--f", ",".join(map(str, f)),
                        "--rank", str(r), "--format", "json"]
                ops.append((q, f, r, argv))
        return ops

    def run(self, inp):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(inp[3])
        if code != 0:
            raise RuntimeError(f"weil-op exited with {code}")
        return buf.getvalue()

    def check_round(self, inputs, outputs):
        errors = []
        for (q, f, r, _), out in zip(inputs, outputs):
            if out is not None:
                errors += checks.check_weil_op_json(q, f, r, out)
        return errors

    def check_setup(self):
        return []


class Pairing:
    """weil_pairing on r-tuples of torsion points of fixed (M, f)."""

    # (q, base degree m, theta, g, f); theta = None means the base generator.
    # The first two entries build GF(2^12) and GF(3^9) by the extension scan.
    # Six of the ten entries cost 0.3-0.6 ms a call, so the median operation
    # lies inside that band rather than in the gap above it.
    MODULES = (
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
    )

    def setup(self):
        dw = importlib.import_module("drinfeld_weil")
        self.weil_pairing = dw.weil_pairing
        self.entries = []
        for q, m, theta, g, f in self.MODULES:
            qf = dw.make_field(q)
            if m == 1:
                M = dw.DrinfeldModule(qf, qf, qf.elem(theta), [qf.elem(c) for c in g])
            else:
                base = dw.make_field(q, m)
                emb = dw.embed(qf, base)
                M = dw.DrinfeldModule(qf, base, base.gen(),
                                      [emb(qf.elem(c)) for c in g], emb)
            fx = dw.PolyRing(qf, "x").poly(list(f))
            tb = dw.torsion_basis(M, fx)
            self.entries.append((M, fx, tb))

    def make_round(self, rng):
        """Per entry: W(a, c..), W(b, c..), W(a+b, c..), W(a, a, c..)."""
        ops = []
        for i, (M, fx, tb) in enumerate(self.entries):
            q, r = M.q, M.rank
            p = tb.field_ext.p
            pts = [pt.coeffs for pt in tb.points]

            def draw():
                acc = [0] * tb.field_ext.e
                for pt in pts:
                    c = rng.randrange(q)
                    acc = [(x + c * y) % p for x, y in zip(acc, pt)]
                return acc

            a, b = draw(), draw()
            rest = [draw() for _ in range(r - 1)]
            ab = [(x + y) % p for x, y in zip(a, b)]
            el = tb.field_ext.elem
            group = ([a] + rest, [b] + rest, [ab] + rest, [a, a] + rest[1:])
            for args in group:
                ops.append((i, a, b, [el(v) for v in args]))
        return ops

    def run(self, inp):
        i, _, _, mus = inp
        M, fx, tb = self.entries[i]
        return self.weil_pairing(tb.module_ext, fx, mus)

    def check_round(self, inputs, outputs):
        errors = []
        for k in range(0, len(inputs), 4):
            i, a, b, _ = inputs[k]
            vals = outputs[k:k + 4]
            if any(v is None for v in vals):
                continue
            errors += checks.check_pairing_group(
                list(self.MODULES[i][4]), self.actions[i], a, b,
                [v.coeffs for v in vals])
        return errors

    @functools.cached_property
    def actions(self):
        """The benchmark's own phi per entry, in the reported splitting field."""
        actions = []
        for (q, m, theta, g, _), (M, _, tb) in zip(self.MODULES, self.entries):
            sf = tb.describe()["splitting_field"]
            gf = checks.GF(sf["p"], sf["modulus"])
            th = (gf.const(theta) if m == 1
                  else checks.base_generator_image(gf, list(M.base.modulus)))
            actions.append(checks.DrinfeldAction(gf, q, th, g))
        return actions

    def check_setup(self):
        errors = []
        for (q, _, _, g, f), (_, _, tb), action in zip(self.MODULES, self.entries,
                                                       self.actions):
            errors += checks.check_torsion_basis(q, len(g), list(f), tb.describe(), action)
        return errors


class Bridge:
    """main_theorem_check(M, f, r, N) over F_q(theta)."""

    # g as polynomials in theta; cells are (q, module, deg f, N).  Rank 3 at
    # q = 3 runs three times per round, so that the heaviest tenth of the
    # operations is one band of similar cost and p90 falls inside it.
    MODULES = {"carlitz": ((1,),), "rank2": ((0, 1), (1,)), "rank3": ((1,), (), (1,))}
    CELLS = tuple(
        (q, name, n, N)
        for q in (2, 3)
        for name, n, N in (
            [("carlitz", n, N) for N in (1, 2) for n in (1, 2, 3)]
            + [("rank2", n, 1) for n in (1, 2, 3)]
            + [("rank2", n, 2) for n in (1, 2)]
            + [("rank3", 1, 1)])) + ((3, "rank3", 1, 1),) * 2

    def setup(self):
        dw = importlib.import_module("drinfeld_weil")
        self.check = dw.main_theorem_check
        self.modules = {}
        self.x_rings = {}
        for q in (2, 3):
            F = dw.make_field(q)
            K = dw.FracField(dw.PolyRing(F, "theta"))
            for name, gs in self.MODULES.items():
                g = [K.frac(list(c)) for c in gs]
                self.modules[q, name] = dw.DrinfeldModule(F, K, K.gen(), g)
            self.x_rings[q] = dw.PolyRing(F, "x")

    def make_round(self, rng):
        ops = []
        for q, name, n, N in self.CELLS:
            f = _random_monic(rng, q, n)
            ops.append((q, name, f, N, self.modules[q, name], self.x_rings[q].poly(f)))
        return ops

    def run(self, inp):
        M, fx = inp[4], inp[5]
        return self.check(M, fx, M.rank, inp[3])

    def check_round(self, inputs, outputs):
        errors = []
        for (q, name, f, N, _, _), rep in zip(inputs, outputs):
            if rep is not None:
                errors += checks.check_bridge_report(f, len(self.MODULES[name]), N, rep)
        return errors

    def check_setup(self):
        return []


WORKLOADS = {"operators": Operators, "pairing": Pairing, "bridge": Bridge}
