"""The benchmark harness under perfbench/ runs against this checkout.

perfbench/selftest.py passes one round of each workload through the
benchmark's output checks and makes sure a corrupted round is rejected;
the tracer wraps every class it names in perfbench/tracing.py, so a
renamed or deleted class breaks traced runs.  Both run in a subprocess
from the root of the checkout, as the benchmark does, and so does the
check that importing the package, which the benchmark's setup_s times,
pulls in no heavy standard-library module it does not use.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)


def test_benchmark_selftest_passes():
    proc = _run("perfbench/selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout


def test_tracer_installs_on_the_package():
    code = ("import importlib, sys\n"
            "sys.path[:0] = ['src', 'perfbench']\n"
            "importlib.import_module('drinfeld_weil.cli')\n"
            "from tracing import Tracer\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "from drinfeld_weil import make_field\n"
            "make_field(2, 3)\n"
            "assert tracer.counts['fields.FiniteField.__init__'] == 1, tracer.counts\n")
    proc = _run("-c", code)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_package_import_loads_no_dataclasses_or_inspect():
    code = ("import sys\n"
            "sys.path.insert(0, 'src')\n"
            "import drinfeld_weil\n"
            "heavy = {'dataclasses', 'inspect'} & set(sys.modules)\n"
            "assert not heavy, sorted(heavy)\n")
    proc = _run("-c", code)
    assert proc.returncode == 0, proc.stdout + proc.stderr
