"""Check that the tests catch each of a table of deliberate source edits.

    python3 tools/mutants.py

Every entry of ``MUTANTS`` names one edit: a string that must occur exactly
once in a file of ``src/sck``, and what replaces it, plus the tests meant to
catch it.  HEAD is exported with ``git archive`` into a temporary directory
(``TMPDIR`` sets where), the named tests run once unedited, and then each
edit is applied to a fresh copy of the export and its tests run there.  A
mutant is killed when one of them fails; every failing test is printed
beside it.  The exit status is 1 when a mutant survives or an edit no
longer applies, 2 when a named test fails on the unedited revision.
Standard library only; not part of the test suite, since each mutant costs
one pytest start.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

from bench_record import export


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


_CC = "tests/test_controllability.py::"
_GA = "tests/test_galerkin.py::TestAssembleDivform::"
MUTANTS = [
    Mutant("roundoff-1024eps", "src/sck/controllability.py",
           "_ROUNDOFF = 16 * np.finfo(float).eps", "_ROUNDOFF = 1024 * np.finfo(float).eps",
           (_CC + "TestCheckCondition",)),
    Mutant("roundoff-1eps", "src/sck/controllability.py",
           "_ROUNDOFF = 16 * np.finfo(float).eps", "_ROUNDOFF = 1 * np.finfo(float).eps",
           (_CC + "TestSpectralCore",)),
    Mutant("sweep-tol-1e-7", "src/sck/controllability.py",
           "_SWEEP_TOL = 1e-9", "_SWEEP_TOL = 1e-7", (_CC + "TestStrictInvariantSubspace",)),
    Mutant("sweep-tol-1e-5", "src/sck/controllability.py",
           "_SWEEP_TOL = 1e-9", "_SWEEP_TOL = 1e-5", (_CC + "TestStrictInvariantSubspace",)),
    Mutant("galerkin-cosine-sum-sign", "src/sck/galerkin.py",
           "alpha.real[d] + alpha.real[t]", "alpha.real[d] - alpha.real[t]",
           (_GA + "test_matches_sine_table_reference",)),
    Mutant("galerkin-noise-sign-dropped", "src/sck/galerkin.py",
           "s.imag[t] + np.sign(j - k) * s.imag[d]", "s.imag[t] + s.imag[d]",
           (_GA + "test_matches_sine_table_reference",)),
    Mutant("sweep-exit-always", "src/sck/controllability.py",
           "if s > 2 * _SWEEP_TOL * (1.0 + np.linalg.norm(C, 1) * np.linalg.norm(C, np.inf)):",
           "if V.shape[1] > 0:", (_CC + "TestStrictInvariantSubspace",)),
    Mutant("z-max-400", "src/sck/bsde.py", "_Z_MAX = 4.0", "_Z_MAX = 400.0",
           ("tests/test_bsde.py::TestDualityCheck",)),
    # the duality gates catch the slip only when the helper has not yet drawn
    # dW_{k+1}; the row-vector reference catches it whenever it happens
    Mutant("noise-ring-slip", "src/sck/sde.py", "dw = dws[k % 3]", "dw = dws[(k + 1) % 3]",
           ("tests/test_sde.py::TestSimulateForward::test_matches_reference_loop",)),
    Mutant("claim-always-waits", "src/sck/systems.py",
           "return lambda: fn(*args) if future.cancel() else future.result()",
           "return lambda: future.result()",
           ("tests/test_sde.py::TestTwoThreadSweep::test_claim_winner_moves_no_bit",
            _CC + "TestTwoThreadVerdict::test_claim_winner_moves_no_bit")),
    Mutant("trivial-subspace-absolute", "src/sck/systems.py",
           "        if nv == 0.0:\n            return True\n",
           "        if nv == 0.0:\n            return True\n"
           "        if self.dim == 0:\n            return nv <= tol\n",
           ("tests/test_systems.py::TestSubspaceBasis::test_trivial_subspace",)),
    Mutant("explicit-lambda-unchecked", "src/sck/controllability.py",
           "lambda_set(sys, lams + [lam for lam, _ in explicit_points], cfg)",
           "lambda_set(sys, lams, cfg)",
           (_CC + "TestCheckCondition", "tests/test_cli.py::TestErrorStatuses")),
]


def run_tests(tree: str, tests) -> tuple[int, str, list[str]]:
    """pytest's exit status on ``tests`` in ``tree``, the last line of its
    report, and the tests that failed."""
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                          *tests], cwd=tree, capture_output=True, text=True)
    lines = run.stdout.splitlines() or [run.stderr.strip()]
    failed = [line.split()[1] for line in lines if line.startswith("FAILED ")]
    return run.returncode, lines[-1], failed


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="sck-mutants-") as tmp:
        base = os.path.join(tmp, "base")
        export("HEAD", base)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        code, last, failed = run_tests(base, tests)
        if code:
            print(f"the unedited HEAD fails its named tests: {failed or last}")
            return 2
        status = 0
        for m in MUTANTS:
            tree = os.path.join(tmp, m.name)
            shutil.copytree(base, tree)
            path = os.path.join(tree, m.path)
            with open(path) as f:
                text = f.read()
            if text.count(m.old) != 1:
                print(f"{'stale':9} {m.name}: the edit's text occurs {text.count(m.old)} times "
                      f"in {m.path}")
                status = 1
                continue
            with open(path, "w") as f:
                f.write(text.replace(m.old, m.new))
            code, last, failed = run_tests(tree, m.tests)
            if code:
                print(f"{'killed':9} {m.name}: {', '.join(failed) or last}")
            else:
                print(f"{'survived':9} {m.name}: {last}")
                status = 1
            shutil.rmtree(tree)
            sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
