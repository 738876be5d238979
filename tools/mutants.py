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
_DC = ("tests/test_bsde.py::TestDualityCheck",)
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
    Mutant("z-max-400", "src/sck/bsde.py", "_Z_MAX = 4.0", "_Z_MAX = 400.0", _DC),
    # the six duality mutants: each side of the exact gate, and the simulator's Y_T
    Mutant("dual-drift-untransposed", "src/sck/bsde.py",
           "out[k] = out[k + 1] @ F", "out[k] = out[k + 1] @ F.T", _DC),
    Mutant("dual-lift-drops-c", "src/sck/bsde.py",
           "(out[k + 1, 1:] @ C)", "(out[k + 1, 1:] @ (0 * C))", _DC),
    Mutant("dual-lift-shifted-dt", "src/sck/bsde.py",
           "np.arange(1, len(y))", "np.arange(2, len(y) + 1)", _DC),
    Mutant("moments-lift-drops-c", "src/sck/bsde.py",
           "(M[k, :-1] @ C.T)", "(M[k, :-1] @ (0 * C.T))", _DC),
    Mutant("feedback-rows-dropped", "src/sck/bsde.py",
           "np.ravel(rows * y[1:, :rows.shape[1]])", "np.ravel(rows[:, :1] * y[1:, :1])", _DC),
    Mutant("terminal-scaled", "src/sck/bsde.py",
           'np.einsum("pi,pi->p", X, sol.Y[-1])', 'np.einsum("pi,pi->p", X, 1.05 * sol.Y[-1])', _DC),
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
    Mutant("explicit-points-unshaped", "src/sck/controllability.py",
           "if explicit_points.shape[1] != 2:", "if False:", (_CC + "TestCheckCondition",)),
    Mutant("expm-overflow-unchecked", "src/sck/systems.py",
           "if not np.all(np.isfinite(E)):", "if False:",
           ("tests/test_bsde.py::TestApproximationConvergence",
            "tests/test_cli.py::TestErrorStatuses")),
    # the pins: without one, an eigensolver's bits follow the thread count
    Mutant("lambda-set-unpinned", "src/sck/systems.py",
           "@_one_blas_thread()\ndef lambda_set(", "def lambda_set(",
           ("tests/test_kernels.py::test_algebra_bitwise_equal_across_blas_thread_counts",
            _CC + "TestOneBlasThread")),
    Mutant("b-coeffs-unpinned", "src/sck/galerkin.py",
           "@_one_blas_thread()\ndef b_coefficient_test(", "def b_coefficient_test(",
           ("tests/test_kernels.py::test_algebra_bitwise_equal_across_blas_thread_counts",
            _CC + "TestOneBlasThread")),
    # library input gates
    Mutant("as-array-uncaught", "src/sck/systems.py",
           "except (TypeError, ValueError) as exc:", "except ZeroDivisionError as exc:",
           ("tests/test_systems.py::TestStochasticSystem", _CC + "TestCheckCondition")),
    Mutant("n-list-unchecked", "src/sck/bsde.py",
           'n_list = [as_int(v, f"n_list[{i}]", 1) for i, v in enumerate(n_list)]',
           "n_list = [int(v) for v in n_list]",
           ("tests/test_bsde.py::TestApproximationConvergence",)),
    Mutant("delta-list-unchecked", "src/sck/bsde.py",
           'delta_list = as_array(delta_list, 1, "delta_list").tolist()',
           "delta_list = [float(d) for d in delta_list]",
           ("tests/test_bsde.py::TestApproximationConvergence",)),
    # the helper must drop the jobs it has not begun, not run them first
    Mutant("helper-runs-unbegun-jobs", "src/sck/systems.py",
           "pool.shutdown(cancel_futures=True)", "pool.shutdown()",
           ("tests/test_systems.py::TestHelper", "tests/test_sde.py::TestTwoThreadSweep",
            _CC + "TestTwoThreadVerdict")),
    Mutant("as-int-accepts-bool", "src/sck/systems.py",
           "if isinstance(x, bool) or not isinstance(x, (int, np.integer)):",
           "if not isinstance(x, (int, np.integer)):",
           ("tests/test_systems.py::TestAsInt", "tests/test_sde.py::TestSimConfig")),
    Mutant("record-steps-truncated", "src/sck/sde.py",
           'as_int(k, f"record_steps[{i}]", 0, K) for i, k in enumerate(record_steps))',
           "map(int, record_steps))", ("tests/test_sde.py::TestSimulateForward",)),
    Mutant("tolerance-finiteness-dropped", "src/sck/systems.py",
           'if as_array(self.psd_tol, 0, "psd_tol") < 0:', "if self.psd_tol < 0:",
           ("tests/test_systems.py::TestToleranceConfig",)),
    # a section's own library errors are named under the section
    Mutant("convergence-section-dropped", "src/sck/cli.py",
           'rep = _in_section(\n        "convergence", bsde.approximation_convergence, ',
           "rep = bsde.approximation_convergence(\n        ",
           ("tests/test_cli.py::TestErrorStatuses",)),
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
