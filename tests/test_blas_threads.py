"""Products over M (or N) elements run on the calling thread (``kernels.serial_matmul``).

Each check runs in a fresh interpreter, since OpenBLAS reads
``OPENBLAS_NUM_THREADS`` once, when numpy is imported.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from aprid.kernels import _BLOCK, serial_matmul

two_cpus = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                              reason="needs two usable CPUs for a second BLAS thread")

# prints a digest of every O(M) result the run path forms: the full constraint
# values and gradients of a finite-sum instance with M = 48,773 (where a threaded
# gemv splits the rows off the kernel's unroll), the z average over as many
# multipliers, and the multiplier norm over 20,001 (past ddot's threshold)
RESULTS = """
import hashlib
import numpy as np
from aprid.problems import FiniteSumQcqpProblem
from aprid.schedules import LazyErgodicAverager, StepSchedule
from aprid.solvers import _NormWatch

rng = np.random.default_rng(5)
m, n = 48_773, 10
h, c = rng.standard_normal((3, 2, n)), rng.standard_normal((3, 2))
g = rng.standard_normal((m, n, n))  # Q = g + g', bitwise symmetric as the store requires
prob = FiniteSumQcqpProblem(h, c, g + g.transpose(0, 2, 1), rng.standard_normal((m, n)),
                            rng.standard_normal(m))
x = rng.standard_normal(n)
avg = LazyErgodicAverager(rng.random(m), StepSchedule.constant(1.0, 1.0, 50, 0.9))
for _ in range(50):
    avg.push()
    support = rng.choice(m, 10, replace=False)
    avg.change(support, rng.standard_normal(10))
watch = _NormWatch(rng.random(20_001), 1e9)
for result in (prob.full_constraint_values(x), prob.full_constraint_grads(x), avg.finalize(),
               np.array([watch.norm(), watch._sq])):
    print(hashlib.sha256(result.tobytes()).hexdigest())
"""

# a full constraint evaluation at M = 1e5 and a multiplier norm over 20,001,
# then the CPU seconds the process burns while its main thread sleeps 0.3 s
SLEEP_CPU = """
import resource
import time
import numpy as np
from aprid.problems import FiniteSumQcqpProblem
from aprid.solvers import _NormWatch

def cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime

rng = np.random.default_rng(6)
m, n = 100_000, 10
h, c = rng.standard_normal((3, 2, n)), rng.standard_normal((3, 2))
g = rng.standard_normal((m, n, n))  # Q = g + g', bitwise symmetric as the store requires
prob = FiniteSumQcqpProblem(h, c, g + g.transpose(0, 2, 1), rng.standard_normal((m, n)),
                            rng.standard_normal(m))
prob.evaluate_full(rng.standard_normal(n))
_NormWatch(rng.random(20_001), 1e9).norm()
start = cpu_s()
time.sleep(0.3)
print(cpu_s() - start)
"""

# serial_matmul's row-wise form against one single-thread a @ x, at row counts
# around the block edges (the last block of 2 to rows + 1 rows included)
ROWWISE = """
import numpy as np
from aprid.kernels import _BLOCK, serial_matmul

rng = np.random.default_rng(7)
shapes = [(48_773, 10), (100_000, 3)]
for n in (1, 3, 10, 50, 100):
    rows = max(64, _BLOCK // n // 64 * 64)
    for m in (rows + 1, rows + 2, 2 * rows, 2 * rows + 1, 7 * rows + 63, 12_345):
        shapes.append((m, n))
for m, n in shapes:
    a, x = rng.standard_normal((m, n)), rng.standard_normal(n)
    assert serial_matmul(a, x).tobytes() == (a @ x).tobytes(), (m, n)
print("ok")
"""


def _run(script, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@two_cpus
def test_run_path_results_do_not_depend_on_the_blas_thread_count():
    one = _run(RESULTS, 1)
    assert len(one) == 4
    assert _run(RESULTS, 2) == one


@two_cpus
def test_no_blas_worker_spins_after_a_full_evaluation():
    # a woken OpenBLAS worker spin-waits for about 0.12 CPU seconds after its call
    assert float(_run(SLEEP_CPU, 2)[0]) < 0.03


def test_serial_rowwise_product_has_one_single_thread_calls_bits():
    assert _run(ROWWISE, 1) == ["ok"]


def test_serial_matmul_is_the_one_product_within_a_block():
    rng = np.random.default_rng(8)
    for n in (1, 3, 10, 50):
        for m in (1, 2, 63, 64, 65, _BLOCK // n):
            mat, x, w = rng.standard_normal((m, n)), rng.standard_normal(n), rng.standard_normal(m)
            assert serial_matmul(mat, x).tobytes() == (mat @ x).tobytes(), (m, n)
            assert serial_matmul(w, mat).tobytes() == (w @ mat).tobytes(), (m, n)
            assert serial_matmul(w, w).tobytes() == (w @ w).tobytes(), (m, n)


def test_serial_reducing_forms_are_within_rounding_of_one_product():
    rng = np.random.default_rng(9)
    for m, n in ((_BLOCK + 1, 1), (48_773, 10), (20_001, 3)):
        mat, w = rng.standard_normal((m, n)), rng.standard_normal(m)
        got = serial_matmul(w, mat)
        assert got.shape == (n,)
        scale = (np.abs(w) @ np.abs(mat)).max()
        np.testing.assert_allclose(got, w @ mat, rtol=0, atol=1e-13 * scale)
        assert serial_matmul(w, w) == pytest.approx(w @ w, rel=1e-13)
