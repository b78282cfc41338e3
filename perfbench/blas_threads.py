"""One-off: how BLAS thread count changes three hot calls.

usage (from the root of a checkout):  python3 perfbench/blas_threads.py

Times, in a fresh child process per thread count (1 and 2), the sandwich
certificate at d=128, the 600x1024 projection QR (orthonormalize) and the
600x1024 projection matvec, each as the median of several repeats, and
prints the two-thread time over the one-thread time.  The benchmark itself
always runs with one thread; README.md records the result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CHILD = r"""
import json, statistics, time
import numpy as np
from nullstream.linalg import orthonormalize
from nullstream.verification import certify_sandwich

def median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)

rng = np.random.default_rng(0)
g = rng.standard_normal((600, 1024))
basis = orthonormalize(g).basis
xs = rng.standard_normal((200, 1024))

def matvecs():
    for x in xs:
        basis @ x

print(json.dumps({
    "sandwich_d128_20_trials_s": median_time(lambda: certify_sandwich(128, 0.2, 20, 0), 5),
    "orthonormalize_600x1024_s": median_time(lambda: orthonormalize(g), 5),
    "matvec_600x1024_us": median_time(matvecs, 5) / len(xs) * 1e6,
}))
"""


def measure(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads), PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, check=True, timeout=600)
    return json.loads(proc.stdout)


def main():
    one, two = measure(1), measure(2)
    for key in one:
        print("%-28s 1 thread %10.4g   2 threads %10.4g   ratio %.2f"
              % (key, one[key], two[key], two[key] / one[key]))


if __name__ == "__main__":
    main()
