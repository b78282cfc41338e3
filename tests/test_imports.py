"""What `import nullstream` loads, and what its run paths add: no scipy.

The package and its CLI import numpy and nothing from scipy, and nothing on
the run path loads it later.  The LAPACK routines beyond np.linalg are
reached through numpy's bundled OpenBLAS, so a conditioned draw (the
rejection screen's QR), a proj-separator run (the projection basis's
dorgqr) and every `verify` certificate (among them comorth's
complement QR and singular's dlasq1) leave scipy.linalg unloaded.  The
sphere marginal's law is finite sums in numpy and math: the closed-form tail
first_coord_tail, the marginal certificate's exact CDF and its normal
reference (libm's erfc), so neither the tail, nor `verify marginal`, nor
the AcceptanceTooRare error, whose message reports the tail, loads
scipy.special.  Where numpy's bundled library is not found, linalg falls
back to scipy's own LAPACK, which loads scipy.linalg at import, so the
check holds on the bundled path only.  It runs in a fresh interpreter,
since this one has imported scipy for the tests' references.
"""

import ctypes
import os
import subprocess
import sys

import pytest

import nullstream
from nullstream import linalg

SRC = os.path.dirname(os.path.dirname(os.path.abspath(nullstream.__file__)))

PROBE = """
import contextlib, io, sys
import nullstream, nullstream.cli
from nullstream.config import DEFAULTS
from nullstream.streaming import run_one_pass

def loaded():
    print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))

loaded()
nullstream.gen_anv_conditioned(64, 0.2, seed=0)
loaded()
sep = DEFAULTS.separator
run_one_pass(nullstream.build_algorithm("proj-separator", 16, 1),
             nullstream.gen_lsp_margin(16, 40, 0.25, 1).points(),
             nullstream.proj_state_bits(min(sep.dprime, 16), sep.subsample, sep.quant_bits), 1)
loaded()
for argv in (["no-joint-sol", "--trials", "5"], ["sandwich", "--trials", "5"],
             ["singular", "--trials", "5"], ["comorth", "--trials", "5"],
             ["concentration", "--trials", "5"], ["marginal", "--samples", "200"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert nullstream.cli.main(["verify", *argv, "--d", "16"]) in (0, 1)
    loaded()
print(repr(nullstream.first_coord_tail(64, 0.2)))
loaded()
try:
    nullstream.gen_anv_conditioned(64, 0.9, seed=0, max_attempts=2)
except nullstream.AcceptanceTooRare:
    loaded()
"""


# the fallback, and only it, takes 32-bit integers
@pytest.mark.skipif(linalg._LAPACK.integer is ctypes.c_int,
                    reason="numpy's bundled OpenBLAS not found: the LAPACK fallback loads scipy")
def test_import_loads_no_stats_integrate_or_special():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # the import, a conditioned draw, a proj-separator run, the six
    # certificates, the tail and the AcceptanceTooRare error
    assert len(lines) == 12
    assert lines[:9] == ["[]"] * 9
    assert lines[9] == "0.05509390125429451"
    assert lines[10:] == ["[]"] * 2
