"""What `import nullstream` loads, and what its tail and marginal calls add.

Of scipy, the package and its CLI load nothing at import: the LAPACK
routines the run path needs are reached through numpy's bundled OpenBLAS,
so a conditioned draw (the rejection screen's QR), a proj-separator run (the
projection basis's Householder QR) and every `verify` certificate (among them
comorth's complement QR and singular's dlasq1) leave scipy.linalg unloaded
as well.
scipy.special serves the sphere-marginal certificate (ndtr and the
closed-form CDF) and the closed-form first-coordinate tail (betainc), so it
is imported inside those calls; a conditioned generator calls the tail only
when a math-only bound says it may underflow, so an ordinary draw does not
load it.  Nothing loads scipy.stats or scipy.integrate, which would add
about 20 MB: not the tail, not the marginal certificate, and not the
AcceptanceTooRare error, whose message reports the tail.  The check runs in
a fresh interpreter, since this one has imported them already.
"""

import os
import subprocess
import sys

import nullstream

SRC = os.path.dirname(os.path.dirname(os.path.abspath(nullstream.__file__)))

PROBE = """
import contextlib, io, sys
import nullstream, nullstream.cli
from nullstream.config import DEFAULTS
from nullstream.streaming import run_one_pass
from nullstream.verification import sphere_marginal_tests

def loaded():
    print(sorted(m for m in ("scipy.linalg", "scipy.stats", "scipy.integrate", "scipy.special")
                 if m in sys.modules))

loaded()
nullstream.gen_anv_conditioned(64, 0.2, seed=0)
loaded()
sep = DEFAULTS.separator
run_one_pass(nullstream.build_algorithm("proj-separator", 16, 1),
             nullstream.gen_lsp_margin(16, 40, 0.25, 1).points(),
             nullstream.proj_state_bits(min(sep.dprime, 16), sep.subsample, sep.quant_bits), 1)
loaded()
for lemma in ("no-joint-sol", "sandwich", "singular", "comorth", "concentration"):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert nullstream.cli.main(["verify", lemma, "--d", "16", "--trials", "5"]) in (0, 1)
    loaded()
print(repr(nullstream.first_coord_tail(64, 0.2)))
loaded()
sphere_marginal_tests(16, 200, 0.2, 1)
loaded()
try:
    nullstream.gen_anv_conditioned(64, 0.9, seed=0, max_attempts=2)
except nullstream.AcceptanceTooRare:
    loaded()
"""


def test_import_loads_no_stats_integrate_or_special():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # the import, a conditioned draw, a proj-separator run and the five
    # certificates that need no scipy.special: an ordinary conditioned draw
    # screens its tail with math alone, and LAPACK comes from numpy's library
    assert lines[:8] == ["[]"] * 8
    tail, after_tail, after_marginal, after_too_rare = lines[8:]
    # the closed form loads scipy.special on its first call
    assert tail == "0.05509390125429455"
    for after in (after_tail, after_marginal, after_too_rare):
        assert after == "['scipy.special']"
