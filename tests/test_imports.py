"""What `import nullstream` loads.

scipy.stats, scipy.integrate and scipy.special hold about 40 MB between them
and serve only the sphere-marginal certificate and the conditioned tail
quadrature, so they are imported inside those calls.  The check runs in a
fresh interpreter, since this one has imported them already.
"""

import os
import subprocess
import sys

import nullstream

SRC = os.path.dirname(os.path.dirname(os.path.abspath(nullstream.__file__)))

PROBE = """
import sys
import nullstream, nullstream.cli
print(sorted(m for m in ("scipy.stats", "scipy.integrate", "scipy.special") if m in sys.modules))
print(repr(nullstream.first_coord_tail(64, 0.2)))
"""


def test_import_loads_no_stats_integrate_or_special():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, tail = proc.stdout.splitlines()
    assert loaded == "[]"
    # the quadrature loads scipy.integrate on its first call, same value as before
    assert tail == "0.05509390125429454"
