"""Party 2 on crafted messages: a seeded sweep over every registered
algorithm and both reductions.

Each message holds a valid header (the run's d and a count within the
state's capacity) and a body that no runner wrote: finite doubles of random
sign and magnitude 1e-300..1e307 (random integers in the integer fields),
all zero bytes, all one bytes, or uniform random bytes.  Party 2 holds no
samples and finalizes straight from the message; it must return a finite
vector of length d or raise a NullstreamError, and emit no warning.

The sweep runs in one child process that caps its own address space at
2 GB once its imports are done, so a finalize that allocates what crafted
bytes say fails there and never on the host.  Every failing message is
printed with its seed tuple, which replays it.
"""

import os
import subprocess
import sys

import nullstream
from nullstream.algorithms import REGISTRY

SWEEP = """
import resource, sys, warnings
import numpy as np
from nullstream.algorithms import (
    REGISTRY, OfflineLstsqSolver, OfflineSeparatorSolver, ZeroPredictor, build_algorithm)
from nullstream.config import DEFAULTS
from nullstream.errors import NullstreamError
from nullstream.reductions import ReductionConfig, anv_via_lr, anv_via_lsp
from nullstream.streaming import (
    BitState, Layout, Message, SharedRandomness, one_pass_to_protocol, uint)

D, ROWS, FINITE, SEED = 6, 8, int(sys.argv[1]), int(sys.argv[2])
cfg = ReductionConfig.from_constants(DEFAULTS.constants)
# name -> (algorithm, state layout, the header field, its largest count)
cases = {}
for name in REGISTRY:
    alg = build_algorithm(name, D, SEED)
    if name == "zero":
        layout, header, capacity = ZeroPredictor.LAYOUT, "d", None
    elif name == "proj-separator":
        layout = alg.layout(alg.dprime, alg.subsample, alg.quant_bits)
        header, capacity = "header", alg.subsample
    elif name == "offline-lstsq":
        layout, header, capacity = alg.layout(D), "header", ROWS
    elif name == "random-unit":
        layout, header, capacity = Layout(header=uint(32, 2)), "header", ROWS
    else:
        layout, header, capacity = alg.layout(ROWS, D), "header", ROWS
    cases[name] = (alg, layout, header, capacity)
cases["via-lsp"] = (anv_via_lsp(OfflineSeparatorSolver(), cfg),) + cases["offline-separator"][1:]
cases["via-lr"] = (anv_via_lr(OfflineLstsqSolver(), cfg, SEED),) + cases["offline-lstsq"][1:]


def craft(layout, header, capacity, kind, rng):
    state = BitState(layout.nbits)
    nbytes = len(state.payload)
    if kind == "finite":
        for field, (_, width, count, is_float) in layout.fields.items():
            if is_float:
                signs = rng.choice([-1.0, 1.0], count)
                layout.write(state, field, signs * 10.0 ** rng.uniform(-300, 307, count))
            else:
                layout.write(state, field, rng.integers(0, 1 << width, count, dtype=np.uint64))
    elif kind != "zero":
        state.payload[:] = b"\\xff" * nbytes if kind == "ones" else rng.bytes(nbytes)
        if layout.nbits % 8:
            state.payload[-1] &= 0xFF << (8 - layout.nbits % 8) & 0xFF
    layout.write(state, header, [D] if capacity is None else [int(rng.integers(capacity + 1)), D])
    return Message(layout.nbits, bytes(state.payload))


resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))
warnings.simplefilter("error")
for i, (name, (alg, layout, header, capacity)) in enumerate(cases.items()):
    kinds = ["finite"] * FINITE + ["zero", "ones", "random"]
    for k, kind in enumerate(kinds):
        seed = (SEED, i, k)
        message = craft(layout, header, capacity, kind, np.random.default_rng(seed))
        try:
            w = one_pass_to_protocol(alg, 0).output([], message, message.nbits, SharedRandomness(k))
        except NullstreamError:
            continue
        except Exception as exc:
            print("%s %s seed %r: %s: %s" % (name, kind, seed, type(exc).__name__, exc))
            continue
        if not (isinstance(w, np.ndarray) and w.shape == (D,) and np.isfinite(w).all()):
            print("%s %s seed %r: returned %r" % (name, kind, seed, w))
print("swept %d messages, seed %d" % (len(cases) * len(kinds), SEED))
"""

# finite-body messages per algorithm, beside one each of zero, ones, random
FINITE_MESSAGES = 17
SWEEP_SEED = 1902


def test_party_two_refuses_or_returns_a_finite_vector_on_crafted_messages():
    src = os.path.dirname(os.path.dirname(nullstream.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", SWEEP, str(FINITE_MESSAGES), str(SWEEP_SEED)],
        env=env, capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    swept = (len(REGISTRY) + 2) * (FINITE_MESSAGES + 3)
    assert proc.stdout == "swept %d messages, seed %d\n" % (swept, SWEEP_SEED)
