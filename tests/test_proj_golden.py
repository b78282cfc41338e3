"""Golden bytes of the projection separator's sweep rows and of the shared
stream around block boundaries.

The sweep runs lsp-margin at d = 64 with m = 700 points, past the 600-slot
reservoir, so the CSV bytes pin reservoir replacement, the seen-count past
600 and every kept point's quantized coordinates through `nullstream
experiment`, in both orders.  The stream values pin value(i) on both sides
of indices 1024 and 2048 and one draw longer than 1024 values, for an
ordinary seed and the largest one.  The values were computed with one fresh
Philox per draw; any faster way of drawing must reproduce them exactly.
"""

import hashlib
import json

import pytest

from nullstream.algorithms import proj_state_bits
from nullstream.cli import main
from nullstream.config import DEFAULTS
from nullstream.streaming import SharedRandomness

SEP = DEFAULTS.separator
D, M, GAMMA = 64, 700, 0.25

# order -> sha256 of the experiment CSV bytes
SWEEP_CASES = {
    "fixed": "c14f78a4a53a940d9620843672c5686e841fe103caa815a8b204d03b9db88697",
    "shuffled": "62eb3a147a12e39ecf387787d3a3231b3b9cf2f262847d9b0920fe77429fbd04",
}


@pytest.mark.parametrize("order", sorted(SWEEP_CASES))
def test_proj_separator_sweep_bytes(order, tmp_path, capsys):
    spec = {
        "problem": "lsp-margin",
        "params": {
            "d": D,
            "m": M,
            "gamma": GAMMA,
            "algorithm": "proj-separator",
            "budget_bits": proj_state_bits(min(SEP.dprime, D), SEP.subsample, SEP.quant_bits),
        },
        "trials": 2,
        "seed": 11,
        "order": order,
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--spec", str(tmp_path / "spec.json"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_CASES[order]


# (seed, index) -> float.hex of values(index, 2)
VALUE_CASES = {
    (7, 1023): ("0x1.5998820d295c8p-4", "0x1.6f533d5c3e240p-2"),
    (7, 1024): ("0x1.6f533d5c3e240p-2", "0x1.920ce6843c628p-3"),
    (7, 1025): ("0x1.920ce6843c628p-3", "0x1.33424c417663ep-1"),
    (7, 2047): ("0x1.f1fd93e7c5518p-2", "0x1.99b92c6647368p-3"),
    (7, 2048): ("0x1.99b92c6647368p-3", "0x1.5f375793ec3f4p-2"),
    (7, 2049): ("0x1.5f375793ec3f4p-2", "0x1.9b82a83ca8660p-2"),
    (2**64 - 1, 1023): ("0x1.bf42fee23460cp-2", "0x1.3f05ae3f7b32cp-3"),
    (2**64 - 1, 1024): ("0x1.3f05ae3f7b32cp-3", "0x1.9a5ce9f47e155p-1"),
    (2**64 - 1, 1025): ("0x1.9a5ce9f47e155p-1", "0x1.f959855c07f45p-1"),
    (2**64 - 1, 2047): ("0x1.4d180f2167602p-2", "0x1.0be837b43e39ep-1"),
    (2**64 - 1, 2048): ("0x1.0be837b43e39ep-1", "0x1.6372baead9e12p-2"),
    (2**64 - 1, 2049): ("0x1.6372baead9e12p-2", "0x1.65d4b815fa030p-5"),
}


@pytest.mark.parametrize("case", sorted(VALUE_CASES), ids=str)
def test_shared_values_at_block_edges(case):
    seed, index = case
    got = tuple(float(v).hex() for v in SharedRandomness(seed).values(index, 2))
    assert got == VALUE_CASES[case]


# seed -> sha256 of values(1000, 1100).tobytes()
LONG_DRAW_CASES = {
    7: "69fc4746dc841587a7026487ee641bd1c6a5d62286ec61a349ffbdef4356e03b",
    2**64 - 1: "d5c697aa6f8b6155a104106a7750655467324faa09012893aa4152648062a0c9",
}


@pytest.mark.parametrize("seed", sorted(LONG_DRAW_CASES))
def test_shared_values_longer_than_a_block(seed):
    values = SharedRandomness(seed).values(1000, 1100)
    assert hashlib.sha256(values.tobytes()).hexdigest() == LONG_DRAW_CASES[seed]
