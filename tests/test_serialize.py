"""Round-trip tests for the JSON/CSV encoders.

The contract is bit-exact reconstruction of every double, so assertions use
array equality rather than tolerances.
"""

import json
import math

import numpy as np
import pytest

from nullstream.errors import ValidationError
from nullstream.instances import (
    gen_anv_conditioned,
    gen_anv_gaussian,
    gen_lr_from_anv,
    gen_lsp_margin,
)
from nullstream.serialize import (
    dumps,
    format_float,
    instance_from_json,
    instance_to_json,
    report_to_csv,
    report_to_json,
)
from nullstream.verification import comorth_check


def test_format_float_round_trips_random_bit_patterns():
    rng = np.random.default_rng(0)
    raw = rng.bytes(8 * 4000)
    vals = np.frombuffer(raw, dtype="<f8")
    vals = vals[np.isfinite(vals)]
    assert len(vals) > 3000
    for v in vals:
        assert float(format_float(v)) == v


def test_format_float_rejects_non_finite():
    with pytest.raises(ValidationError):
        format_float(math.inf)
    with pytest.raises(ValidationError):
        format_float(math.nan)


def test_dumps_output_is_valid_json():
    doc = {"a": [1, 2.5, None, True, "x"], "b": {"c": -0.0}}
    parsed = json.loads(dumps(doc))
    assert parsed["a"] == [1, 2.5, None, True, "x"]
    assert math.copysign(1.0, parsed["b"]["c"]) == -1.0


def test_dumps_rejects_unknown_types():
    with pytest.raises(ValidationError):
        dumps({"x": object()})


def _elementwise(values) -> str:
    # the generic path: one format_float per value, nested lists joined by ", "
    if isinstance(values, list):
        return "[%s]" % ", ".join(_elementwise(v) for v in values)
    return format_float(values)


EDGE_FLOATS = [-0.0, 0.0, 1.0, -3.0, 1e16, -1e16, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3]


@pytest.mark.parametrize("shape", [(10,), (2, 5), (5, 2), (0,), (0, 3), (3, 0)])
def test_dumps_float_arrays_match_elementwise_format(shape):
    n = math.prod(shape)
    values = np.resize(np.array(EDGE_FLOATS), n).reshape(shape)
    doc = {"a": values, "b": [values, values.T]}
    text, transposed = _elementwise(values.tolist()), _elementwise(values.T.tolist())
    expected = '{"a": %s, "b": [%s, %s]}' % (text, text, transposed)
    assert dumps(doc) == expected


def test_dumps_float_array_keeps_decimal_markers():
    assert dumps(np.array([-0.0, 1.0, 1e16, 5e-324, 1.7976931348623157e308])) == (
        "[-0.0, 1.0, 10000000000000000.0, 4.9406564584124654e-324, 1.7976931348623157e+308]"
    )


def test_dumps_random_float_matrix_matches_elementwise_format():
    rng = np.random.default_rng(1)
    values = np.frombuffer(rng.bytes(8 * 4096), dtype="<f8").reshape(64, 64).copy()
    values[~np.isfinite(values)] = 0.5
    assert dumps(values) == _elementwise(values.tolist())


@pytest.mark.parametrize(
    "first,later,name",
    [(math.nan, math.inf, "nan"), (-math.inf, math.nan, "-inf"), (math.inf, -math.inf, "inf")],
)
def test_dumps_float_array_names_first_non_finite_value_in_row_order(first, later, name):
    values = np.zeros((3, 4))
    values[1, 3] = first
    values[2, 0] = later
    with pytest.raises(ValidationError, match="^cannot serialize non-finite value %s$" % name):
        dumps({"points": values})
    with pytest.raises(ValidationError, match="^cannot serialize non-finite value %s$" % name):
        dumps(values.T.copy().T)  # the same values in Fortran order


def test_anv_gaussian_round_trip():
    inst = gen_anv_gaussian(12, seed=3)
    back, seed = instance_from_json(instance_to_json(inst, 3))
    assert seed == 3
    assert back.variant == inst.variant
    assert back.cf is None
    assert np.array_equal(back.vectors, inst.vectors)
    assert np.array_equal(back.witness, inst.witness)


def test_anv_conditioned_round_trip():
    inst = gen_anv_conditioned(16, 0.2, seed=5)
    back, _ = instance_from_json(instance_to_json(inst, 5))
    assert back.cf == 0.2
    assert np.array_equal(back.vectors, inst.vectors)
    assert np.array_equal(back.witness, inst.witness)


def test_lsp_round_trip():
    ds = gen_lsp_margin(10, 25, 0.3, seed=1)
    back, _ = instance_from_json(instance_to_json(ds, 1))
    assert back.margin == ds.margin
    assert np.array_equal(back.xs, ds.xs)
    assert np.array_equal(back.ys, ds.ys)
    assert np.array_equal(back.witness, ds.witness)


def test_lr_round_trip():
    inst = gen_lr_from_anv(gen_anv_conditioned(14, 0.2, seed=2), seed=9)
    back, _ = instance_from_json(instance_to_json(inst, 9))
    assert np.array_equal(back.a, inst.a)
    assert np.array_equal(back.b, inst.b)
    assert np.array_equal(back.witness, inst.witness)


def test_instance_parser_rejects_garbage():
    with pytest.raises(ValidationError):
        instance_from_json("not json at all")
    with pytest.raises(ValidationError):
        instance_from_json("[1, 2]")
    with pytest.raises(ValidationError):
        instance_from_json('{"type": "widget", "seed": 0, "params": {}, "witness": []}')
    good = instance_to_json(gen_anv_gaussian(8, seed=0), 0)
    doc = json.loads(good)
    del doc["witness"]
    with pytest.raises(ValidationError):
        instance_from_json(json.dumps(doc))


def test_instance_parser_rejects_nan_tokens():
    doc = json.loads(instance_to_json(gen_anv_gaussian(8, seed=0), 0))
    doc["vectors"][2][3] = math.nan
    text = json.dumps(doc)
    assert "NaN" in text
    with pytest.raises(ValidationError):
        instance_from_json(text)


def _instance_holding(field):
    """An instance of the type whose file has `field`."""
    if field in ("points", "labels", "margin"):
        return gen_lsp_margin(8, 6, 0.25, seed=0)
    if field == "targets":
        return gen_lr_from_anv(gen_anv_conditioned(8, 0.2, seed=0), 0)
    if field == "cf":
        return gen_anv_conditioned(8, 0.2, seed=0)
    return gen_anv_gaussian(8, seed=0)


def _first(bad):
    """Replace the first number of a flat or nested array by `bad`."""
    def edit(value):
        if isinstance(value[0], list):
            return [edit(value[0])] + value[1:]
        return [bad] + value[1:]
    return edit


@pytest.mark.parametrize(
    "field, value",
    [
        ("vectors", [[1.0, 2.0], [3.0]]),
        ("d", "x"),
        ("d", 8.0),
        ("d", 6.9),
        ("seed", "abc"),
        ("seed", 1.5),
        ("seed", True),
        # the values a float() cast would take: numeric strings, booleans
        pytest.param("cf", str, id="cf-string"),
        pytest.param("cf", lambda cf: True, id="cf-true"),
        pytest.param("margin", str, id="margin-string"),
        pytest.param("witness", lambda w: [str(w[0])] + w[1:], id="witness-string"),
        pytest.param("vectors", _first(True), id="vectors-true"),
        pytest.param("points", _first(None), id="points-null"),
        pytest.param("labels", lambda ys: [str(ys[0])] + ys[1:], id="labels-string"),
        pytest.param("targets", _first(False), id="targets-false"),
        pytest.param("witness", _first(10**400), id="witness-huge-integer"),
    ],
)
def test_instance_parser_maps_malformed_fields(field, value):
    doc = json.loads(instance_to_json(_instance_holding(field), 0))
    holder = doc["params"] if field in ("cf", "margin") else doc
    holder[field] = value(holder[field]) if callable(value) else value
    with pytest.raises(ValidationError, match="malformed instance field"):
        instance_from_json(json.dumps(doc))


def test_report_round_trip_and_csv_shape():
    r = comorth_check(12, 8, seed=0)
    doc = json.loads(report_to_json(r))
    for name in ("lemma_id", "d", "trials", "pass_fraction", "statistics", "seed"):
        assert doc[name] == getattr(r, name), name
    assert tuple(doc["trial_rows"]) == r.trial_rows

    text = report_to_csv(r)
    assert "\r" not in text
    lines = text.split("\n")
    assert lines[-1] == ""
    assert len(lines) == 2 + len(r.trial_rows)
    header = lines[0].split(",")
    assert header[:4] == ["lemma_id", "d", "seed", "trial"]
    assert header[4:] == sorted(header[4:])


def test_csv_floats_use_17_digits():
    from nullstream.verification import LemmaReport

    rows = ({"trial": 0, "passed": True, "value": 0.1},)
    r = LemmaReport(lemma_id="demo", d=4, trials=1, passed=True, statistics={}, seed=0,
                    trial_rows=rows)
    text = report_to_csv(r)
    assert "0.10000000000000001" in text
    assert text.split("\n")[1].split(",")[-2] == "true"
