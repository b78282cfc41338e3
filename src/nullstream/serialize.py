"""JSON and CSV encoding for instances and reports.

Floats are printed with 17 significant digits so that every IEEE double
round-trips exactly; reading goes through the stdlib json parser. CSV output
uses LF newlines and the same float format.
"""

import csv
import io
import itertools
import json
import math

import numpy as np

from .errors import ValidationError
from .instances import AnvInstance, LrInstance, LspDataset
from .verification import LemmaReport

__all__ = [
    "format_float",
    "dumps",
    "instance_to_json",
    "instance_from_json",
    "json_int",
    "json_float",
    "json_object",
    "report_to_json",
    "report_to_csv",
    "csv_cell",
]


def _non_finite(v: float) -> ValidationError:
    return ValidationError("cannot serialize non-finite value %r" % (v,))


def _float_text(v: float) -> str:
    s = format(v, ".17g")
    # keep a decimal marker so json parses the value back as a float
    return s if "." in s or "e" in s else s + ".0"


def format_float(x) -> str:
    v = float(x)
    if not math.isfinite(v):
        raise _non_finite(v)
    return _float_text(v)


def _float_list(values) -> str:
    return "[%s]" % ", ".join(map(_float_text, values))


def _emit_float_array(a: np.ndarray, out):
    """A 1-D or 2-D float64 array, the same text as format_float on each
    value, with one finiteness check for the whole array."""
    finite = np.isfinite(a)
    if not finite.all():
        # boolean indexing walks in row order, as the element-wise path does
        raise _non_finite(float(a[~finite][0]))
    if a.ndim == 1:
        out.write(_float_list(a.tolist()))
        return
    out.write("[")
    for i, row in enumerate(a.tolist()):
        if i:
            out.write(", ")
        out.write(_float_list(row))
    out.write("]")


def _emit(obj, out):
    if isinstance(obj, str):
        out.write(json.dumps(obj))
    elif isinstance(obj, (bool, np.bool_)):
        out.write("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(format_float(obj))
    elif obj is None:
        out.write("null")
    elif isinstance(obj, dict):
        out.write("{")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise ValidationError("object keys must be strings, got %r" % (k,))
            if i:
                out.write(", ")
            out.write(json.dumps(k))
            out.write(": ")
            _emit(v, out)
        out.write("}")
    elif isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim in (1, 2):
        _emit_float_array(obj, out)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        if isinstance(obj, np.ndarray):
            obj = obj.tolist()
        out.write("[")
        for i, v in enumerate(obj):
            if i:
                out.write(", ")
            _emit(v, out)
        out.write("]")
    else:
        raise ValidationError("cannot serialize objects of type %s" % type(obj).__name__)


def dumps(doc) -> str:
    """Serialize a document to JSON text with 17-significant-digit floats."""
    out = io.StringIO()
    _emit(doc, out)
    return out.getvalue()


def json_int(value) -> int:
    """Return `value` if it is a JSON integer; raise TypeError for anything
    else, integral floats and booleans included."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("expected an integer, got %r" % (value,))
    return value


def json_float(value) -> float:
    """Return `value` as a float if it is a finite JSON number (integer or
    float); raise TypeError for booleans, strings and anything else, and
    ValueError for infinities, NaN and integers past the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected a number, got %r" % (value,))
    try:
        number = float(value)
    except OverflowError:
        raise ValueError("%r is past the float range" % (value,)) from None
    if not math.isfinite(number):
        raise ValueError("expected a finite number, got %r" % (value,))
    return number


def _numbers(doc: dict, key: str, depth: int) -> np.ndarray:
    """doc[key] as a float array if it nests JSON numbers `depth` lists deep;
    raise TypeError for strings, booleans or nulls among them (which a float
    cast would take), and ValueError for integers past the float range."""
    leaves = doc[key]
    for _ in range(depth - 1):
        leaves = itertools.chain.from_iterable(leaves)
    others = set(map(type, leaves)) - {int, float}
    if others:
        raise TypeError(
            "%s holds %s, not numbers" % (key, ", ".join(sorted(t.__name__ for t in others)))
        )
    try:
        return np.asarray(doc[key], dtype=float)
    except OverflowError:
        raise ValueError("%s holds an integer past the float range" % key) from None


def json_object(text: str) -> dict:
    """The JSON object text holds; every way json.loads fails (a ValueError,
    the digit limit's too, or a RecursionError) is a ValidationError."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError("malformed JSON: %s" % exc) from None
    if not isinstance(doc, dict):
        raise ValidationError("expected a JSON object at the top level")
    return doc


def instance_to_json(inst, seed) -> str:
    if isinstance(inst, AnvInstance):
        doc = {
            "type": "anv",
            "d": inst.d,
            "params": {"variant": inst.variant, "cf": inst.cf},
            "vectors": inst.vectors,
            "witness": inst.witness,
            "seed": seed,
        }
    elif isinstance(inst, LspDataset):
        doc = {
            "type": "lsp",
            "d": inst.d,
            "params": {"m": inst.n, "margin": inst.margin},
            "points": inst.xs,
            "labels": inst.ys,
            "witness": inst.witness,
            "seed": seed,
        }
    elif isinstance(inst, LrInstance):
        doc = {
            "type": "lr",
            "d": inst.d,
            "params": {"m": int(inst.a.shape[0])},
            "vectors": inst.a,
            "targets": inst.b,
            "witness": inst.witness,
            "seed": seed,
        }
    else:
        raise ValidationError("unknown instance type %s" % type(inst).__name__)
    return dumps(doc) + "\n"


def instance_from_json(text: str):
    """Parse an instance file; returns (instance, seed)."""
    doc = json_object(text)
    try:
        kind = doc["type"]
        seed = json_int(doc["seed"])
        params = doc["params"]
        witness = _numbers(doc, "witness", 1)
        if kind == "anv":
            inst = AnvInstance(
                variant=params["variant"],
                d=json_int(doc["d"]),
                vectors=_numbers(doc, "vectors", 2),
                witness=witness,
                cf=None if params["cf"] is None else json_float(params["cf"]),
            )
        elif kind == "lsp":
            inst = LspDataset(
                xs=_numbers(doc, "points", 2),
                ys=_numbers(doc, "labels", 1),
                witness=witness,
                margin=json_float(params["margin"]),
            )
        elif kind == "lr":
            inst = LrInstance(
                a=_numbers(doc, "vectors", 2),
                b=_numbers(doc, "targets", 1),
                witness=witness,
            )
        else:
            raise ValidationError("unknown instance type %r" % (kind,))
    except KeyError as exc:
        raise ValidationError("instance file missing field %s" % exc) from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError("malformed instance field: %s" % exc) from exc
    return inst, seed


def report_to_json(r: LemmaReport) -> str:
    doc = {
        "lemma_id": r.lemma_id,
        "d": r.d,
        "trials": r.trials,
        "pass_fraction": r.pass_fraction,
        "statistics": r.statistics,
        "seed": r.seed,
        "trial_rows": list(r.trial_rows),
    }
    return dumps(doc) + "\n"


def csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(v)
    return str(v)


def report_to_csv(r: LemmaReport) -> str:
    """One row per trial. Columns: lemma_id, d, seed, trial, then the union
    of the per-trial keys in sorted order; absent keys leave empty cells."""
    extra = sorted({k for row in r.trial_rows for k in row} - {"trial"})
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["lemma_id", "d", "seed", "trial"] + extra)
    for row in r.trial_rows:
        lead = [r.lemma_id, csv_cell(r.d), csv_cell(r.seed), csv_cell(row.get("trial"))]
        writer.writerow(lead + [csv_cell(row.get(k)) for k in extra])
    return out.getvalue()
