"""Golden bytes of `nullstream gen` and of the experiment spec errors.

`gen` prints the path it wrote, the instance type and the witness
diagnostics, so each case runs in a fresh directory with a relative output
path and pins the sha256 of stdout and of the written file.  The
conditioned and hard families are pinned both at their default `--cf`,
`--c` and `--max-attempts` and with each flag given.  The chained
generators read the `anv-conditioned` default case.

An experiment row hands its merged parameters to the same generators, so
the exit code and stderr of a spec that lacks a required parameter, carries
an unknown one, or gives `"d": 8.0` are pinned for each generator.
"""

import hashlib
import json

import pytest

from nullstream.cli import main

# argv after "gen" (without --out) -> (sha256 of stdout, sha256 of the file)
GEN_CASES = {
    ("anv-gaussian", "--d", "8", "--seed", "3"): (
        "924b7919b46ed57ff3c6709e57da6fe95638b0f0dcf9ac956b3cf848eb5448b5",
        "b6bfa3150856e14eae7a2bbd8405b75cd4ad908d2d189399b01c3029c119e577",
    ),
    ("anv-conditioned", "--d", "8", "--seed", "3"): (
        "dccdef3e56e159c8b539b81288d7c5dd352ab7b995edfa293c61432dfb094e04",
        "fa2588509a259e59da17981c0b600bf09a34a04d02add10b7351065db66e1cdf",
    ),
    ("anv-conditioned", "--d", "8", "--seed", "3", "--cf", "0.1", "--max-attempts", "500"): (
        "e07ad3ff0c25e3a6e312d011455d4c6f6a74b06e099e9fa993584c727ea1b09e",
        "785d7f7d3aba5d74e9f8cf0a0742fb6f7f5d8c3108f3137a9d9f60c9dd157603",
    ),
    ("lsp-margin", "--d", "8", "--m", "12", "--gamma", "0.2", "--seed", "3"): (
        "9b1939e8c309712a05923e8a24538db429e5632decf4fc71e942cc69ff954ef1",
        "78900f58da101071403ab9f24629967041c974487437e291b7d3e7a1ed9f34c3",
    ),
    ("lsp-hard", "--d", "8", "--m", "8", "--seed", "3"): (
        "9303a4fd1764a791e4f5e18abb500d6a6195f6dde62969b9880a4d3f725e2868",
        "586c6f292f694fdaee4128c817cc54aa1008803ca0aea0fefb2b25cd5c35ffb9",
    ),
    ("lsp-hard", "--d", "8", "--m", "10", "--cf", "0.1", "--c", "0.3",
     "--max-attempts", "500", "--seed", "3"): (
        "7b0b3f705ea23bc0ebde4140924bec4bd34b035703514085cdf5cfa1ab862db1",
        "ce3386f5d26e852f2116f8a272be591b03c23e85045e64427c45c1aeebbd964c",
    ),
    ("lsp-from-anv", "--instance", "anv.json"): (
        "46103eeacc23c017b909ad7cd5d1ba4aa201efda46fc811c8388547b64f7d092",
        "aeed75677dcafc2f5d2caeb79e7e23e18ff3e91d35f831a17f737cb073f5466c",
    ),
    ("lsp-from-anv", "--instance", "anv.json", "--c4", "0.25"): (
        "f50920bd62686d150a0b7211da5e72ed3f6174f68c9729244532ab174de78e9b",
        "2c7a6050e66d41f3cb8111f0a90dcf5b9c153f03c8dad59a974cd36450da0a9a",
    ),
    ("lr-from-anv", "--instance", "anv.json", "--seed", "3"): (
        "ab647e3f485b79c1f4abf7914e9eeef236ef532727cc067fec72e7d030886752",
        "196b6fbfd3c48cf38d4c2a6ba6ad2bea49c2a14a8c2f8733186103eae303a87c",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv", list(GEN_CASES), ids=lambda a: " ".join(a))
def test_gen_stdout_and_file_bytes(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if "anv.json" in argv:
        assert main(["gen", "anv-conditioned", "--d", "8", "--seed", "3", "--out", "anv.json"]) == 0
        capsys.readouterr()
    assert main(["gen", *argv, "--out", "out.json"]) == 0
    out = capsys.readouterr().out
    written = (tmp_path / "out.json").read_bytes()
    assert (_sha(out.encode("utf-8")), _sha(written)) == GEN_CASES[argv]


# problem -> parameters of a row that generates and runs
SPEC_PARAMS = {
    "anv-gaussian": {"d": 8, "algorithm": "random-unit", "budget_bits": 4096},
    "anv-conditioned": {"d": 8, "cf": 0.1, "max_attempts": 500,
                        "algorithm": "random-unit", "budget_bits": 4096},
    "lsp-margin": {"d": 8, "m": 12, "gamma": 0.2, "algorithm": "zero", "budget_bits": 4096},
    "lsp-hard": {"d": 8, "m": 8, "cf": 0.1, "c": 0.3, "max_attempts": 500,
                 "algorithm": "zero", "budget_bits": 4096},
}

# problem -> the one row its unchanged parameters write
SPEC_ROWS = {
    "anv-gaussian": "0,125401045628996244,ok,0,1.4371266413813275,,",
    "anv-conditioned": "0,125401045628996244,ok,0,1.7113276890056337,,",
    "lsp-margin": "0,125401045628996244,ok,32,,1.0,0.0",
    "lsp-hard": "0,125401045628996244,ok,32,,1.0,0.0",
}

# (problem, change to its parameters) -> stderr; each exits 2
SPEC_ERRORS = {
    ("anv-gaussian", ("drop", "d")): "error: anv-gaussian requires parameter 'd'\n",
    ("anv-gaussian", ("add", "bogus")): "error: unknown parameters for anv-gaussian: bogus\n",
    ("anv-gaussian", ("float", "d")):
        "error: anv-gaussian parameter 'd': expected an integer, got 8.0\n",
    ("anv-conditioned", ("drop", "d")): "error: anv-conditioned requires parameter 'd'\n",
    ("anv-conditioned", ("drop", "cf")): "error: anv-conditioned requires parameter 'cf'\n",
    ("anv-conditioned", ("add", "bogus")): "error: unknown parameters for anv-conditioned: bogus\n",
    ("anv-conditioned", ("float", "d")):
        "error: anv-conditioned parameter 'd': expected an integer, got 8.0\n",
    ("lsp-margin", ("drop", "d")): "error: lsp-margin requires parameter 'd'\n",
    ("lsp-margin", ("drop", "m")): "error: lsp-margin requires parameter 'm'\n",
    ("lsp-margin", ("drop", "gamma")): "error: lsp-margin requires parameter 'gamma'\n",
    ("lsp-margin", ("add", "bogus")): "error: unknown parameters for lsp-margin: bogus\n",
    ("lsp-margin", ("float", "d")):
        "error: lsp-margin parameter 'd': expected an integer, got 8.0\n",
    ("lsp-hard", ("drop", "d")): "error: lsp-hard requires parameter 'd'\n",
    ("lsp-hard", ("drop", "m")): "error: lsp-hard requires parameter 'm'\n",
    ("lsp-hard", ("drop", "cf")): "error: lsp-hard requires parameter 'cf'\n",
    ("lsp-hard", ("drop", "c")): "error: lsp-hard requires parameter 'c'\n",
    ("lsp-hard", ("add", "bogus")): "error: unknown parameters for lsp-hard: bogus\n",
    ("lsp-hard", ("float", "d")):
        "error: lsp-hard parameter 'd': expected an integer, got 8.0\n",
}


def _spec_cases():
    for problem, params in SPEC_PARAMS.items():
        for key in params:
            if key not in ("max_attempts", "algorithm", "budget_bits"):
                yield problem, ("drop", key)
        yield problem, ("add", "bogus")
        yield problem, ("float", "d")


def _changed(params, change):
    how, key = change
    params = dict(params)
    if how == "drop":
        del params[key]
    elif how == "add":
        params[key] = 1
    else:
        params[key] = float(params[key])
    return params


def _experiment(tmp_path, problem, params):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"problem": problem, "params": params, "trials": 1, "seed": 5}))
    return main(["experiment", "--spec", str(spec), "--out", str(tmp_path / "out.csv")])


@pytest.mark.parametrize("problem", list(SPEC_PARAMS))
def test_experiment_row_of_each_generator(problem, tmp_path, capsys):
    assert _experiment(tmp_path, problem, SPEC_PARAMS[problem]) == 0
    assert capsys.readouterr().err == ""
    header = "trial,seed,status,state_bits,loss,error,margin\n"
    assert (tmp_path / "out.csv").read_text() == header + SPEC_ROWS[problem] + "\n"


@pytest.mark.parametrize("case", list(_spec_cases()), ids=lambda c: "%s-%s-%s" % (c[0], *c[1]))
def test_experiment_spec_parameter_errors(case, tmp_path, capsys):
    problem, change = case
    code = _experiment(tmp_path, problem, _changed(SPEC_PARAMS[problem], change))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", SPEC_ERRORS[case])
    assert not (tmp_path / "out.csv").exists()
