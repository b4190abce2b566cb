"""Malformed instance and model documents end a CLI command with exit code
0, 2 or 3, never with a traceback.  Integer ids are valid, and may be mixed
with string ids."""

import copy
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from avalloc.cli import main

INSTANCE = {
    "buyers": [{"id": "b1", "rho": 1, "budgets": {"r": 3}}, {"id": "b2", "rho": "1/2"}],
    "items": [{"id": "p", "values": {"b1": 2, "b2": 1}, "resource_costs": {"r": {"b1": 1}}},
              {"id": "n", "values": {"b1": 0.5, "b2": "1/4"}},
              {"id": "m", "values": {"b2": 0.25}}],
}
MODEL = {
    "horizon": 4,
    "buyers": [{"id": "b", "rho": 1}],
    "types": [{"id": "p", "prob": 0.5, "values": {"b": 2}},
              {"id": "n", "prob": "1/2", "values": {"b": 0.5}}],
}
COMMANDS = {
    "instance": [["exact", "{}", "--bundling", "--gap"],
                 *(["lp", "{}", "--which", w] for w in ("naive", "bundle", "budgeted")),
                 *(["solve", "{}", "--algo", a] for a in (
                     "bundle-round", "bundle-round-budgeted", "greedy-p", "bicriteria",
                     "single-buyer")),
                 ["export-gap", "{}"]],
    "model": [*(["lp", "{}", "--which", w] for w in ("opton", "optoff")),
              ["online", "--model", "{}", "--trials", "3"]],
}
BAD = [[1], {}, True, None, "x", "1/0", "nan", -1, "-1/2", 10**400, 0]
HORIZONS = [None, 4.5, 1, 3, 10**30]


@st.composite
def mutants(draw, kind):
    """(kind, doc): the instance or model document with one node replaced
    by a bad value, deleted, or given an unknown field; a model may instead
    get one of HORIZONS."""
    doc = copy.deepcopy(INSTANCE if kind == "instance" else MODEL)
    if kind == "model" and draw(st.booleans()):
        doc["horizon"] = draw(st.sampled_from(HORIZONS))
        return kind, doc
    node = doc
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        if not (isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans())):
            break
        node = node[key]
    how = draw(st.sampled_from(["replace", "delete", "unknown"]))
    if how == "replace":
        node[key] = draw(st.sampled_from(BAD))
    elif how == "delete":
        del node[key]
    elif isinstance(node[key], dict):
        node[key]["unknown"] = 1
    else:
        node[key] = {"unknown": node[key]}
    return kind, doc


@settings(max_examples=120, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutants("instance") | mutants("model"))
@example(("instance", {**INSTANCE, "buyers": [{"id": "b1", "rho": "1/0"}]}))
@example(("model", {**MODEL, "horizon": 10**30}))
@example(("instance", {**INSTANCE,
                       "items": [*INSTANCE["items"][:2], {"id": -1, "values": {"b2": 1}}]}))
def test_cli_documents_exit_0_2_or_3(tmp_path, kind_doc):
    kind, doc = kind_doc
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    for argv in COMMANDS[kind]:
        assert main([str(path) if a == "{}" else a for a in argv] + ["-o", str(out)]) in (0, 2, 3)


def test_cli_rejects_zero_denominators_long_horizons_and_bad_beta(tmp_path, capsys):
    inst, model = tmp_path / "instance.json", tmp_path / "model.json"
    inst.write_text(json.dumps({**INSTANCE, "buyers": [{"id": "b1", "rho": "1/0"}]}))
    assert main(["lp", str(inst), "--which", "naive"]) == 2
    assert capsys.readouterr().err == "error: expected a number, got '1/0'\n"
    inst.write_text(json.dumps(INSTANCE))
    model.write_text(json.dumps(MODEL))
    assert main(["lp", str(model), "--which", "optoff", "--gamma-floor", "1/0"]) == 2
    assert capsys.readouterr().err == "error: zero denominator in '1/0'\n"
    assert main(["solve", str(inst), "--algo", "bundle-round", "--beta", "1"]) == 2
    assert capsys.readouterr().err == "error: beta must lie in (0, 1)\n"
    model.write_text(json.dumps({**MODEL, "horizon": 10**30}))
    assert main(["online", "--model", str(model), "--trials", "3"]) == 2
    assert capsys.readouterr().err == f"error: horizon {10**30} is too long for an array\n"
    # fits an array index, but no address space can map the trial arrays,
    # so numpy refuses at once
    model.write_text(json.dumps({**MODEL, "horizon": 10**15}))
    assert main(["online", "--model", str(model), "--trials", "3"]) == 3
    assert capsys.readouterr().err.startswith("error: out of memory: ")
