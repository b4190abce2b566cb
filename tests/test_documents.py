"""Byte pins of every JSON document the toolkit writes.

Each digest is the sha256 of a written file or stream.  A change to the
writer (indentation, key order, number rendering, the final newline) or to
the document code changes a digest.
"""

import hashlib
import io
from dataclasses import replace
from fractions import Fraction

import pytest

from avalloc.cli import main
from avalloc.core import dump_instance
from avalloc.gap import dump_gap, export_gap
from avalloc.generators import gen_integrality_gap, gen_random, gen_random_iid_model
from avalloc.lp_models import dump_model


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def test_bench_report_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["bench", "--suite", "examples", "--trials", "10000", "--seed", "0",
                 "-o", str(out)]) == 0
    assert _sha(out.read_bytes()) == (
        "4773d07ca273f998cf2017247a403148e53ca86a83e2bfa0242437b08e9a1f6e")
    assert _sha((tmp_path / "r.csv").read_bytes()) == (
        "ec4cb3e57cc6cda2d7912af0dca541c0622a4851290fb8ff64d1ec0509747487")
    assert capsys.readouterr().out == ""


GEN_DIGESTS = {
    "integrality-gap": "7d0b5b07807e9520caf5918ab437095e22de36e477fffaa1f219af1f7eb80f0f",
    "supply": "8c7d40b4eb1d313d69789d8fa428831b2b6d6e204822d7c18f1bf52eec6881e7",
    "tightness": "849c600dd05352bd51bea298bc00f5d2538bb98781e472b7f812ba3b68d23ec1",
    "max-coverage": "e5ed61bc8acb27b25ead218974631b1895b0646a5b2b896a90ed76dce0e30b18",
    "genava-clique": "2142522ecad1a66f5cc4c2ff833f3961bfed8f86857e76c5584bd9e05c05f9d8",
    "iid-lower-bound": "34fd1105243e0b36df248beb997ca7497ea87c7945a8c6be440a61c2827e0fec",
    "adversarial": "fad8b76e379c74e76eb786d898eb2d034d4629fd1e890a2590b97c738ffd9912",
    "random": "767d77c82bce4c3adfb85f5148430441c2145bc3d775ff0029ac2ae69d73657e",
    "random-iid": "47099e222120472abb7f9dea704c719c7339f69b142d1ce44bcbd90a63d771e4",
}


@pytest.mark.parametrize("family", sorted(GEN_DIGESTS))
def test_gen_bytes_are_pinned(family, capsys):
    assert main(["gen", family, "--seed", "4"]) == 0
    assert _sha(capsys.readouterr().out) == GEN_DIGESTS[family]


def _partial_cost_model():
    """A random model with costs on every other valued pair only."""
    model = gen_random_iid_model(4, 3, 10, seed=4)
    edges = [(i, j) for i in model.types for j in model.buyers if (i, j) in model.values]
    return replace(model, costs={e: Fraction(k + 1, 3) for k, e in enumerate(edges[::2])})


DUMPS = {
    "budgeted-instance": (
        dump_instance, lambda: gen_random(8, 3, 4, budget_resources=2),
        "c505060c295d9e04e0fc9ca25fdcba224b54fc2a859daa4358f67f82bde983ea"),
    "partial-cost-model": (
        dump_model, _partial_cost_model,
        "fd6a31ccd789ca877ff671271082fe0644569a90247a53facd9870097ea491e2"),
    "gap": (
        dump_gap, lambda: export_gap(gen_integrality_gap(3, Fraction(1, 10))),
        "9777cc9762a5d422e00aae000c1344c106cf30be0d9e389bed057e005a4d220a"),
    "random-gap": (
        dump_gap, lambda: export_gap(gen_random(8, 3, 4, unambiguous=True)),
        "21fdbe30a0c9222b339f2820b5b343f8670dbf8864d7676a6dcc49722443d74f"),
}


@pytest.mark.parametrize("name", sorted(DUMPS))
def test_dump_bytes_are_pinned(name):
    dump, make, digest = DUMPS[name]
    buf = io.StringIO()
    dump(make(), buf)
    assert _sha(buf.getvalue()) == digest
