import io
import json
import random
from fractions import Fraction

import pytest

from avalloc import (
    Allocation,
    Instance,
    allocation_value,
    is_feasible,
    to_fraction,
)
from avalloc.core import dump_instance, instance_from_dict, instance_to_dict, load_instance
from avalloc.errors import InvalidInstance, UnknownEdge
from avalloc.gap import export_gap
from avalloc.generators import (
    gen_genava_clique,
    gen_iid_lower_bound,
    gen_integrality_gap,
    gen_random,
)
from avalloc.oracles import exact_opt
from util import unit_instance


def test_to_fraction_reads_floats_as_decimals():
    assert to_fraction(0.99) == Fraction(99, 100)
    assert to_fraction(1.03) == Fraction(103, 100)
    assert to_fraction("4/3") == Fraction(4, 3)
    assert to_fraction("1.03") == Fraction(103, 100)
    assert to_fraction(7) == Fraction(7)
    with pytest.raises(TypeError):
        to_fraction(True)
    with pytest.raises(ValueError):
        to_fraction(float("nan"))


@pytest.mark.parametrize(
    "v,rho,c,expected",
    [
        (1.5, 1, 1, True),
        (1.0, 1, 1, True),  # zero excess counts as P
        (0.9, 1, 1, False),
        (2, 1, 3, False),  # cost mode: 2 - 1*3 < 0
        (3, 1, 3, True),
    ],
)
def test_is_p_edge(v, rho, c, expected):
    # a unit cost is read in plain mode, any other in cost mode
    inst = Instance(items=["i"], buyers=["b"], values={("i", "b"): v}, thresholds={"b": rho},
                    costs=None if c == 1 else {("i", "b"): c})
    assert inst.is_p_edge("i", "b") is expected
    assert inst.item_class("i") == ("P" if expected else "N")


def test_classify_edge_rejects_bad_arguments():
    # an edge is classified only on a valid instance: zero threshold, negative value
    # and negative cost are rejected when the one-edge instance is built
    for v, rho, c in [(1, 0, 1), (-1, 1, 1), (1, 1, -2)]:
        with pytest.raises(InvalidInstance):
            Instance(items=["i"], buyers=["b"], values={("i", "b"): v}, thresholds={"b": rho},
                     costs=None if c == 1 else {("i", "b"): c})


def test_is_feasible_examples():
    inst = unit_instance({("i1", "b"): "1.2", ("i2", "b"): "0.9"})
    assert is_feasible(inst, Allocation({"i1": "b", "i2": "b"}))
    report = is_feasible(inst, Allocation({"i2": "b"}))
    assert not report
    assert report.violations == (("b", "average-value", Fraction(-1, 10)),)
    assert is_feasible(inst, Allocation({}))


def test_is_feasible_rejects_non_edges():
    inst = unit_instance({("i1", "b1"): "1.2"}, buyers=["b1", "b2"])
    with pytest.raises(UnknownEdge):
        is_feasible(inst, Allocation({"i1": "b2"}))
    with pytest.raises(UnknownEdge):
        allocation_value(inst, Allocation({"i1": "b2"}))


def test_is_feasible_budgets():
    inst = unit_instance(
        {("i1", "b"): "1.5", ("i2", "b"): "1.5"},
        budgets={("cpu", "b"): Fraction(1)},
        rcosts={("cpu", "i1", "b"): Fraction(3, 4), ("cpu", "i2", "b"): Fraction(3, 4)},
    )
    assert is_feasible(inst, Allocation({"i1": "b"}))
    report = is_feasible(inst, Allocation({"i1": "b", "i2": "b"}))
    assert not report
    assert report.violations == (("b", "budget:cpu", Fraction(-1, 2)),)


def test_allocation_value():
    inst = unit_instance({("i1", "b"): "1.3", ("i2", "b"): "0.9"})
    assert allocation_value(inst, Allocation({})) == 0
    assert allocation_value(inst, Allocation({"i1": "b"})) == Fraction(13, 10)


def test_allocation_value_additive_over_disjoint_parts():
    rng = random.Random(0)
    from avalloc.generators import gen_random

    for seed in range(5):
        inst = gen_random(6, 3, seed=seed)
        items = list(inst.items)
        rng.shuffle(items)
        half = items[:3]
        assign = {}
        for i in inst.items:
            js = inst.edges_of_item(i)
            if js:
                assign[i] = js[0]
        a_full = Allocation(assign)
        a1 = Allocation({i: j for i, j in assign.items() if i in half})
        a2 = Allocation({i: j for i, j in assign.items() if i not in half})
        assert allocation_value(inst, a_full) == allocation_value(
            inst, a1
        ) + allocation_value(inst, a2)


def test_zero_slack_feasibility_is_exact():
    # one value 1.03 plus three values 0.99 meets a threshold of 1 exactly
    inst = unit_instance(
        {("p", "b"): "1.03", ("n1", "b"): "0.99", ("n2", "b"): "0.99", ("n3", "b"): "0.99"}
    )
    alloc = Allocation({i: "b" for i in inst.items})
    report = is_feasible(inst, alloc)
    assert report.ok
    assert allocation_value(inst, alloc) == 4


def test_supply_example_optimal_value_matches_oracle():
    from avalloc.generators import gen_supply_example
    from avalloc.oracles import exact_opt

    inst = gen_supply_example(3, Fraction(1, 100))
    value, alloc = exact_opt(inst)
    assert value == Fraction(101, 50)  # 1.03 + 0.99
    assert allocation_value(inst, alloc) == Fraction(101, 50)


def test_item_classification():
    inst = unit_instance(
        {
            ("pure_p", "b1"): "1.5",
            ("pure_p", "b2"): "1.0",
            ("pure_n", "b1"): "0.5",
            ("mixed", "b1"): "1.5",
            ("mixed", "b2"): "0.5",
        },
        buyers=["b1", "b2"],
    )
    assert inst.item_class("pure_p") == "P"
    assert inst.item_class("pure_n") == "N"
    assert inst.item_class("mixed") == "ambiguous"
    assert not inst.is_unambiguous()
    assert inst.p_items() == ["pure_p"]
    assert inst.n_items() == ["pure_n"]


def test_instance_validation_errors():
    with pytest.raises(InvalidInstance):
        Instance(items=["i"], buyers=["b"], values={("i", "x"): 1}, thresholds={"b": 1})
    with pytest.raises(InvalidInstance):
        Instance(items=["i"], buyers=["b"], values={("i", "b"): 1}, thresholds={"b": 0})
    with pytest.raises(InvalidInstance):
        Instance(items=["i"], buyers=["b"], values={("i", "b"): -1}, thresholds={"b": 1})
    with pytest.raises(InvalidInstance):
        Instance(
            items=["i", "j"],
            buyers=["b"],
            values={("i", "b"): 1, ("j", "b"): 1},
            thresholds={"b": 1},
            costs={("i", "b"): 1},  # j's edge lacks a cost
        )
    with pytest.raises(InvalidInstance):
        Instance(items=["i", "i"], buyers=["b"], values={}, thresholds={"b": 1})


def test_instance_is_immutable():
    inst = unit_instance({("i", "b"): "1.5"})
    with pytest.raises(Exception):
        inst.items = ()


def test_json_round_trip_exact():
    inst = Instance(
        items=["i1", "i2"],
        buyers=["b1", "b2"],
        values={("i1", "b1"): Fraction(4, 3), ("i2", "b2"): Fraction(99, 100)},
        thresholds={"b1": Fraction(1), "b2": Fraction(7, 5)},
        costs={("i1", "b1"): Fraction(1, 3), ("i2", "b2"): Fraction(0)},
        budgets={("cpu", "b1"): Fraction(2)},
        resource_costs={("cpu", "i1", "b1"): Fraction(1, 7)},
    )
    # plain and budgeted random instances, and cost-mode clique reductions,
    # whose M = 2|E|/n^eps is a binary fraction when eps is not 1
    cases = [inst, *(gen_random(8, 3, seed, budget_resources=r)
                     for seed in range(20) for r in (0, 2))]
    for seed in range(15):
        rng = random.Random(seed)
        vertices = [f"v{k}" for k in range(rng.randint(3, 6))]
        edges = [(u, v) for k, u in enumerate(vertices) for v in vertices[k + 1:]
                 if rng.random() < 0.6] or [tuple(vertices[:2])]
        cases.append(gen_genava_clique(vertices, edges, rng.choice([1, "1/2"])))
    for case in cases:
        buf = io.StringIO()
        dump_instance(case, buf)
        buf.seek(0)
        assert load_instance(buf) == case


def test_json_round_trip_integer_buyer_ids():
    inst = Instance(
        items=["i", 7],
        buyers=[1, "b"],
        values={("i", 1): 2, (7, 1): "0.5", (7, "b"): 3},
        thresholds={1: 1, "b": 2},
        costs={("i", 1): 1, (7, 1): 1, (7, "b"): "0.5"},
        budgets={("cpu", 1): 1, ("cpu", "b"): 2},
        resource_costs={("cpu", "i", 1): "0.25", ("cpu", 7, 1): "0.5", ("cpu", 7, "b"): 1},
    )
    buf = io.StringIO()
    dump_instance(inst, buf)
    assert json.loads(buf.getvalue())["items"][0]["values"] == {"1": 2}
    buf.seek(0)
    back = load_instance(buf)
    assert back == inst
    assert back.resource_costs == inst.resource_costs


def test_loader_rejects_buyer_ids_sharing_a_json_key():
    doc = {"buyers": [{"id": 1, "rho": 1}, {"id": "1", "rho": 1}], "items": []}
    with pytest.raises(InvalidInstance, match="JSON key"):
        instance_from_dict(doc)


def test_json_decimals_parse_exactly():
    doc = json.loads(
        '{"buyers": [{"id": "b", "rho": 1}],'
        ' "items": [{"id": "i", "values": {"b": 0.99}}]}',
        parse_float=Fraction,
    )
    inst = instance_from_dict(doc)
    assert inst.values[("i", "b")] == Fraction(99, 100)


def test_loader_rejects_unknown_fields():
    good = instance_to_dict(unit_instance({("i", "b"): "1.5"}))
    bad_top = dict(good, extra=1)
    with pytest.raises(InvalidInstance):
        instance_from_dict(bad_top)
    bad_buyer = json.loads(json.dumps(good))
    bad_buyer["buyers"][0]["note"] = "x"
    with pytest.raises(InvalidInstance):
        instance_from_dict(bad_buyer)
    bad_item = json.loads(json.dumps(good))
    bad_item["items"][0]["weight"] = 2
    with pytest.raises(InvalidInstance):
        instance_from_dict(bad_item)


@pytest.mark.parametrize("path, value", [
    ((), [1]),
    (("buyers",), "xx"),
    (("buyers", 0), "b"),
    (("buyers", 0, "id"), ["b"]),
    (("buyers", 0, "id"), True),
    (("buyers", 0, "budgets"), [1]),
    (("items",), {"i": 1}),
    (("items", 0), None),
    (("items", 0, "id"), {"i": 1}),
    (("items", 0, "values"), [1]),
    (("items", 0, "costs"), [1]),
    (("items", 0, "resource_costs"), {"cpu": [1]}),
])
def test_loader_rejects_malformed_shapes(path, value):
    good = instance_to_dict(unit_instance({("i", "b"): "1.5"}))
    good["buyers"][0]["budgets"] = {"cpu": 1}
    good["items"][0]["costs"] = {"b": 1}
    good["items"][0]["resource_costs"] = {"cpu": {"b": 1}}
    instance_from_dict(good)
    doc = json.loads(json.dumps(good))
    if path:
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
    else:
        doc = value
    with pytest.raises(InvalidInstance):
        instance_from_dict(doc)


def test_maps_are_read_only():
    # a write to a map would leave the cached scaled integers stale
    inst = gen_integrality_gap(3, Fraction(1, 10))
    with pytest.raises(TypeError):
        inst.values[("p", "b1")] = 100
    assert exact_opt(inst)[0] == Fraction(11, 5)
    gap = export_gap(inst)
    for maps in (inst.thresholds, gen_iid_lower_bound(4).probs, gap.values, gap.sizes,
                 gap.groups, Allocation({"p": "b1"}).assignment):
        with pytest.raises(TypeError):
            maps["x"] = 1
