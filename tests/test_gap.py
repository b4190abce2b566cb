import io
import json
import random
from fractions import Fraction

import pytest

from avalloc.errors import AmbiguousInstance, InfeasibleGapSolution, NotMaximal
from avalloc.gap import (
    bundles_to_gap,
    dump_gap,
    export_gap,
    gap_solution_to_bundles,
    gap_to_dict,
    gap_value,
)
from avalloc.generators import gen_integrality_gap, gen_random
from avalloc.oracles import exact_bundling_opt, exact_gap_opt
from util import unit_instance


def _simple_instance():
    # p has excess 0.3 for b; n has deficit 0.1
    return unit_instance(
        {("p", "b"): "1.3", ("n", "b"): "0.9", ("q", "b"): "1.1"},
    )


def test_export_sizes_and_values():
    inst = _simple_instance()
    g = export_gap(inst)
    bin_pb = ("p", "b")
    assert g.sizes[("p", bin_pb)] == 0
    assert g.values[("p", bin_pb)] == Fraction(13, 10)
    assert g.sizes[("n", bin_pb)] == Fraction(1, 3)  # 0.1 / 0.3
    assert g.values[("n", bin_pb)] == Fraction(9, 10)
    # a P-item in another P-item's bin is blocked with size 1 + eps_gap = 2
    assert g.sizes[("q", bin_pb)] == 2
    assert g.values[("q", bin_pb)] == 0


def test_export_zero_excess_bin_admits_no_n_items():
    inst = unit_instance({("p", "b"): 1, ("n", "b"): "0.9"})
    g = export_gap(inst)
    assert g.sizes[("n", ("p", "b"))] == 2  # blocked
    assert g.sizes[("p", ("p", "b"))] == 0


def test_export_non_edges_blocked():
    inst = unit_instance(
        {("p", "b1"): "1.3", ("n", "b2"): "0.9", ("p2", "b2"): "1.3"},
        buyers=["b1", "b2"],
    )
    g = export_gap(inst)
    assert g.sizes[("n", ("p", "b1"))] == 2  # n has no edge to b1


def test_export_rejects_ambiguous():
    inst = unit_instance(
        {("i", "b1"): "1.3", ("i", "b2"): "0.9"}, buyers=["b1", "b2"]
    )
    with pytest.raises(AmbiguousInstance):
        export_gap(inst)


def test_round_trip_preserves_value():
    inst = gen_integrality_gap(3, Fraction(1, 10))
    bval, bopt = exact_bundling_opt(inst)
    g = export_gap(inst)
    sol = bundles_to_gap(bopt, inst)
    assert gap_value(sol, g) == bval
    back = gap_solution_to_bundles(sol, g, inst)
    assert back.value(inst) == bval


def test_round_trip_on_random_unambiguous_instances():
    for seed in range(20):
        inst = gen_random(6, 3, seed=1300 + seed, unambiguous=True)
        bval, bopt = exact_bundling_opt(inst)
        g = export_gap(inst)
        assert exact_gap_opt(g) == bval
        sol = bundles_to_gap(bopt, inst)
        back = gap_solution_to_bundles(sol, g, inst)
        assert back.value(inst) == bval == gap_value(sol, g)


def test_export_sizes_use_the_cost_mode_excess():
    # p has excess 1/2 - 1/4 = 1/4 and n excess 1/2 - 1 = -1/2, so n needs
    # twice the bin's room
    inst = unit_instance(
        {("p", "b"): Fraction(1, 2), ("n", "b"): Fraction(1, 2)},
        costs={("p", "b"): Fraction(1, 4), ("n", "b"): 1},
    )
    g = export_gap(inst)
    assert g.sizes[("n", ("p", "b"))] == 2
    bval, _bopt = exact_bundling_opt(inst)
    assert exact_gap_opt(g) == bval == Fraction(1, 2)


def _random_cost_instance(rng, n_items, n_buyers):
    """Unambiguous cost-mode instance on unit thresholds: each item is a
    P-item (every cost at most its value) or an N-item (every cost above
    its value)."""
    values, costs = {}, {}
    buyers = [f"b{k}" for k in range(n_buyers)]
    for k in range(n_items):
        p_side = rng.random() < 0.4
        for j in rng.sample(buyers, rng.randint(1, n_buyers)):
            v = Fraction(rng.randint(1, 20), 10)
            c = Fraction(rng.randint(0, 10), 10) * v
            if not p_side:
                c = v + Fraction(rng.randint(1, 20), 10)
            values[(f"i{k}", j)], costs[(f"i{k}", j)] = v, c
    return unit_instance(values, buyers=buyers, costs=costs)


def test_round_trip_on_random_cost_mode_instances():
    rng = random.Random(7)
    checked = 0
    for _ in range(30):
        inst = _random_cost_instance(rng, 6, 3)
        if not inst.p_items():
            continue
        checked += 1
        bval, bopt = exact_bundling_opt(inst)
        g = export_gap(inst)
        assert exact_gap_opt(g) == bval
        sol = bundles_to_gap(bopt, inst)
        back = gap_solution_to_bundles(sol, g, inst)
        assert back.value(inst) == bval == gap_value(sol, g)
    assert checked >= 20


def test_empty_solution_not_maximal():
    inst = _simple_instance()
    g = export_gap(inst)
    with pytest.raises(NotMaximal):
        gap_solution_to_bundles({}, g, inst)


def test_infeasible_gap_solutions_rejected():
    inst = unit_instance({("p", "b"): "1.1", ("n1", "b"): "0.5", ("n2", "b"): "0.5"})
    g = export_gap(inst)
    b = ("p", "b")
    # both N-items overfill: sizes are 0.5/0.1 = 5 each
    with pytest.raises(InfeasibleGapSolution):
        gap_solution_to_bundles({"p": b, "n1": b, "n2": b}, g, inst)
    two_p = unit_instance(
        {("p", "b1"): "1.3", ("p", "b2"): "1.2", ("n", "b1"): "0.9"},
        buyers=["b1", "b2"],
    )
    g2 = export_gap(two_p)
    with pytest.raises(InfeasibleGapSolution):
        # N-item in bin (p, b1) while p itself sits in (p, b2): two open
        # bins in p's partition group
        gap_solution_to_bundles({"p": ("p", "b2"), "n": ("p", "b1")}, g2, two_p)


def test_gap_json_export():
    inst = _simple_instance()
    g = export_gap(inst)
    doc = gap_to_dict(g)
    assert doc["eps_gap"] == 1
    assert doc["elements"] == ["p", "n", "q"]
    assert doc["bins"] == [{"p": "p", "buyer": "b"}, {"p": "q", "buyer": "b"}]
    assert set(doc["groups"]) == {"p", "q"}
    entry = next(
        e for e in doc["entries"] if e["element"] == "n" and e["bin"] == 0
    )
    assert entry["size"] == "1/3"
    buf = io.StringIO()
    dump_gap(g, buf)
    buf.seek(0)
    assert json.load(buf)["elements"] == ["p", "n", "q"]
