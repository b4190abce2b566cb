from fractions import Fraction

import pytest

from avalloc import EdgeClass
from avalloc.errors import BadEps
from avalloc.generators import (
    gen_adversarial_T,
    gen_genava_clique,
    gen_genava_clique_iid,
    gen_iid_lower_bound,
    gen_integrality_gap,
    gen_max_coverage,
    gen_random,
    gen_random_iid_model,
    gen_supply_example,
    gen_tightness_example,
)
from avalloc.oracles import exact_opt


def test_integrality_gap_structure():
    inst = gen_integrality_gap(3, Fraction(1, 10))
    assert len(inst.items) == 4 and len(inst.buyers) == 3
    classes = [inst.edge_class(i, j) for (i, j) in inst.edges()]
    assert classes.count(EdgeClass.P) == 3 and classes.count(EdgeClass.N) == 3
    assert inst.values[("p", "b1")] == Fraction(13, 10)
    with pytest.raises(BadEps):
        gen_integrality_gap(3, Fraction(1, 2))
    with pytest.raises(BadEps):
        gen_integrality_gap(0, Fraction(1, 10))


def test_integrality_gap_closes_at_n1():
    inst = gen_integrality_gap(1, Fraction(1, 10))
    from avalloc.lp import solve_lp
    from avalloc.lp_models import build_naive_lp

    opt, _ = exact_opt(inst)
    lp = solve_lp(build_naive_lp(inst)).exact_objective
    assert opt == lp == 2


def test_supply_example_values():
    inst = gen_supply_example(3, Fraction(1, 100))
    assert exact_opt(inst)[0] == Fraction(101, 50)
    from avalloc.bundling import duplicate_supply

    dup3 = exact_opt(duplicate_supply(inst, 3), max_states=2 * 10 ** 7)[0]
    assert dup3 == 12
    ratio = dup3 / Fraction(101, 50)
    assert abs(float(ratio) - 6) < 0.1  # about (k^2 + k) / 2 at k = 3


def test_tightness_counts_and_warning():
    inst = gen_tightness_example(Fraction(1, 2))
    assert len(inst.n_items()) == 2 and len(inst.p_items()) == 4
    assert not inst.metadata["warnings"]
    rounded = gen_tightness_example(Fraction(1, 5))
    assert len(rounded.n_items()) == 5 and len(rounded.p_items()) == 6
    assert rounded.metadata["warnings"]  # 1/(eps(1-eps)) = 6.25 rounded down


def test_tightness_full_allocation_feasible_at_half():
    from avalloc import Allocation, allocation_value, is_feasible

    inst = gen_tightness_example(Fraction(1, 2))
    alloc = Allocation({i: "b" for i in inst.items})
    assert is_feasible(inst, alloc)
    assert allocation_value(inst, alloc) == 6


def test_max_coverage_yes_and_no():
    yes = gen_max_coverage([["e1", "e2"], ["e3", "e4"]], 2, Fraction(1, 10))
    assert len(yes.items) == 2 + 4 and len(yes.buyers) == 2
    assert exact_opt(yes)[0] == 6  # k + n
    no = gen_max_coverage([["e1", "e2"], ["e1", "e3"], ["e1", "e4"]], 2, Fraction(1, 10))
    assert exact_opt(no)[0] < 6
    with pytest.raises(BadEps):
        gen_max_coverage([["e1", "e2"], ["e3"]], 2, Fraction(1, 10))  # unbalanced
    with pytest.raises(BadEps):
        gen_max_coverage([["e1", "e2", "e3"]], 2, Fraction(1, 10))  # k nmid n


def test_genava_clique_values():
    tri = gen_genava_clique(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert tri.has_costs
    assert tri.metadata["M"] == "2"
    assert exact_opt(tri)[0] == 5  # alpha(K3) * M + |E| = 2 + 3
    p3 = gen_genava_clique(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert exact_opt(p3)[0] == Fraction(14, 3)  # alpha(P3) * 4/3 + 2
    with pytest.raises(BadEps):
        gen_genava_clique(["a", "b"], [])


def test_genava_clique_edge_classes():
    tri = gen_genava_clique(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert all(not tri.is_p_edge(i, j) for (i, j) in tri.edges() if i.startswith("v:"))
    assert all(tri.is_p_edge(i, j) for (i, j) in tri.edges() if i.startswith("e:"))


def test_genava_clique_iid_structure():
    model = gen_genava_clique_iid(
        ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")], eps=Fraction(1, 2)
    )
    assert sum(model.probs.values()) == 1
    assert model.costs is not None
    assert len(model.types) == 6
    assert model.horizon >= 2
    r = model.metadata["R"]
    assert model.costs[("v:b", "j:b")] == Fraction(6) + 2 * r


def test_clique_generators_reject_a_bad_graph():
    # a loop, a repeated edge and an edge to an unknown vertex
    for edges in ([("a", "a")], [("a", "c"), ("c", "a")], [("a", "b")]):
        with pytest.raises(BadEps):
            gen_genava_clique(["a", "c"], edges)
        with pytest.raises(BadEps):
            gen_genava_clique_iid(["a", "c"], edges, Fraction(1, 2))


def test_iid_lower_bound():
    model = gen_iid_lower_bound(10)
    assert len(model.types) == 10 and len(model.buyers) == 10
    assert sum(model.probs.values()) == 1
    assert model.values[("p", "j5")] == 2  # 1 + eps*T with eps = 1/T
    from avalloc.lp_models import build_opton_lp, solve_model_lp

    assert solve_model_lp(build_opton_lp(model)).objective <= 4


def test_adversarial_instance():
    inst, order = gen_adversarial_T(5, Fraction(1, 20))
    assert order == list(inst.items)
    from avalloc import allocation_value
    from avalloc.genava import greedy_p_only

    greedy = greedy_p_only(inst)
    assert allocation_value(inst, greedy) == Fraction(5, 4)  # 1 + eps*T
    assert exact_opt(inst)[0] == Fraction(101, 20)
    # the first T-1 arrivals admit no feasible nonempty allocation
    from avalloc.core import restrict_edges

    prefix = restrict_edges(
        inst, [(i, j) for (i, j) in inst.values if i != "star"]
    )
    assert exact_opt(prefix)[0] == 0


def test_random_generator_documented_seeds():
    expected = {
        101: Fraction(649, 100),
        202: Fraction(777, 100),
        303: Fraction(433, 50),
    }
    for seed, opt in expected.items():
        inst = gen_random(6, 3, seed=seed)
        assert exact_opt(inst)[0] == opt


def test_random_generator_determinism_and_shape():
    a = gen_random(6, 3, seed=5, unambiguous=True, budget_resources=1)
    b = gen_random(6, 3, seed=5, unambiguous=True, budget_resources=1)
    assert a.values == b.values and a.resource_costs == b.resource_costs
    assert a.is_unambiguous()
    assert all(inst_i in a.items for (inst_i, _j) in a.values)
    assert all(c <= Fraction(1, 20) for c in a.resource_costs.values())
    c = gen_random(6, 3, seed=6)
    assert c.values != a.values
    for i in c.items:
        assert c.edges_of_item(i)  # every item has at least one edge


def test_random_generators_reject_empty_sizes():
    for make, name in ((lambda: gen_random(-2, 2, 1), "items"),
                       (lambda: gen_random(2, 0, 1), "buyers"),
                       (lambda: gen_random_iid_model(0, 2, 4, 1), "types"),
                       (lambda: gen_random_iid_model(2, 0, 4, 1), "buyers")):
        with pytest.raises(BadEps, match=f"^{name} must be at least"):
            make()
    assert gen_random(0, 2, 1).items == ()


def test_random_generator_rejects_bad_densities():
    for density in (-0.1, 1.5, float("nan")):
        with pytest.raises(BadEps, match="^edge_density must lie in"):
            gen_random(3, 2, 1, edge_density=density)
        with pytest.raises(BadEps, match="^p_density must lie in"):
            gen_random(3, 2, 1, p_density=density)
    for density in (0, 1):
        assert len(gen_random(3, 2, 1, edge_density=density, p_density=density).items) == 3


def test_random_generator_rejects_bad_budget_arguments():
    with pytest.raises(BadEps, match=r"^budget_resources must be at least 0, got -1$"):
        gen_random(3, 2, 1, budget_resources=-1)
    for bid_frac, shown in (("-0.5", "-1/2"), (-0.01, "-1/100")):
        with pytest.raises(BadEps, match=f"^bid_frac must be at least 0, got {shown}$"):
            gen_random(3, 2, 1, budget_resources=1, bid_frac=bid_frac)
    inst = gen_random(3, 2, 1, budget_resources=1, bid_frac=0)
    assert set(inst.resource_costs.values()) == {0}


def test_random_iid_model_determinism():
    a = gen_random_iid_model(4, 3, 12, seed=2)
    b = gen_random_iid_model(4, 3, 12, seed=2)
    assert a.values == b.values and a.probs == b.probs
    assert sum(a.probs.values()) == 1
