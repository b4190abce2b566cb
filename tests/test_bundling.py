import random
from fractions import Fraction

import pytest

from avalloc import (
    Allocation,
    Bundle,
    BundledAllocation,
    allocation_value,
    duplicate_supply,
    extract_bundling,
    is_feasible,
    make_unambiguous_deterministic,
    make_unambiguous_random,
    split_ambiguous,
)
from avalloc.core import restrict_edges
from avalloc.errors import InfeasiblePrefix, InvalidBundling
from avalloc.generators import gen_integrality_gap, gen_random, gen_supply_example, gen_tightness_example
from avalloc.oracles import exact_bundling_opt, exact_opt
from util import random_feasible_allocation, unit_instance


def test_bundle_rejects_item_in_both_roles():
    with pytest.raises(InvalidBundling):
        Bundle(buyer="b", p_item="i", n_items=frozenset(["i"]))


def test_bundle_validation():
    inst = unit_instance({("p", "b"): "1.5", ("n", "b"): "0.6", ("q", "b"): "1.2"})
    Bundle(buyer="b", p_item="p", n_items=frozenset(["n"])).validate(inst)
    with pytest.raises(InvalidBundling):
        Bundle(buyer="b", p_item="n", n_items=frozenset()).validate(inst)
    with pytest.raises(InvalidBundling):
        Bundle(buyer="b", p_item="p", n_items=frozenset(["q"])).validate(inst)
    with pytest.raises(InvalidBundling):
        Bundle(buyer="b", p_item="p", n_items=frozenset(["ghost"])).validate(inst)


def test_bundle_permissibility_is_checked():
    inst = unit_instance({("p", "b"): "1.1", ("n1", "b"): "0.5", ("n2", "b"): "0.5"})
    Bundle(buyer="b", p_item="p", n_items=frozenset()).validate(inst)
    with pytest.raises(InvalidBundling):
        # deficits 0.5 + 0.5 exceed the 0.1 excess
        Bundle(buyer="b", p_item="p", n_items=frozenset(["n1", "n2"])).validate(inst)


def test_bundled_allocation_rejects_shared_item():
    inst = unit_instance({("p", "b"): 2, ("q", "c"): 2, ("n", "b"): "0.5", ("n", "c"): "0.5"})
    one = BundledAllocation([Bundle("b", "p", ["n"]), Bundle("c", "q", [])])
    one.validate(inst)
    shared = BundledAllocation([Bundle("b", "p", ["n"]), Bundle("c", "q", ["n"])])
    with pytest.raises(InvalidBundling, match="two bundles"):
        shared.validate(inst)


def test_bundled_allocation_checks_every_budget():
    values = {("p", "b"): 2, ("n", "b"): "0.5", ("q", "c"): 2}
    rcosts = {("cpu", "p", "b"): "0.25", ("cpu", "n", "b"): "0.25", ("mem", "q", "c"): 3}
    bundles = BundledAllocation([Bundle("b", "p", ["n"]), Bundle("c", "q", [])])
    # met exactly: cpu of b spends 1/2 of 1/2, mem of c 3 of 3
    exact = unit_instance(values, budgets={("cpu", "b"): "0.5", ("mem", "c"): 3},
                          rcosts=rcosts)
    bundles.validate(exact)
    over = unit_instance(values, budgets={("cpu", "b"): "0.5", ("mem", "c"): "2.99"},
                         rcosts=rcosts)
    with pytest.raises(InvalidBundling, match="budget 'mem' of buyer 'c'"):
        bundles.validate(over)
    # a single bundle can overrun a budget on its own
    with pytest.raises(InvalidBundling, match="budget 'cpu' of buyer 'b'"):
        BundledAllocation([Bundle("b", "p", ["n"])]).validate(
            unit_instance(values, budgets={("cpu", "b"): "0.49"}, rcosts=rcosts)
        )


def test_extract_bundling_tightness_value():
    inst = gen_tightness_example(Fraction(1, 2))
    alloc = Allocation({i: "b" for i in inst.items})
    p_first = [i for i in inst.items if inst.is_p_edge(i, "b")] + [
        i for i in inst.items if not inst.is_p_edge(i, "b")
    ]
    out = extract_bundling(inst, alloc, p_first)
    assert out.value(inst) == 5
    # interleaved but still prefix-feasible order gives the same value
    interleaved = ["p1", "p2", "n1", "p3", "p4", "n2"]
    out2 = extract_bundling(inst, alloc, interleaved)
    assert out2.value(inst) == 5


def test_extract_bundling_keeps_p_only_allocations():
    inst = unit_instance({("p1", "b"): "1.5", ("p2", "b"): "1.2"})
    alloc = Allocation({"p1": "b", "p2": "b"})
    out = extract_bundling(inst, alloc, ["p1", "p2"])
    assert len(out) == 2
    assert all(not b.n_items for b in out.bundles)
    assert out.value(inst) == allocation_value(inst, alloc)


def test_extract_bundling_single_bundle():
    inst = unit_instance({("p", "b"): "1.5", ("n", "b"): "0.6"})
    out = extract_bundling(inst, Allocation({"p": "b", "n": "b"}), ["p", "n"])
    assert [(b.p_item, sorted(b.n_items)) for b in out.bundles] == [("p", ["n"])]
    assert out.value(inst) == Fraction(21, 10)


def test_extract_bundling_rejects_infeasible_prefix():
    inst = gen_tightness_example(Fraction(1, 2))
    alloc = Allocation({i: "b" for i in inst.items})
    with pytest.raises(InfeasiblePrefix):
        extract_bundling(inst, alloc, ["n1", "n2", "p1", "p2", "p3", "p4"])


def test_extract_bundling_half_value_sweep():
    for seed in range(40):
        inst = gen_random(7, 3, seed=seed)
        alloc, order = random_feasible_allocation(inst, random.Random(seed))
        out = extract_bundling(inst, alloc, order)
        assert 2 * out.value(inst) >= allocation_value(inst, alloc)
        out.validate(inst)


def test_extract_bundling_is_committed():
    # decisions on a prefix never change when the order is extended
    for seed in range(15):
        inst = gen_random(7, 3, seed=100 + seed)
        alloc, order = random_feasible_allocation(inst, random.Random(seed))
        if len(order) < 2:
            continue
        cut = len(order) // 2
        prefix_alloc = Allocation({i: alloc.assignment[i] for i in order[:cut]})
        part = extract_bundling(inst, prefix_alloc, order[:cut])
        full = extract_bundling(inst, alloc, order)

        def membership(out):
            where = {}
            for b in out.bundles:
                for i in b.members():
                    where[i] = (b.buyer, b.p_item)
            return where

        part_map = membership(part)
        full_map = membership(full)
        for i, spot in part_map.items():
            assert full_map.get(i) == spot


def test_make_unambiguous_random_pure_items_unchanged():
    inst = gen_integrality_gap(3, Fraction(1, 10))  # already unambiguous
    for seed in (0, 1, 2):
        sub = make_unambiguous_random(inst, seed)
        assert sub.values == inst.values


def test_make_unambiguous_random_coin_is_fair():
    inst = unit_instance({("i", "b1"): "1.3", ("i", "b2"): "0.9"}, buyers=["b1", "b2"])
    trials = 10_000
    kept_p = 0
    for seed in range(trials):
        sub = make_unambiguous_random(inst, seed)
        edges = set(sub.values)
        assert edges in ({("i", "b1")}, {("i", "b2")})
        if ("i", "b1") in edges:
            kept_p += 1
    sigma = (trials * 0.25) ** 0.5
    assert abs(kept_p - trials / 2) <= 3 * sigma


def test_make_unambiguous_random_quarter_of_optimum():
    # averaged over seeds, the sub-instance's bundling optimum keeps at
    # least a quarter of the original optimum
    for iseed in (3, 7):
        inst = gen_random(6, 3, seed=iseed)
        opt, _ = exact_opt(inst)
        seeds = 200
        vals = []
        for s in range(seeds):
            sub = make_unambiguous_random(inst, s)
            assert sub.is_unambiguous()
            v, _ = exact_bundling_opt(sub)
            vals.append(float(v))
        mean = sum(vals) / seeds
        sd = (sum((v - mean) ** 2 for v in vals) / (seeds - 1)) ** 0.5
        assert mean >= 0.25 * float(opt) - 3 * sd / seeds ** 0.5


def test_split_ambiguous():
    inst = unit_instance(
        {("i", "b1"): "1.3", ("i", "b2"): "0.9", ("k", "b1"): "1.5"}, buyers=["b1", "b2"]
    )
    split, orig = split_ambiguous(inst)
    assert split.is_unambiguous()
    assert set(split.items) == {"i+", "i-", "k"}
    assert orig == {"i+": "i", "i-": "i"}
    assert split.values[("i+", "b1")] == Fraction(13, 10)
    assert split.values[("i-", "b2")] == Fraction(9, 10)


def test_deterministic_unambiguous_no_arcs_is_identity():
    inst = unit_instance(
        {("i", "b1"): "1.5", ("i", "b2"): "0.8", ("k", "b1"): "0.9"}, buyers=["b1", "b2"]
    )
    split, _ = split_ambiguous(inst)
    bundling = BundledAllocation(
        [Bundle(buyer="b1", p_item="i+", n_items=frozenset(["k"]))]
    )
    bundling.validate(split)
    out_inst, out = make_unambiguous_deterministic(inst, bundling)
    assert out.value(out_inst) == bundling.value(split)
    assert [(b.buyer, b.p_item, sorted(b.n_items)) for b in out.bundles] == [
        ("b1", "i", ["k"])
    ]


def test_deterministic_unambiguous_two_cycle():
    inst = unit_instance(
        {
            ("i1", "b1"): "1.5",
            ("i1", "b2"): "0.8",
            ("i2", "b2"): "1.5",
            ("i2", "b1"): "0.8",
        },
        buyers=["b1", "b2"],
    )
    split, _ = split_ambiguous(inst)
    bundling = BundledAllocation(
        [
            Bundle(buyer="b1", p_item="i1+", n_items=frozenset(["i2-"])),
            Bundle(buyer="b2", p_item="i2+", n_items=frozenset(["i1-"])),
        ]
    )
    bundling.validate(split)
    out_inst, out = make_unambiguous_deterministic(inst, bundling)
    # each cycle bundle loses its N-item; both P-items survive
    assert out.value(out_inst) == 3
    assert 2 * out.value(out_inst) >= bundling.value(split)
    assert out_inst.is_unambiguous()
    used = [i for b in out.bundles for i in b.members()]
    assert len(used) == len(set(used))
    # the cycle-free result is at least half of what the split instance kept,
    # and the exact bundling optimum of the original confirms 3 is best here
    opt, _ = exact_bundling_opt(inst)
    assert out.value(out_inst) == opt


def test_deterministic_unambiguous_rejects_an_invalid_split_bundling():
    inst = unit_instance(
        {("i", "b1"): "1.5", ("i", "b2"): "0.8", ("q", "b2"): "1.1",
         ("k", "b1"): "0.9", ("k", "b2"): "0.9"},
        buyers=["b1", "b2"],
    )
    shared = BundledAllocation([Bundle("b1", "i+", ["k"]), Bundle("b2", "q", ["k"])])
    with pytest.raises(InvalidBundling, match="two bundles"):
        make_unambiguous_deterministic(inst, shared)
    # the deficit 1/5 of i- exceeds the excess 1/10 of q
    impermissible = BundledAllocation([Bundle("b2", "q", ["i-"])])
    with pytest.raises(InvalidBundling, match="not permissible"):
        make_unambiguous_deterministic(inst, impermissible)


def test_deterministic_unambiguous_random_sweep():
    for seed in range(20):
        inst = gen_random(6, 3, seed=400 + seed)
        split, _ = split_ambiguous(inst)
        _v, bundling = exact_bundling_opt(split)
        out_inst, out = make_unambiguous_deterministic(inst, bundling)
        assert 2 * out.value(out_inst) >= bundling.value(split)
        assert out_inst.is_unambiguous()
        used = [i for b in out.bundles for i in b.members()]
        assert len(used) == len(set(used))
        assert is_feasible(out_inst, out.to_allocation())


def test_copies_carry_costs_and_resource_costs():
    # i is ambiguous in cost mode: excess 3/10 for b1 and -1/10 for b2
    values = {("i", "b1"): "1.3", ("i", "b2"): "0.9", ("k", "b1"): "0.5"}
    inst = unit_instance(
        values, buyers=["b1", "b2"], costs={e: 1 for e in values},
        budgets={("cpu", "b1"): 1},
        rcosts={("cpu", "i", "b1"): "0.25", ("cpu", "i", "b2"): "0.5",
                ("cpu", "k", "b1"): "0.1"},
    )
    split, orig = split_ambiguous(inst)
    assert split.items == ("i+", "i-", "k") and orig == {"i+": "i", "i-": "i"}
    assert split.costs == {("i+", "b1"): 1, ("i-", "b2"): 1, ("k", "b1"): 1}
    assert split.resource_costs == {("cpu", "i+", "b1"): Fraction(1, 4),
                                    ("cpu", "i-", "b2"): Fraction(1, 2),
                                    ("cpu", "k", "b1"): Fraction(1, 10)}
    assert split.budgets == inst.budgets
    dup = duplicate_supply(inst, 2)
    assert dup.items == ("i@1", "i@2", "k@1", "k@2")
    assert dup.resource_costs[("cpu", "k@2", "b1")] == Fraction(1, 10)
    assert len(dup.resource_costs) == 6 and len(dup.costs) == 6
    kept = restrict_edges(inst, [("i", "b1")])
    assert kept.items == inst.items
    assert kept.costs == {("i", "b1"): 1}
    assert kept.resource_costs == {("cpu", "i", "b1"): Fraction(1, 4)}
    with pytest.raises(InvalidBundling, match="collides"):
        split_ambiguous(unit_instance({("i", "b1"): "1.3", ("i", "b2"): "0.9",
                                       ("i-", "b1"): "1.5"}, buyers=["b1", "b2"]))


def test_duplicate_supply_counts_and_values():
    inst = gen_supply_example(3, Fraction(1, 100))
    dup = duplicate_supply(inst, 3)
    assert len(dup.items) == 3 * len(inst.items)
    assert dup.buyers == inst.buyers
    assert len(dup.values) == 3 * len(inst.values)
    iso = duplicate_supply(inst, 1)
    assert len(iso.items) == len(inst.items)
    assert sorted(v for v in iso.values.values()) == sorted(inst.values.values())
    with pytest.raises(ValueError):
        duplicate_supply(inst, 0)


def test_duplicate_supply_optimum_jump():
    inst = gen_supply_example(3, Fraction(1, 100))
    assert exact_opt(inst)[0] == Fraction(101, 50)
    dup = duplicate_supply(inst, 3)
    assert exact_opt(dup)[0] == 12


def test_duplicate_supply_at_least_linear():
    for seed in (0, 5):
        inst = gen_random(4, 2, seed=seed)
        opt, _ = exact_opt(inst)
        for k in (2, 3):
            dup_opt, _ = exact_opt(duplicate_supply(inst, k))
            assert dup_opt >= k * opt
