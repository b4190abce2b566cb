import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from avalloc.core import instance_to_dict
from avalloc.errors import BadEps, TooLarge
from avalloc.generators import (
    gen_adversarial_T,
    gen_genava_clique,
    gen_iid_lower_bound,
    gen_integrality_gap,
    gen_max_coverage,
    gen_random,
    gen_random_iid_model,
    gen_supply_example,
    gen_tightness_example,
)
from avalloc.lp_models import model_to_dict
from avalloc.oracles import exact_opt
from avalloc.rounding import sample_stream, stream_instance


def test_integrality_gap_structure():
    inst = gen_integrality_gap(3, Fraction(1, 10))
    assert len(inst.items) == 4 and len(inst.buyers) == 3
    p_edges = [inst.is_p_edge(i, j) for (i, j) in inst.edges()]
    assert p_edges.count(True) == 3 and p_edges.count(False) == 3
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

    dup3 = exact_opt(duplicate_supply(inst, 3))[0]
    assert dup3 == 12
    ratio = dup3 / Fraction(101, 50)
    assert abs(float(ratio) - 6) < 0.1  # about (k^2 + k) / 2 at k = 3


def test_tightness_counts_and_warning():
    inst = gen_tightness_example(Fraction(1, 2))
    assert len(inst.n_items()) == 2 and len(inst.p_items()) == 4
    rounded = gen_tightness_example(Fraction(1, 5))
    # 1/(eps(1-eps)) = 6.25 rounded down
    assert len(rounded.n_items()) == 5 and len(rounded.p_items()) == 6


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
    assert tri.values[("v:a", "j:a")] == 2  # M = 2|E|/n
    assert exact_opt(tri)[0] == 5  # alpha(K3) * M + |E| = 2 + 3
    p3 = gen_genava_clique(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert exact_opt(p3)[0] == Fraction(14, 3)  # alpha(P3) * 4/3 + 2
    with pytest.raises(BadEps):
        gen_genava_clique(["a", "b"], [])


def test_genava_clique_edge_classes():
    tri = gen_genava_clique(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert all(not tri.is_p_edge(i, j) for (i, j) in tri.edges() if i.startswith("v:"))
    assert all(tri.is_p_edge(i, j) for (i, j) in tri.edges() if i.startswith("e:"))


def test_clique_generators_reject_a_bad_graph():
    # a loop, a repeated edge and an edge to an unknown vertex
    for edges in ([("a", "a")], [("a", "c"), ("c", "a")], [("a", "b")]):
        with pytest.raises(BadEps):
            gen_genava_clique(["a", "c"], edges)


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


COVER_SYSTEMS = (
    ([["e1", "e2"], ["e3", "e4"]], 2),
    ([["e1", "e2"], ["e1", "e3"], ["e1", "e4"]], 2),
    ([["e1", "e2", "e3"], ["e4", "e5", "e6"], ["e1", "e4", "e5"], ["e2", "e3", "e6"]], 2),
)
GRAPHS = (
    ("abc", [("a", "b"), ("b", "c"), ("a", "c")]),  # triangle
    ("abc", [("a", "b"), ("b", "c")]),  # 3-path
    ("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")]),  # 5-cycle
)


def _grid_documents():
    """The document of every generator across a grid of its parameters."""
    for n in range(1, 6):
        for eps in (Fraction(1, 10), Fraction(1, 2 * n)):
            yield instance_to_dict(gen_integrality_gap(n, eps))
            yield instance_to_dict(gen_supply_example(n, eps))
    for eps in ("1/2", "1/5", "1/10"):
        yield instance_to_dict(gen_tightness_example(eps))
    for sets, k in COVER_SYSTEMS:
        for eps in ("1/10", "1/3"):
            yield instance_to_dict(gen_max_coverage(sets, k, eps))
    for vertices, edges in GRAPHS:
        for exponent in (1, "1/2"):
            yield instance_to_dict(gen_genava_clique(vertices, edges, exponent))
    for T in range(2, 9):
        yield model_to_dict(gen_iid_lower_bound(T))
    for T in range(2, 7):
        inst, order = gen_adversarial_T(T, "1/10")
        yield [instance_to_dict(inst), order]
    for n_items, n_buyers, seed, unambiguous, budget_resources in itertools.product(
            range(13), range(1, 5), range(4), (False, True), (0, 2)):
        yield instance_to_dict(gen_random(n_items, n_buyers, seed, unambiguous=unambiguous,
                                          budget_resources=budget_resources))
    for n_types, n_buyers, seed in itertools.product(range(1, 7), range(1, 5), range(4)):
        yield model_to_dict(gen_random_iid_model(n_types, n_buyers, 4, seed))


def test_generator_grid_is_pinned():
    h = hashlib.sha256()
    for doc in _grid_documents():
        h.update(json.dumps(doc).encode())
    assert h.hexdigest() == "f8a3375f9e1d574e1d07950512f4cda73bcd6fc0cde0b0b969c93e5cee928567"


ERRORS = (
    # eps is converted before any count is checked
    (gen_integrality_gap, (0, "x"), ValueError, "Invalid literal for Fraction: 'x'"),
    (gen_supply_example, (0, "x"), ValueError, "Invalid literal for Fraction: 'x'"),
    (gen_adversarial_T, (1, "x"), ValueError, "Invalid literal for Fraction: 'x'"),
    (gen_tightness_example, ("x",), ValueError, "Invalid literal for Fraction: 'x'"),
    (gen_max_coverage, ([["a", "b"]], 3, "x"), ValueError, "Invalid literal for Fraction: 'x'"),
    (gen_integrality_gap, (0, "0.1"), BadEps, "n must be at least 1"),
    (gen_integrality_gap, (3, "0.5"), BadEps, "eps must lie in (0, 1/3)"),
    (gen_integrality_gap, (1, "1"), BadEps, "eps must lie in (0, 1/1)"),
    (gen_integrality_gap, (2, 0), BadEps, "eps must lie in (0, 1/2)"),
    (gen_supply_example, (0, "0.1"), BadEps, "k must be at least 1"),
    (gen_supply_example, (2, "0.5"), BadEps, "eps must lie in (0, 1/2)"),
    (gen_supply_example, (1, -1), BadEps, "eps must lie in (0, 1/1)"),
    (gen_tightness_example, (1,), BadEps, "eps must lie in (0, 1)"),
    (gen_tightness_example, (0,), BadEps, "eps must lie in (0, 1)"),
    (gen_adversarial_T, (1, "0.1"), BadEps, "T must be at least 2"),
    (gen_adversarial_T, (3, 2), BadEps, "eps must lie in (0, 1)"),
    (gen_adversarial_T, (3, 0), BadEps, "eps must lie in (0, 1)"),
    (gen_max_coverage, ([["a", "b"]], 3, "0.1"), BadEps, "k must divide the universe size"),
    (gen_max_coverage, ([["a", "b"]], 1, "1"), BadEps, "eps must lie in (0, 1)"),
    (gen_max_coverage, ([["a", "b"], ["c"]], 1, "0.1"), BadEps, "all sets must have size 3"),
    (gen_genava_clique, (["a"], []), BadEps, "graph must have at least one edge"),
    (gen_genava_clique, (["a", "b"], [("a", "b")], "x"), ValueError,
     "Invalid literal for Fraction: 'x'"),
    (gen_iid_lower_bound, (1,), BadEps, "T must be at least 2"),
    (gen_random, (-1, 1, 0), BadEps, "items must be at least 0, got -1"),
    (gen_random, (1, 0, 0), BadEps, "buyers must be at least 1, got 0"),
    (gen_random_iid_model, (0, 1, 2, 0), BadEps, "types must be at least 1, got 0"),
    (gen_random_iid_model, (1, 0, 2, 0), BadEps, "buyers must be at least 1, got 0"),
    (gen_random_iid_model, (1, 1, 1, 0), ValueError, "horizon must be at least 2"),
)


@pytest.mark.parametrize("make, args, error, message", ERRORS,
                         ids=[f"{make.__name__}{args}" for make, args, _e, _m in ERRORS])
def test_generator_errors_are_pinned(make, args, error, message):
    with pytest.raises(Exception) as info:
        make(*args)
    assert type(info.value) is error and str(info.value) == message


def _balanced_systems(rng):
    """Seeded set systems of m sets of `size` elements whose union has
    k * size elements, so k divides it and every set has size n / k."""
    for k, size, m in ((2, 2, 3), (2, 2, 4), (2, 3, 3), (2, 3, 4), (3, 2, 4), (2, 4, 3)):
        pool = [f"e{x}" for x in range(1, k * size + 1)]
        while True:
            sets = [rng.sample(pool, size) for _ in range(m)]
            if len(set().union(*sets)) == len(pool):
                yield sets, k
                break


def test_max_coverage_optimum_is_affine_in_the_coverage_optimum():
    # exact_opt = k + eps*n/2 + (1 - eps/2) * maxcov_k(S), with maxcov_k the
    # largest union of at most k sets
    checked = 0
    for sets, k in _balanced_systems(random.Random(0)):
        n = len(set().union(*sets))
        cover = max(len(set().union(*chosen)) for r in range(1, k + 1)
                    for chosen in itertools.combinations(sets, r))
        for eps in (Fraction(1, 10), Fraction(1, 3)):
            try:
                opt = exact_opt(gen_max_coverage(sets, k, eps))[0]
            except TooLarge:
                continue
            assert opt == k + eps * n / 2 + (1 - eps / 2) * cover, (sets, k, eps)
            checked += 1
    assert checked >= 10


def test_genava_clique_optimum_counts_an_independent_set():
    # at exponent 1, exact_opt = |E| + (2|E|/|V|) * alpha(G)
    rng = random.Random(1)
    checked = 0
    for draw in range(15):
        vertices = [f"v{x}" for x in range(3 + draw % 4)]
        pairs = list(itertools.combinations(vertices, 2))
        edges = [p for p in pairs if rng.random() < 0.5] or [rng.choice(pairs)]
        alpha = max(len(c) for r in range(len(vertices) + 1)
                    for c in itertools.combinations(vertices, r)
                    if not any(u in c and v in c for u, v in edges))
        try:
            opt = exact_opt(gen_genava_clique(vertices, edges))[0]
        except TooLarge:
            continue
        assert opt == len(edges) + Fraction(2 * len(edges), len(vertices)) * alpha, edges
        checked += 1
    assert checked >= 10


def test_iid_lower_bound_stream_optimum_is_the_top_n_counts():
    # a stream with K P-arrivals: exact_opt = 2K + (1 - 1/T) * (sum of the K
    # largest N-type counts)
    for T in range(2, 9):
        model = gen_iid_lower_bound(T)
        for trial in range(8):
            stream = sample_stream(model, 0, trial)
            counts = Counter(stream)
            K = counts.pop("p", 0)
            top = sum(sorted(counts.values(), reverse=True)[:K])
            opt = exact_opt(stream_instance(model, stream))[0]
            assert opt == 2 * K + (1 - Fraction(1, T)) * top, stream
