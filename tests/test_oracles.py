import functools
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avalloc import (
    Allocation,
    GapInstance,
    Instance,
    allocation_value,
    duplicate_supply,
    is_feasible,
    oracles,
)
from avalloc.errors import TooLarge
from avalloc.gap import export_gap
from avalloc.generators import (
    gen_adversarial_T,
    gen_genava_clique,
    gen_integrality_gap,
    gen_max_coverage,
    gen_random,
    gen_supply_example,
    gen_tightness_example,
)
from avalloc.oracles import (
    _DP_MASK_LIMIT,
    DEFAULT_STATE_LIMIT,
    _single_buyer_dfs,
    exact_bundling_opt,
    exact_gap_opt,
    exact_opt,
)
from reference_dp import reference_allocation_dp
from reference_partition import reference_partition_tables
from util import unit_instance


def test_exact_opt_supply_examples():
    base = gen_supply_example(3, Fraction(1, 100))
    v, alloc = exact_opt(base)
    assert v == Fraction(101, 50)
    assert is_feasible(base, alloc)
    assert allocation_value(base, alloc) == v
    dup = duplicate_supply(base, 3)
    v3, alloc3 = exact_opt(dup)
    assert v3 == 12
    assert is_feasible(dup, alloc3)


def test_exact_opt_gap_instance():
    inst = gen_integrality_gap(3, Fraction(1, 10))
    v, _ = exact_opt(inst)
    assert v == Fraction(11, 5)


def test_exact_opt_too_large():
    inst = gen_random(8, 3, seed=0)
    with pytest.raises(TooLarge) as err:
        exact_opt(inst, max_states=100)
    assert err.value.state_count == 2948
    assert str(err.value) == "work 2948 exceeds limit 100"


def test_exact_opt_cost_mode_and_budgets():
    # i: excess 4 - 2 = 2 (P); k: excess 3 - 5 = -2 (N); together the value
    # 7 meets the cost 7 exactly, beating i alone
    inst = unit_instance(
        {("i", "b"): 4, ("k", "b"): 3},
        costs={("i", "b"): 2, ("k", "b"): 5},
    )
    v, alloc = exact_opt(inst)
    assert v == 7
    assert alloc.assignment == {"i": "b", "k": "b"}

    budget = unit_instance(
        {("i", "b"): 2, ("k", "b"): 2},
        budgets={("r", "b"): Fraction(1)},
        rcosts={("r", "i", "b"): Fraction(1), ("r", "k", "b"): Fraction(1)},
    )
    v, alloc = exact_opt(budget)
    assert v == 2 and len(alloc.assignment) == 1


def test_exact_opt_deterministic():
    inst = gen_random(6, 3, seed=77)
    v1, a1 = exact_opt(inst)
    v2, a2 = exact_opt(inst)
    assert v1 == v2 and a1 == a2


def test_exact_bundling_opt_tightness():
    inst = gen_tightness_example(Fraction(1, 2))
    v, out = exact_bundling_opt(inst)
    assert v == 5
    assert all(not b.n_items for b in out.bundles)  # no permissible bundle holds an N-edge


def test_exact_bundling_all_p_matches_exact_opt():
    inst = unit_instance({("a", "b1"): "1.5", ("c", "b1"): "1.2", ("d", "b2"): 2},
                         buyers=["b1", "b2"])
    assert exact_bundling_opt(inst)[0] == exact_opt(inst)[0]


def test_bundling_within_factor_two_sweep():
    for seed in range(25):
        inst = gen_random(7, 3, seed=900 + seed)
        opt, _ = exact_opt(inst)
        bopt, out = exact_bundling_opt(inst)
        assert bopt <= opt <= 2 * bopt
        out.validate(inst)


def test_supply_growth_bounds():
    for seed in (0, 4):
        inst = gen_random(4, 2, seed=seed)
        opt, _ = exact_opt(inst)
        for k in (2, 3):
            dup_opt, _ = exact_opt(duplicate_supply(inst, k))
            assert k * opt <= dup_opt <= (k * k + k) * opt


def test_exact_gap_opt_trivial_cases():
    empty = GapInstance(elements=[], bins=[("p", "b")], values={}, sizes={}, groups={})
    assert exact_gap_opt(empty) == 0
    one = GapInstance(
        elements=["e"],
        bins=[("p", "b")],
        values={("e", ("p", "b")): 3},
        sizes={("e", ("p", "b")): Fraction(1, 2)},
        groups={},
    )
    assert exact_gap_opt(one) == 3


def test_exact_gap_opt_matches_bundling_on_gap_family():
    inst = gen_integrality_gap(3, Fraction(1, 10))
    gap = export_gap(inst)
    assert exact_gap_opt(gap) == exact_bundling_opt(inst)[0] == Fraction(11, 5)


def test_exact_gap_opt_guards():
    big = GapInstance(
        elements=[f"e{k}" for k in range(11)],
        bins=[("p", "b")],
        values={},
        sizes={},
        groups={},
    )
    with pytest.raises(TooLarge, match="^GAP elements 11 exceeds limit 10$"):
        exact_gap_opt(big)
    wide = GapInstance(elements=["e"], bins=[("p", f"b{k}") for k in range(13)],
                       values={}, sizes={}, groups={})
    with pytest.raises(TooLarge, match="^GAP bins 13 exceeds limit 12$"):
        exact_gap_opt(wide)


def _with_costs(inst, seed):
    """inst in return-on-spend mode: seeded edge costs on a 1/8 grid in
    [0, 3/2], zero included."""
    rng = random.Random(seed)
    costs = {e: Fraction(rng.randint(0, 12), 8) for e in inst.edges()}
    return Instance(items=inst.items, buyers=inst.buyers, values=inst.values,
                    thresholds=inst.thresholds, costs=costs)


@functools.cache
def _oracle_cases():
    """Every oracle input of harness.bench_examples, then small random
    instances: plain, budgeted and in cost mode."""
    eps = Fraction(1, 10)
    supply = gen_supply_example(3, Fraction(1, 100))
    cases = {f"gap{n}": gen_integrality_gap(n, eps) for n in (2, 3, 4, 5)}
    cases.update({
        "tight1/2": gen_tightness_example(Fraction(1, 2)),
        "tight1/5": gen_tightness_example(Fraction(1, 5)),
        "supply3": supply,
        "supply3x3": duplicate_supply(supply, 3),
        "adversarial5": gen_adversarial_T(5, Fraction(1, 20))[0],
        "coverage-yes": gen_max_coverage([["e1", "e2"], ["e3", "e4"]], k=2, eps=eps),
        "coverage-no": gen_max_coverage([["e1", "e2"], ["e1", "e3"], ["e1", "e4"]], k=2,
                                        eps=eps),
        "triangle": gen_genava_clique(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]),
        "path3": gen_genava_clique(["a", "b", "c"], [("a", "b"), ("b", "c")]),
    })
    for n, m in ((5, 1), (6, 2), (7, 3), (8, 2), (8, 3)):
        for seed in (0, 1, 2):
            cases[f"random{n}x{m}s{seed}"] = gen_random(n, m, seed)
    for n, m, k in ((6, 2, 1), (7, 3, 2), (8, 2, 2)):
        for seed in (0, 1):
            cases[f"budgeted{n}x{m}r{k}s{seed}"] = gen_random(
                n, m, seed, budget_resources=k, bid_frac="0.4")
    for n, m in ((6, 1), (7, 2), (8, 3)):
        for seed in (0, 1):
            cases[f"costs{n}x{m}s{seed}"] = _with_costs(gen_random(n, m, seed), seed)
    return cases


def _oracle_digest(inst) -> str:
    """sha256 of exact_opt's (value, sorted assignment) and
    exact_bundling_opt's (value, sorted bundles)."""
    opt, alloc = exact_opt(inst)
    bopt, out = exact_bundling_opt(inst)
    doc = [
        str(opt),
        sorted([str(i), str(j)] for i, j in alloc.assignment.items()),
        str(bopt),
        sorted([str(b.buyer), str(b.p_item), sorted(map(str, b.n_items))]
               for b in out.bundles),
    ]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


# recorded before the oracles ran on scaled integers
ORACLE_DIGESTS = {
    "adversarial5": "83518cd045b6cf18e30a410cf3e09bbb2e38e506349d51f2034dfa925658008f",
    "budgeted6x2r1s0": "0e4fced6ff40588852e95f638d980d61dfb34c793640a688ba898b43c66afc50",
    "budgeted6x2r1s1": "af9458d76097e1840aea64a11e1276c0a1eb9e9b9975775096582cdafbb4cf76",
    "budgeted7x3r2s0": "c2fce399bf6283d7f28460252e65d41e3b698e24f2a458234b3a5a24b7eaa692",
    "budgeted7x3r2s1": "b9ce75e3ee93800fbbc27fc9fe23dd44b7ebb7607014d3615b779ab7e81b0014",
    "budgeted8x2r2s0": "ced8cd8270d3102d361a995da5d03c7dd0a88ea2bbe43f430b46de726596fd17",
    "budgeted8x2r2s1": "af3deea611a538e7979ad038807e321a2e2d85a52e34df0574d50a2bb505eb5c",
    "costs6x1s0": "7986e2b8c90a468dd184adcc81cbbb0e8a848b4d1e546ed1ecf62361428109fe",
    "costs6x1s1": "d39685c3e0bcb940fd1336290736bfcb353adc1178a90dfc1d1e9386739ceac3",
    "costs7x2s0": "c9edde926b6e3fb7dcfe71bd0187a26537eb54c7db208bf26cb8d820e94f14bd",
    "costs7x2s1": "cb8560f002b4c8b1f1fb9a6c49bc2297f9a2b6dddac55e339564ec7351b3082e",
    "costs8x3s0": "82ec12f7aff541c335cb8be5bda895c0163de1ffd916de2a4d7d051502d26106",
    "costs8x3s1": "b49fc5db228df277880722b25105f9fa37ea75f6a84ff0b44f6375f8d9a3f293",
    "coverage-no": "2931a436bfd17a6d03616fea33c60aad27f7314d3536fc7844ea06fc9ce16990",
    "coverage-yes": "2fe48aaf6d2e89479e034c07f2ac1cd5cf9f681ff9c15a0b9afc49f3e93aeff0",
    "gap2": "831a9f91507df147d1b0859f78d8ca245eda6c2fbc8b16510b6388fc98a36f74",
    "gap3": "92b5669e91dccb8296b8757c1ee20b10669fad2f9f5a199b8ad8c2651d8d331e",
    "gap4": "a0eb295ebf13b23ef4a1a3627252e18c209ed0905f9e7c11a5888b5774b53296",
    "gap5": "43bcd2d426990b36e936658516df34ed86e649204a02adf933d6103cc3617ad6",
    "path3": "8904b40a477a5378d0d86756ba2704aef8f3dbca5c78f430a62722429ba3ddb9",
    "random5x1s0": "af202a0c8c2ce351149f5d4a7f0f63ffae8dbc291810b46eaa2a74683625c562",
    "random5x1s1": "bbad8aeffa14fe04b06b3949bc54061dc10faf6c19cc1a99bc07c35138730760",
    "random5x1s2": "e01b50d325545d155c511fdc9e33e18b46edffb857a7479f980ab441ea9ad6ed",
    "random6x2s0": "0e4fced6ff40588852e95f638d980d61dfb34c793640a688ba898b43c66afc50",
    "random6x2s1": "af9458d76097e1840aea64a11e1276c0a1eb9e9b9975775096582cdafbb4cf76",
    "random6x2s2": "86f5d1baaa581518000dbba6809ef86c478078cb11116f5efe3104831eab0c9b",
    "random7x3s0": "c2fce399bf6283d7f28460252e65d41e3b698e24f2a458234b3a5a24b7eaa692",
    "random7x3s1": "7df50c4adc0382f59e55a28b583f005472f7699bad7a1966b907604ed8a488bf",
    "random7x3s2": "7d525cc16bda4aaa47fda1e2671ec37100fcfe2ce8f8876feeebbf8eb83b0ee1",
    "random8x2s0": "5b5502b4924517f062d6730ad1b5013f16da25ea9265fc138137758bd46691d2",
    "random8x2s1": "fdd4505308b973a126f5b92f75f10aac3ea946b7c5660c312370159bb4cbb734",
    "random8x2s2": "5e9280095cc33a3aadc5ed30ebe3fa62eef97a02a9bfc1b6c4bea77be35c0bda",
    "random8x3s0": "3cce3c7e3037e11a994c9f95571451c9ac0756cd23cd775c8616af059cb2b993",
    "random8x3s1": "dbe0607d3abd1c67d9a20604008b125553f878e33143b461ce40434252486574",
    "random8x3s2": "206fecfd3e21b2535e9fb0c61042645464052a7fc2b121c4aeed59caa50a5908",
    "supply3": "55e3b5f84994e816a543781ff7272c803975a77b103e20422f3c03bc57c94a21",
    "supply3x3": "a0a43cc52ead6ce4368de67308ae89365e93f60493dc8c1b261329f68ba8dbb7",
    "tight1/2": "d72044f50fd5fbae08d62e4ebd833e1f5e373fd7fb546bacc456f1049fa3f601",
    "tight1/5": "292cff91b7299290021b62f6767c0014557d8d88de3304f527b8a0eccc1fd5d7",
    "triangle": "54ab327813acaba0d2aca361a6cf707e9dd95f41c52b30aace8d8e74fec5039f",
}


@pytest.mark.parametrize("name", sorted(ORACLE_DIGESTS))
def test_oracle_outputs_are_pinned(name):
    assert _oracle_digest(_oracle_cases()[name]) == ORACLE_DIGESTS[name]


@st.composite
def small_instances(draw, max_items, max_buyers):
    """Random instances on up to max_items items and max_buyers buyers:
    edges with density 3/4, values on a 1/4 grid in [0, 2] with zeros,
    thresholds in (0, 2] with denominators up to 10**12 + 39, and in cost
    mode edge costs on the same grid, or else one budgeted resource."""
    n = draw(st.integers(1, max_items))
    m = draw(st.integers(1, max_buyers))
    mode = draw(st.sampled_from(["plain", "costs", "budgets"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    items = [f"i{k}" for k in range(n)]
    buyers = [f"b{k}" for k in range(m)]
    values = {(i, j): Fraction(rng.randint(0, 8), 4)
              for i in items for j in buyers if rng.random() < 0.75}
    thresholds = {}
    for j in buyers:
        den = rng.choice([1, 2, 3, 999_983, 10 ** 12 + 39])
        thresholds[j] = Fraction(rng.randint(1, 2 * den), den)
    costs = budgets = rcosts = None
    if mode == "costs":
        costs = {e: Fraction(rng.randint(0, 8), 4) for e in values}
    elif mode == "budgets":
        budgets = {("r", j): Fraction(rng.randint(1, 6), 4)
                   for j in buyers if rng.random() < 0.75}
        rcosts = {("r", i, j): Fraction(rng.randint(0, 4), 4) for (i, j) in values}
    return Instance(items=items, buyers=buyers, values=values, thresholds=thresholds,
                    costs=costs, budgets=budgets or None, resource_costs=rcosts)


def _best_by_enumeration(inst):
    """The best value over all (buyers+1)^items assignments that pass
    is_feasible, without any dynamic programming."""
    choices = [[None] + inst.edges_of_item(i) for i in inst.items]
    best = Fraction(0)
    for pick in itertools.product(*choices):
        alloc = Allocation({i: j for i, j in zip(inst.items, pick) if j is not None})
        if is_feasible(inst, alloc):
            best = max(best, allocation_value(inst, alloc))
    return best


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(small_instances(6, 3))
def test_oracles_match_enumeration(inst):
    opt, alloc = exact_opt(inst)
    assert opt == _best_by_enumeration(inst)
    assert is_feasible(inst, alloc) and allocation_value(inst, alloc) == opt
    bopt, out = exact_bundling_opt(inst)
    out.validate(inst)
    assert bopt == out.value(inst)
    assert bopt <= opt
    if not inst.has_costs:
        # in cost mode an N-edge's value is not bounded by its deficit, so
        # bundling can lose more than half: see test_cost_mode_bundling_can_lose_more_than_half
        assert opt <= 2 * bopt


def test_cost_mode_bundling_can_lose_more_than_half():
    # two free P-items (excess 1 each) jointly pay the N-item's deficit 3/2,
    # which no single bundle can
    inst = unit_instance(
        {("p1", "b"): 1, ("p2", "b"): 1, ("n", "b"): 100},
        costs={("p1", "b"): 0, ("p2", "b"): 0, ("n", "b"): Fraction(203, 2)},
    )
    assert exact_opt(inst)[0] == 102
    assert exact_bundling_opt(inst)[0] == 2


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(small_instances(12, 1))
def test_single_buyer_search_matches_dp(inst):
    assert (1 << len(inst.items)) <= _DP_MASK_LIMIT  # so exact_opt runs the DP
    opt, _alloc = exact_opt(inst)
    dfs_opt, dfs_alloc = _single_buyer_dfs(inst, DEFAULT_STATE_LIMIT)
    assert dfs_opt == opt
    assert is_feasible(inst, dfs_alloc) and allocation_value(inst, dfs_alloc) == opt


@pytest.mark.parametrize("oracle", [exact_opt, exact_bundling_opt])
def test_mask_limit_refuses_before_building_tables(oracle, monkeypatch):
    inst = gen_random(18, 2, seed=0)
    assert (1 << 18) > _DP_MASK_LIMIT

    def no_tables(*_args):
        raise AssertionError("a subset table was built")

    monkeypatch.setattr(oracles, "_buyer_tables", no_tables)
    with pytest.raises(TooLarge) as err:
        oracle(inst, max_states=10 ** 12)
    # the refusal names the subset-table size and its limit, not the state
    # count, which is within max_states
    assert (err.value.state_count, err.value.limit) == (1 << 18, _DP_MASK_LIMIT)
    assert str(err.value) == f"subset table width {1 << 18} exceeds limit {_DP_MASK_LIMIT}"


@pytest.mark.parametrize("oracle", [exact_opt, exact_bundling_opt])
@pytest.mark.parametrize("limit", [0, -5])
def test_limit_below_one_is_a_usage_error(oracle, limit, monkeypatch):
    def no_tables(*_args):
        raise AssertionError("a subset table was built")

    monkeypatch.setattr(oracles, "_buyer_tables", no_tables)
    for inst in (gen_random(4, 2, seed=0), gen_random(18, 1, seed=0)):
        with pytest.raises(ValueError, match="at least 1"):
            oracle(inst, max_states=limit)


def _dp_call(oracle, inst, wrap=lambda table: table):
    """Run oracle on inst, replacing each admissible table it builds by
    wrap(table).  Returns the oracle's admissible function, the wrapped
    tables by buyer and the result of its one _allocation_dp call."""
    real = oracles._allocation_dp
    calls = []

    def spy(inst, admissible, max_states):
        tables = {}

        def wrapped(j, buyer_tables):
            tables[j] = wrap(admissible(j, buyer_tables))
            return tables[j]

        calls.append((admissible, tables, real(inst, wrapped, max_states)))
        return calls[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_allocation_dp", spy)
        oracle(inst)
    (call,) = calls
    return call


@st.composite
def tie_instances(draw, max_items, max_buyers):
    """Instances full of ties: values in {0, 1} and one threshold for every
    buyer, so many allocations share the best value."""
    n = draw(st.integers(1, max_items))
    m = draw(st.integers(1, max_buyers))
    rho = draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2)]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    items = [f"i{k}" for k in range(n)]
    buyers = [f"b{k}" for k in range(m)]
    values = {(i, j): rng.randint(0, 1) for i in items for j in buyers if rng.random() < 0.75}
    return Instance(items=items, buyers=buyers, values=values,
                    thresholds={j: rho for j in buyers})


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.one_of(small_instances(9, 4), tie_instances(9, 4)))
def test_dp_matches_full_table_reference(inst):
    # same value and masks, so the same tie-breaks, on both oracles' tables
    for oracle in (exact_opt, exact_bundling_opt):
        admissible, _tables, got = _dp_call(oracle, inst)
        assert got == reference_allocation_dp(inst, admissible)


@st.composite
def random_instances(draw):
    """gen_random draws, plain or budgeted, with P-edges dense or sparse."""
    return gen_random(
        draw(st.integers(1, 10)), draw(st.integers(1, 3)), draw(st.integers(0, 2 ** 32)),
        p_density=draw(st.sampled_from([0.0, 0.3, 0.4, 1.0])),
        unambiguous=draw(st.booleans()), budget_resources=draw(st.integers(0, 2)),
    )


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.one_of(small_instances(10, 3), tie_instances(10, 3), random_instances()))
def test_partition_tables_match_the_unpruned_reference(inst):
    for j in inst.buyers:
        tables = oracles._buyer_tables(inst, j, oracles._edge_mask(inst, j))
        assert oracles._partition_tables(inst, j, tables) == reference_partition_tables(
            inst, j, tables)


class _CountingTable(bytearray):
    """An admissible table that counts its reads."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_dp_reads_only_reachable_states():
    # one buyer is read only at the full item set, once per nonempty
    # submask of its neighborhood; filling every item set reads it
    # 3^11 - 2^11 times
    inst = gen_tightness_example(Fraction(1, 5))
    assert (len(inst.items), len(inst.buyers)) == (11, 1)
    _adm, tables, _out = _dp_call(exact_opt, inst, _CountingTable)
    (table,) = tables.values()
    assert table.reads < 2 ** 11
    # two buyers with disjoint neighborhoods: the first is read only at the
    # full set, the second at every set holding the first's items or not
    inst = unit_instance({**{(f"a{k}", "b0"): 1 for k in range(5)},
                          **{(f"c{k}", "b1"): 1 for k in range(4)}})
    _adm, tables, _out = _dp_call(exact_opt, inst, _CountingTable)
    assert tables["b0"].reads < 2 ** 5
    assert tables["b1"].reads < 2 ** 5 * 2 ** 4


@st.composite
def uneven_instances(draw):
    """Instances on up to 10 items and 4 buyers whose edge density is drawn
    per buyer, 0 included, so that some buyers have no edges."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    items = [f"i{k}" for k in range(n)]
    buyers = [f"b{k}" for k in range(m)]
    values = {}
    for j in buyers:
        density = draw(st.sampled_from([0, 0.3, 0.7, 1]))
        values.update({(i, j): rng.randint(0, 2) for i in items if rng.random() < density})
    return Instance(items=items, buyers=buyers, values=values,
                    thresholds={j: Fraction(1) for j in buyers})


def _walked_pairs(inst):
    """(pairs, states): the (S, T) pairs the allocation DP walks, one by
    one.  For each buyer, S runs over the item sets holding every item
    outside U, the earlier buyers' neighborhoods, and T over the subsets
    of S's part of the buyer's neighborhood E, the empty set included."""
    full = (1 << len(inst.items)) - 1
    pairs = states = U = 0
    for j in inst.buyers:
        E = sum(1 << k for k, i in enumerate(inst.items) if (i, j) in inst.values)
        for S in range(full + 1):
            if (full ^ U) & ~S:
                continue
            states += 1
            avail = T = S & E
            pairs += 1
            while T:
                pairs += 1
                T = (T - 1) & avail
        U |= E
    return pairs, states


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(uneven_instances())
def test_budget_counts_the_pairs_the_dp_walks(inst):
    pairs, states = _walked_pairs(inst)
    for oracle in (exact_opt, exact_bundling_opt):
        if pairs == 1:  # one buyer without edges fits any limit
            oracle(inst, max_states=1)
            continue
        with pytest.raises(TooLarge) as err:
            oracle(inst, max_states=1)
        assert (err.value.state_count, err.value.limit) == (pairs, 1)
    # each pair with T nonempty reads the buyer's admissible table once
    _adm, tables, _out = _dp_call(exact_opt, inst, _CountingTable)
    assert sum(table.reads for table in tables.values()) == pairs - states


def test_single_buyer_search_counts_its_leaves(monkeypatch):
    # 18 items, every third one without an edge
    items = [f"i{k}" for k in range(18)]
    inst = Instance(items=items, buyers=["b"], thresholds={"b": Fraction(1)},
                    values={(i, "b"): k % 4 for k, i in enumerate(items) if k % 3})
    assert (1 << 18) > _DP_MASK_LIMIT  # so exact_opt runs the search

    def no_tables(*_args):
        raise AssertionError("a subset table was built")

    monkeypatch.setattr(oracles, "_buyer_tables", no_tables)
    with pytest.raises(TooLarge) as err:
        exact_opt(inst, max_states=1)
    assert err.value.state_count == 2 ** 12
    exact_opt(inst, max_states=2 ** 12)


def test_oracles_run_fourteen_items_at_the_default_limit():
    inst = gen_random(14, 4, 0, p_density=0.2)
    with pytest.raises(TooLarge) as err:
        exact_opt(inst, max_states=1)
    assert err.value.state_count == 2_572_424 <= DEFAULT_STATE_LIMIT
    # exact_opt and exact_bundling_opt are both 1757/100
    assert _oracle_digest(inst) == (
        "8ccfd0cf513ecd2fae25c3d55d95ce61c6d42d4f476ff03fe6d09754d8eeafce")
