import dataclasses
import hashlib
import io
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avalloc import IidModel, Instance, allocation_value
from avalloc.errors import (
    AmbiguousInstance,
    DomainError,
    GammaViolated,
    InvalidInstance,
    MissingBudgets,
)
from avalloc.generators import (
    gen_adversarial_T,
    gen_genava_clique,
    gen_integrality_gap,
    gen_iid_lower_bound,
    gen_max_coverage,
    gen_random,
    gen_random_iid_model,
    gen_supply_example,
    gen_tightness_example,
)
from avalloc.genava import greedy_p_only
from avalloc.lp import lp_to_text, solve_lp
from avalloc.lp_models import (
    build_bundle_lp,
    build_bundle_lp_budgeted,
    build_naive_lp,
    build_opton_lp,
    build_optoff_lp,
    compute_kappa,
    dump_model,
    load_model,
    model_from_dict,
    model_to_dict,
    solve_model_lp,
)
from avalloc.oracles import exact_bundling_opt, exact_opt
from avalloc.rounding import sample_stream, stream_instance
import reference_lp_models as reference
from util import unit_instance


# -- pinned LP texts -----------------------------------------------------------

# sha256 of lp_to_text for every builder on fixed seeded inputs: a change
# to any variable, row, coefficient or their order changes the digest
PINNED_LP_TEXT = [
    ("bundle-12", build_bundle_lp, lambda: gen_random(12, 8, 1, unambiguous=True),
     "45ee5c9bbd738499db121d9643ba86f3f283d608099ddf70da52c57f934d5199"),
    ("bundle-20", build_bundle_lp, lambda: gen_random(20, 8, 1, unambiguous=True),
     "dcd69ce3bfbf08c1d8658ae3d18a225a999391058c899c23c5993e55f84a9b57"),
    ("bundle-32", build_bundle_lp, lambda: gen_random(32, 8, 1, unambiguous=True),
     "953f55807acecd63424d9367a5f98dc6d134f0d3da61158480c39bab891e4ac9"),
    ("budgeted-20", build_bundle_lp_budgeted,
     lambda: gen_random(20, 6, 1, unambiguous=True, budget_resources=2),
     "ae2847f3d983de94491f587ce742068fe8685bb4578591d07be8fa662db665e6"),
    ("naive-20", build_naive_lp, lambda: gen_random(20, 8, 1),
     "7732f074ff3967bb12af7dd905b217d3c00df616e53ccd95cf4c6203fc3c6c95"),
    ("bundle-gap3", build_bundle_lp, lambda: gen_integrality_gap(3, Fraction(1, 10)),
     "719be6a5a859def9d38c5c35c2ea7fe55649ca74b4303e215fe597037ecd1cbc"),
    ("opton-iid20", build_opton_lp, lambda: gen_iid_lower_bound(20),
     "29cd31227d7dcb75b1450cd43a91e7c2dc8af061e3f0625abdd78d0fbc7b1c50"),
    ("optoff-iid20", lambda m: build_optoff_lp(m, 1), lambda: gen_iid_lower_bound(20),
     "b61d599a49554091604ea76ebec07558e9dbd233bc7c9ffa80e3d57a495900f2"),
]


@pytest.mark.parametrize("builder, make, digest",
                         [case[1:] for case in PINNED_LP_TEXT],
                         ids=[case[0] for case in PINNED_LP_TEXT])
def test_lp_text_is_pinned(builder, make, digest):
    lp = builder(make())
    text = lp_to_text(lp)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert "rows" not in lp.__dict__  # the text reads the stored ints


# -- the int-row builders against the Fraction-dict reference -----------------


def _with_costs(inst, seed):
    """inst in cost mode, with random costs that keep every edge's side: a
    P-edge costs at most v/rho, an N-edge more than v/rho."""
    rng = random.Random(seed)
    costs = {}
    for (i, j), v in inst.values.items():
        ratio = v / inst.thresholds[j]
        if inst.is_p_edge(i, j):
            costs[(i, j)] = ratio * Fraction(rng.randint(0, 6), 6)
        else:
            costs[(i, j)] = ratio + Fraction(rng.randint(1, 5), rng.randint(2, 9))
    return dataclasses.replace(inst, costs=costs)


@st.composite
def _builder_cases(draw):
    """(name, input) of the naive, bundle, budgeted, V[ON] and V[OFF] LPs,
    plain and in cost mode."""
    name = draw(st.sampled_from(["naive", "bundle", "budgeted", "cost-bundle", "cost-budgeted",
                                 "opton", "optoff"]))
    seed = draw(st.integers(0, 10 ** 6))
    if name in ("opton", "optoff"):
        return name, gen_random_iid_model(draw(st.integers(1, 10)), draw(st.integers(1, 5)),
                                          draw(st.integers(3, 40)), seed)
    inst = gen_random(draw(st.integers(8, 32)), draw(st.integers(1, 8)), seed,
                      unambiguous=name != "naive", p_density=draw(st.sampled_from([0.2, 0.4])),
                      budget_resources=draw(st.integers(1, 2)) if "budgeted" in name else 0)
    return name, _with_costs(inst, seed) if name.startswith("cost") else inst


def _build(module, name, made):
    if name == "optoff":
        return module.build_optoff_lp(made, min(made.probs[i] * made.horizon for i in made.types))
    kind = name.removeprefix("cost-")
    return {"naive": module.build_naive_lp, "bundle": module.build_bundle_lp,
            "budgeted": module.build_bundle_lp_budgeted,
            "opton": module.build_opton_lp}[kind](made)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(_builder_cases())
@example(("budgeted", gen_random(32, 6, 5, unambiguous=True, p_density=0.2, budget_resources=2)))
@example(("cost-bundle", _with_costs(gen_random(32, 8, 1, unambiguous=True, p_density=0.2), 1)))
def test_int_row_builders_match_the_fraction_reference(case):
    # the same LP as rationals, the same text, and the same solve: every
    # counter, the basis, the values and the duals
    import avalloc.lp_models as lp_models

    name, made = case
    lp, ref = _build(lp_models, name, made), _build(reference, name, made)
    sol = solve_lp(lp)
    assert "rows" not in lp.__dict__
    assert sol == solve_lp(ref)
    assert lp.objective == ref.objective
    assert [(list(c.items()), rel, b) for c, rel, b in lp.rows] == \
        [(list(c.items()), rel, b) for c, rel, b in ref.rows]
    assert (lp.upper_bounds, lp.row_owner, lp.var_keys) == \
        (ref.upper_bounds, ref.row_owner, ref.var_keys)
    assert lp_to_text(lp) == lp_to_text(ref)


# -- the cached bundle layout ------------------------------------------------


LAYOUT_INPUTS = [
    ("integrality-gap", lambda: gen_integrality_gap(3, Fraction(1, 10))),
    ("supply", lambda: gen_supply_example(3, Fraction(1, 100))),
    ("tightness", lambda: gen_tightness_example(Fraction(1, 5))),
    ("max-coverage", lambda: gen_max_coverage([["e1", "e2"], ["e3", "e4"]], 2, Fraction(1, 10))),
    ("genava-clique", lambda: gen_genava_clique(["a", "b", "c"], [("a", "b"), ("b", "c")])),
    ("iid-lower-bound", lambda: gen_iid_lower_bound(6)),
    ("adversarial", lambda: gen_adversarial_T(4, Fraction(1, 10))[0]),
    ("random-ambiguous", lambda: gen_random(9, 4, 5)),
    ("random", lambda: gen_random(9, 4, 5, unambiguous=True)),
    ("random-budgeted", lambda: gen_random(9, 3, 7, unambiguous=True, budget_resources=2)),
    ("isolated", lambda: Instance(items=["p", "z", "n"], buyers=["b", "c"],
                                  values={("p", "b"): 2, ("n", "b"): "0.5"},
                                  thresholds={"b": 1, "c": 1})),
    ("random-iid", lambda: gen_random_iid_model(6, 3, 10, 7)),
]


@pytest.mark.parametrize("make", [case[1] for case in LAYOUT_INPUTS],
                         ids=[case[0] for case in LAYOUT_INPUTS])
def test_bundle_layout_and_item_classes_match_the_edges(make):
    made = make()
    model = made if isinstance(made, IidModel) else None
    inst = model.inst if model else made
    for i in inst.items:
        classes = {inst.is_p_edge(i, j) for j in inst.edges_of_item(i)}
        want = ("isolated" if not classes else "P" if classes == {True}
                else "N" if classes == {False} else "ambiguous")
        assert inst.item_class(i) == want
    p_edges = [(p, j) for p, j in inst.edges() if inst.excess(p, j) >= 0]
    keys = []
    for i, j in inst.edges():
        if inst.excess(i, j) >= 0:
            keys.append((i, j, i))
        else:
            keys += [(i, j, p) for p, jj in p_edges if jj == j]
    layout = inst.bundle_layout
    assert layout is inst.bundle_layout
    assert layout.keys == keys
    assert layout.col == {k: c for c, k in enumerate(keys)}
    assert layout.bundles == [(j, p) for p, j in p_edges]
    assert layout.item.tolist() == [inst.items.index(i) for i, _j, _p in keys]
    assert layout.bundle.tolist() == [layout.bundles.index((j, p)) for _i, j, p in keys]
    assert layout.opener.tolist() == [keys.index((p, j, p)) for _i, j, p in keys]
    assert layout.excess.tolist() == [float(inst.excess(i, j)) for i, j, _p in keys]
    if model:
        lps = [build_opton_lp(model)]
    elif inst.is_unambiguous():
        lps = [build_bundle_lp(inst)] + ([build_bundle_lp_budgeted(inst)] if inst.budgets else [])
    else:
        lps = []
    assert lps or not inst.is_unambiguous()
    for lp in lps:
        assert lp.var_keys == keys


# -- naive LP ----------------------------------------------------------------


def test_naive_lp_gap_value():
    lp = build_naive_lp(gen_integrality_gap(3, Fraction(1, 10)))
    sol = solve_lp(lp)
    assert sol.exact_objective == 4  # n + 1


def test_naive_lp_gap_grows_linearly_up_to_six():
    eps = Fraction(1, 10)
    ratios = []
    for n in range(2, 7):
        inst = gen_integrality_gap(n, eps)
        lp_val = solve_lp(build_naive_lp(inst)).exact_objective
        opt, _ = exact_opt(inst)
        assert lp_val == n + 1
        assert opt == 2 + (n - 1) * eps
        ratios.append(lp_val / opt)
    deltas = [b - a for a, b in zip(ratios, ratios[1:])]
    assert all(d > 0 for d in deltas)
    # linear growth: successive increments stay bounded away from zero
    assert min(deltas) > Fraction(1, 4)


def test_naive_lp_single_p_edge():
    lp = build_naive_lp(unit_instance({("i", "b"): 2}))
    assert solve_lp(lp).exact_objective == 2


def test_naive_lp_single_n_edge_forced_to_zero():
    lp = build_naive_lp(unit_instance({("i", "b"): "0.5"}))
    assert solve_lp(lp).exact_objective == 0


def test_naive_lp_rejects_cost_mode():
    inst = unit_instance({("i", "b"): 2}, costs={("i", "b"): 1})
    with pytest.raises(ValueError):
        build_naive_lp(inst)


def test_naive_lp_counts():
    inst = gen_integrality_gap(3, Fraction(1, 10))
    lp = build_naive_lp(inst)
    # one variable per edge; one row per buyer with an edge plus one per item
    assert lp.n_vars == len(inst.values) == 6
    assert lp.n_rows == 3 + 4


# -- bundle LP ---------------------------------------------------------------


def test_bundle_lp_gap_value_vs_naive():
    inst = gen_integrality_gap(3, Fraction(1, 10))
    assert solve_model_lp(build_bundle_lp(inst)).objective == Fraction(11, 5)
    assert solve_lp(build_naive_lp(inst)).exact_objective == 4


def test_bundle_lp_no_p_edges():
    inst = unit_instance({("i", "b"): "0.5"})
    lp = build_bundle_lp(inst)
    assert lp.n_vars == 0
    assert solve_lp(lp).exact_objective == 0


def test_bundle_lp_rejects_ambiguous():
    inst = unit_instance(
        {("i", "b1"): "1.3", ("i", "b2"): "0.9"}, buyers=["b1", "b2"]
    )
    with pytest.raises(AmbiguousInstance):
        build_bundle_lp(inst)


def test_bundle_lp_counts():
    inst = gen_integrality_gap(3, Fraction(1, 10))
    lp = build_bundle_lp(inst)
    # openers: P-item p against each of the 3 buyers; members: each N-edge
    # (n_k, b_k) against the single bundle of its buyer
    assert lp.n_vars == 3 + 3
    # rows: 3 bundle value rows + 4 item rows + 3 membership rows
    assert lp.n_rows == 3 + 4 + 3


@pytest.mark.parametrize("make", [
    lambda: build_bundle_lp(gen_integrality_gap(3, Fraction(1, 10))),
    lambda: build_bundle_lp(gen_random(12, 4, 3, unambiguous=True)),
    lambda: build_bundle_lp_budgeted(gen_random(12, 4, 3, unambiguous=True, budget_resources=2)),
    lambda: build_opton_lp(gen_random_iid_model(6, 3, 20, 2)),
    lambda: build_optoff_lp(gen_iid_lower_bound(6), 1),
], ids=["gap3", "random", "budgeted", "opton", "optoff"])
def test_membership_rows_are_owned_by_their_members(make):
    lp = make()
    keys = lp.var_keys
    owners = [k for k in lp.row_owner if k is not None]
    # each member x_ijp owns exactly its row x_ijp - cap * x_pjp <= 0, openers none
    assert sorted(owners) == [k for k, (i, _j, p) in enumerate(keys) if i != p]
    for (coeffs, rel, rhs), k in zip(lp.rows, lp.row_owner):
        if k is None:
            continue
        i, j, p = keys[k]
        opener = keys.index((p, j, p))
        assert list(coeffs) == sorted([k, opener]) and coeffs[k] == 1 and coeffs[opener] < 0
        assert rel == "<=" and rhs == 0
    # the owned rows come last, after the value and item rows, and before
    # the budget rows of the budgeted LP
    owned = [r for r, k in enumerate(lp.row_owner) if k is not None]
    assert owned == list(range(owned[0], owned[0] + len(owned)))


def test_bundle_lp_dominates_bundling_optimum():
    small = [gen_random(6, 3, seed=700 + seed, unambiguous=True) for seed in range(30)]
    # at p_density 0.2 the LPs are fractional; a bundling optimum can be 0,
    # so the gap is checked as a difference, not a ratio
    fractional = [gen_random(n, 4, seed, unambiguous=True, p_density=0.2)
                  for n in (10, 12, 14) for seed in range(4)]
    gaps = []
    for inst in small + fractional:
        lp_val = solve_model_lp(build_bundle_lp(inst)).objective
        opt, _ = exact_bundling_opt(inst)
        assert lp_val >= opt
        gaps.append(lp_val - opt)
    assert any(gaps[len(small):])
    for inst in fractional:
        assert solve_model_lp(build_naive_lp(inst)).objective >= exact_opt(inst)[0]


# -- budgeted bundle LP --------------------------------------------------------


def test_budgeted_lp_requires_budgets():
    with pytest.raises(MissingBudgets):
        build_bundle_lp_budgeted(unit_instance({("i", "b"): 2}))


def test_budgeted_lp_with_loose_budgets_matches_plain():
    inst = gen_random(6, 3, seed=9, unambiguous=True, budget_resources=1)
    loose = unit_instance(
        dict(inst.values),
        buyers=list(inst.buyers),
        budgets={(res, j): Fraction(10 ** 6) for (res, j) in inst.budgets},
        rcosts=dict(inst.resource_costs),
    )
    plain = solve_model_lp(build_bundle_lp(inst)).objective
    budgeted = solve_model_lp(build_bundle_lp_budgeted(loose)).objective
    assert budgeted == plain


def test_budgeted_lp_per_bundle_row_binds():
    # one bundle, one N-item whose resource cost equals the budget: the
    # per-bundle row forces x_ijp <= x_pjp even though the value row allows 2
    inst = unit_instance(
        {("p", "b"): 2, ("n", "b"): "0.5"},
        budgets={("r", "b"): Fraction(1)},
        rcosts={("r", "n", "b"): Fraction(1)},
    )
    lp = build_bundle_lp_budgeted(inst)
    keys = lp.var_keys
    sol = solve_lp(lp)
    x = dict(zip(keys, sol.exact_values))
    assert x[("n", "b", "p")] <= x[("p", "b", "p")]
    assert sol.exact_objective == Fraction(5, 2)


def test_budgeted_lp_quarter_of_budgeted_optimum():
    for seed in range(12):
        inst = gen_random(6, 3, seed=50 + seed, unambiguous=True, budget_resources=1)
        lp_val = solve_model_lp(build_bundle_lp_budgeted(inst)).objective
        opt, _ = exact_opt(inst)
        assert 4 * lp_val >= opt


def test_budgeted_lp_counts():
    inst = unit_instance(
        {("p", "b"): 2, ("n", "b"): "0.5"},
        budgets={("r", "b"): Fraction(1)},
        rcosts={("r", "n", "b"): Fraction(1)},
    )
    lp = build_bundle_lp_budgeted(inst)
    assert lp.n_vars == 2
    # 1 value row + 2 item rows + 1 membership row + 1 per-buyer budget row
    # + 1 per-bundle budget row
    assert lp.n_rows == 1 + 2 + 1 + 1 + 1


# -- arrival-model LPs ---------------------------------------------------------


def _single_type_model(T=4):
    return IidModel(
        types=["p"],
        buyers=["b"],
        values={("p", "b"): 2},
        thresholds={"b": 1},
        probs={"p": 1},
        horizon=T,
    )


def test_opton_single_type_value():
    von = solve_model_lp(build_opton_lp(_single_type_model(4))).objective
    assert von == 8  # x_pbp = q*T = 4 at value 2


def test_opton_iid_lower_bound_values():
    for T in (10, 20, 50):
        model = gen_iid_lower_bound(T)
        von = solve_model_lp(build_opton_lp(model)).objective
        assert von == 3 - Fraction(1, T)
        assert von <= 4


def test_opton_counts():
    model = gen_iid_lower_bound(6)
    lp = build_opton_lp(model)
    # openers: P-type against every buyer; members: each N-type against the
    # single bundle of its own buyer
    assert lp.n_vars == 6 + 5
    assert lp.n_rows == 6 + 6 + 5  # value rows + type rows + membership rows


def test_opton_exceeds_half_of_committed_greedy():
    for seed in range(5):
        model = gen_random_iid_model(4, 3, 12, seed=20 + seed)
        von = float(solve_model_lp(build_opton_lp(model)).objective)
        # highest-P-edge greedy over sampled streams, a committed online
        # baseline
        total = Fraction(0)
        for t in range(400):
            stream = sample_stream(model, seed, t)
            inst = stream_instance(model, stream)
            alloc = greedy_p_only(inst)
            total += allocation_value(inst, alloc)
        greedy_mean = float(total) / 400
        sigma = 2.0 / 400 ** 0.5  # crude bound; values per trial are small
        assert von >= greedy_mean / 2 - 3 * sigma


def test_optoff_single_type_value():
    voff = solve_model_lp(build_optoff_lp(_single_type_model(4), 1)).objective
    assert voff == 16  # 2 * ceil(q*T) copies at value 2


def test_optoff_dominates_opton():
    for T in (10, 20):
        model = gen_iid_lower_bound(T)
        von = solve_model_lp(build_opton_lp(model)).objective
        voff = solve_model_lp(build_optoff_lp(model, 1)).objective
        assert voff >= von


def test_optoff_within_scaled_kappa_of_opton():
    # dividing an ex-post-feasible solution by the worst rhs ratio makes it
    # online-feasible, so V[OFF] <= s * V[ON] with the explicit factor below
    checked = 0
    for seed in range(40):
        model = gen_random_iid_model(4, 3, 24, seed=seed)
        if any(model.probs[i] * model.horizon < 1 for i in model.types):
            continue
        checked += 1
        T = model.horizon
        kappa = compute_kappa(1, T)
        von = float(solve_model_lp(build_opton_lp(model)).objective)
        voff = float(solve_model_lp(build_optoff_lp(model, 1)).objective)
        s = 0.0
        for i in model.types:
            qt = model.probs[i] * T
            s = max(s, 2 * math.ceil(qt) / float(qt), math.ceil(qt * Fraction(*float(kappa).as_integer_ratio())) / float(qt))
        assert voff <= s * von + 1e-6
        assert voff <= 2 * kappa * von + 1e-6
        if checked >= 5:
            break
    assert checked >= 5


def test_optoff_gamma_floor_violation():
    model = gen_random_iid_model(6, 3, 8, seed=1)  # some q_i*T below 2
    with pytest.raises(GammaViolated):
        build_optoff_lp(model, 2)


def test_compute_kappa():
    assert compute_kappa(1, 1000) == pytest.approx(21.4455, abs=1e-3)
    assert compute_kappa(2, 1000) == compute_kappa(1, 1000)  # min(1, gamma)
    assert compute_kappa(Fraction(1, 2), 1000) == pytest.approx(42.891, abs=1e-3)
    with pytest.raises(DomainError):
        compute_kappa(1, 2)
    with pytest.raises(DomainError):
        compute_kappa(0, 10)


# -- IidModel ------------------------------------------------------------------


def test_model_validation():
    with pytest.raises(ValueError):
        IidModel(
            types=["a", "b"],
            buyers=["j"],
            values={},
            thresholds={"j": 1},
            probs={"a": Fraction(1, 2), "b": Fraction(1, 3)},
            horizon=4,
        )
    with pytest.raises(ValueError):
        IidModel(
            types=["a"], buyers=["j"], values={}, thresholds={"j": 1},
            probs={"a": 1}, horizon=1,
        )


def test_iid_lower_bound_structure():
    model = gen_iid_lower_bound(10)
    assert sum(model.probs.values()) == 1
    assert model.values[("p", "j1")] == 2
    assert model.values[("n1", "j1")] == Fraction(9, 10)
    assert model.inst.is_p_edge("p", "j3")
    assert not model.inst.is_p_edge("n1", "j1")


def test_model_json_round_trip_integer_buyer_ids():
    model = IidModel(
        types=["t", 2], buyers=[1, "b"],
        values={("t", 1): 2, (2, 1): "0.5", (2, "b"): 3},
        thresholds={1: 1, "b": 2}, probs={"t": "0.25", 2: "0.75"}, horizon=4,
        costs={("t", 1): 1, (2, "b"): "0.5"},
    )
    buf = io.StringIO()
    dump_model(model, buf)
    buf.seek(0)
    back = load_model(buf)
    assert back == model


def test_model_json_round_trip():
    for seed in range(30):
        case = gen_random_iid_model(2 + seed % 5, 1 + seed % 4, 8 + seed, seed=seed)
        buf = io.StringIO()
        dump_model(case, buf)
        buf.seek(0)
        assert load_model(buf) == case
    model = gen_random_iid_model(3, 2, 8, seed=4)
    doc = model_to_dict(model)
    doc["extra"] = 1
    with pytest.raises(ValueError):
        model_from_dict(doc)
    for horizon in ([8], "8.5", 8.5, True):
        with pytest.raises(InvalidInstance):
            model_from_dict(dict(model_to_dict(model), horizon=horizon))
    assert model_from_dict(dict(model_to_dict(model), horizon="8")).horizon == 8
    # the type instance carries an instance's checks: unique ids,
    # nonnegative values and costs
    for bad in _bad_model_docs(model_to_dict(model)):
        with pytest.raises(InvalidInstance):
            model_from_dict(bad)


def _bad_model_docs(doc):
    """Copies of a model document with a duplicate type id, a negative
    value and a negative cost."""
    dup = json.loads(json.dumps(doc))
    dup["types"].append(dup["types"][0])
    negative_value = json.loads(json.dumps(doc))
    values = negative_value["types"][0]["values"]
    values[next(iter(values))] = -1
    negative_cost = json.loads(json.dumps(doc))
    rec = negative_cost["types"][0]
    rec["costs"] = {next(iter(rec["values"])): -1}
    return dup, negative_value, negative_cost
