"""Construct the named instance families plus seeded random instances.

Every generator is deterministic in its parameters (and seed, where one
applies), emits exact rational data, and records its parameters in the
instance metadata.  Random values are drawn on a 1/100 grid so that
feasibility arithmetic stays exact and JSON round-trips losslessly.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .core import Instance, to_fraction
from .errors import BadEps
from .lp_models import IidModel


def _star_instance(n: int, eps: Fraction, buyer_prefix: str) -> Instance:
    """One P-item worth 1 + n*eps to all n unit-threshold buyers, plus n
    N-items, the i-th worth 1 - eps to buyer i alone."""
    buyers = [f"{buyer_prefix}{k}" for k in range(1, n + 1)]
    items = ["p"] + [f"n{k}" for k in range(1, n + 1)]
    values = {("p", j): 1 + n * eps for j in buyers}
    for k in range(1, n + 1):
        values[(f"n{k}", buyers[k - 1])] = 1 - eps
    return Instance(
        items=items,
        buyers=buyers,
        values=values,
        thresholds={j: Fraction(1) for j in buyers},
    )


def gen_integrality_gap(n: int, eps) -> Instance:
    """Family separating the naive relaxation (value n+1) from the true
    optimum (value 2 + (n-1)*eps)."""
    eps = to_fraction(eps)
    if n < 1:
        raise BadEps("n must be at least 1")
    if not 0 < eps < Fraction(1, n):
        raise BadEps(f"eps must lie in (0, 1/{n})")
    inst = _star_instance(n, eps, "b")
    inst.metadata.update({"family": "integrality-gap", "n": n, "eps": str(eps)})
    return inst


def gen_supply_example(k: int, eps) -> Instance:
    """Same star structure, used to exhibit superlinear welfare growth when
    supply is duplicated."""
    eps = to_fraction(eps)
    if k < 1:
        raise BadEps("k must be at least 1")
    if not 0 < eps < Fraction(1, k):
        raise BadEps(f"eps must lie in (0, 1/{k})")
    inst = _star_instance(k, eps, "j")
    inst.metadata.update({"family": "supply", "k": k, "eps": str(eps)})
    return inst


def gen_tightness_example(eps) -> Instance:
    """Single buyer showing the factor-2 loss of bundling is tight: floor(1/eps)
    N-items of value 1-eps and floor(1/(eps(1-eps))) P-items of value
    1+eps(1-eps); no P-excess can cover any single N-deficit."""
    eps = to_fraction(eps)
    if not 0 < eps < 1:
        raise BadEps("eps must lie in (0, 1)")
    n_count_exact = 1 / eps
    p_count_exact = 1 / (eps * (1 - eps))
    n_count = math.floor(n_count_exact)
    p_count = math.floor(p_count_exact)
    warnings = []
    if n_count != n_count_exact or p_count != p_count_exact:
        warnings.append(
            f"non-integral counts rounded down: N {n_count_exact} -> {n_count}, "
            f"P {p_count_exact} -> {p_count}"
        )
    items = [f"n{k}" for k in range(1, n_count + 1)] + [
        f"p{k}" for k in range(1, p_count + 1)
    ]
    values = {}
    for k in range(1, n_count + 1):
        values[(f"n{k}", "b")] = 1 - eps
    for k in range(1, p_count + 1):
        values[(f"p{k}", "b")] = 1 + eps * (1 - eps)
    inst = Instance(items=items, buyers=["b"], values=values, thresholds={"b": Fraction(1)})
    inst.metadata.update({"family": "tightness", "eps": str(eps), "warnings": warnings})
    return inst


def gen_max_coverage(sets, k: int, eps) -> Instance:
    """Coverage reduction: one buyer per set, k identical choice items worth
    1 + (eps/2)*(n/k) to everyone, one element item per universe element
    worth 1 - eps/2 to the buyers whose set contains it.

    sets: sequence of element collections; all must have size n/k where n is
    the universe size (balanced system).  The hardness regime for k is not
    enforced.
    """
    eps = to_fraction(eps)
    if not 0 < eps < 1:
        raise BadEps("eps must lie in (0, 1)")
    sets = [sorted(s) for s in sets]
    universe = sorted({e for s in sets for e in s})
    n = len(universe)
    if k < 1 or n % k != 0:
        raise BadEps("k must divide the universe size")
    if any(len(set(s)) != n // k for s in sets):
        raise BadEps(f"all sets must have size {n // k}")
    buyers = [f"s{idx}" for idx in range(1, len(sets) + 1)]
    choice_value = 1 + (eps / 2) * Fraction(n, k)
    element_value = 1 - eps / 2
    items = [f"c{t}" for t in range(1, k + 1)] + [f"e:{e}" for e in universe]
    values = {}
    for t in range(1, k + 1):
        for j in buyers:
            values[(f"c{t}", j)] = choice_value
    for idx, s in enumerate(sets, start=1):
        for e in s:
            values[(f"e:{e}", f"s{idx}")] = element_value
    inst = Instance(
        items=items,
        buyers=buyers,
        values=values,
        thresholds={j: Fraction(1) for j in buyers},
    )
    inst.metadata.update({"family": "max-coverage", "k": k, "eps": str(eps), "n": n})
    return inst


def _graph(vertices, edges):
    """(vertices, edges, degree) of a simple graph with at least one edge,
    as lists and a degree per vertex; raises BadEps on a loop, an edge to
    an unknown vertex or a repeated edge."""
    vertices = list(vertices)
    edges = [tuple(e) for e in edges]
    if not edges:
        raise BadEps("graph must have at least one edge")
    degree = {v: 0 for v in vertices}
    seen = set()
    for u, v in edges:
        if u == v or u not in degree or v not in degree:
            raise BadEps(f"bad edge ({u!r}, {v!r})")
        key = frozenset((u, v))
        if key in seen:
            raise BadEps(f"duplicate edge ({u!r}, {v!r})")
        seen.add(key)
        degree[u] += 1
        degree[v] += 1
    return vertices, edges, degree


def gen_genava_clique(vertices, edges, eps_exponent=1) -> Instance:
    """Independent-set reduction in cost mode: vertex item i_v costs
    M + deg(v) and is worth M to its own buyer only; edge items cost 0 and
    are worth 1 to both endpoint buyers.  M = 2|E| / n^eps_exponent; the
    exponent is a parameter because the asymptotic choice is meaningless at
    desk scale."""
    vertices, edges, deg = _graph(vertices, edges)
    n = len(vertices)
    eps_exponent = to_fraction(eps_exponent)
    if eps_exponent == 1:
        m_value = Fraction(2 * len(edges), n)
    else:
        m_value = to_fraction(
            float(2 * len(edges)) / (n ** float(eps_exponent))
        )
    buyers = [f"j:{v}" for v in vertices]
    items, values, costs = [], {}, {}
    for v in vertices:
        iid = f"v:{v}"
        items.append(iid)
        values[(iid, f"j:{v}")] = m_value
        costs[(iid, f"j:{v}")] = m_value + deg[v]
    for u, v in edges:
        iid = f"e:{u}-{v}"
        items.append(iid)
        for w in (u, v):
            values[(iid, f"j:{w}")] = Fraction(1)
            costs[(iid, f"j:{w}")] = Fraction(0)
    inst = Instance(
        items=items,
        buyers=buyers,
        values=values,
        thresholds={j: Fraction(1) for j in buyers},
        costs=costs,
    )
    inst.metadata.update(
        {"family": "genava-clique", "M": str(m_value), "eps_exponent": str(eps_exponent)}
    )
    return inst


def gen_genava_clique_iid(vertices, edges, eps) -> IidModel:
    """Structural arrival-model variant of the independent-set reduction:
    vertex items are worth M = 2|E| and cost M + R*deg(v), with
    R = max(1, ceil(eps^2 ln(|E|+1))); edge items are free; vertex types
    arrive with probability 1/(2|V|), edge types 1/(2|E|), over
    ceil(2*(1+eps/2)*R*|E|) arrivals.  Only the structure is generated; no
    statistical claims are validated."""
    vertices, edges, deg = _graph(vertices, edges)
    eps = to_fraction(eps)
    if not 0 < eps < 1:
        raise BadEps("eps must lie in (0, 1)")
    r_count = max(1, math.ceil(float(eps) ** 2 * math.log(len(edges) + 1)))
    m_value = Fraction(2 * len(edges))
    buyers = [f"j:{v}" for v in vertices]
    types, values, costs, probs = [], {}, {}, {}
    for v in vertices:
        tid = f"v:{v}"
        types.append(tid)
        values[(tid, f"j:{v}")] = m_value
        costs[(tid, f"j:{v}")] = m_value + r_count * deg[v]
        probs[tid] = Fraction(1, 2 * len(vertices))
    for u, v in edges:
        tid = f"e:{u}-{v}"
        types.append(tid)
        for w in (u, v):
            values[(tid, f"j:{w}")] = Fraction(1)
            costs[(tid, f"j:{w}")] = Fraction(0)
        probs[tid] = Fraction(1, 2 * len(edges))
    horizon = math.ceil(2 * (1 + float(eps) / 2) * r_count * len(edges))
    model = IidModel(
        types=types,
        buyers=buyers,
        values=values,
        thresholds={j: Fraction(1) for j in buyers},
        probs=probs,
        horizon=max(2, horizon),
        costs=costs,
    )
    model.metadata.update({"family": "genava-clique-iid", "R": r_count, "M": str(m_value)})
    return model


def gen_iid_lower_bound(T: int) -> IidModel:
    """Uniform model on which no online algorithm beats a constant while the
    ex-post optimum grows like ln T / ln ln T: T buyers, T-1 single-buyer
    N-types of value 1 - 1/T, one P-type worth 2 to everyone."""
    if T < 2:
        raise BadEps("T must be at least 2")
    eps = Fraction(1, T)
    buyers = [f"j{k}" for k in range(1, T + 1)]
    types = [f"n{k}" for k in range(1, T)] + ["p"]
    values = {}
    for k in range(1, T):
        values[(f"n{k}", f"j{k}")] = 1 - eps
    for j in buyers:
        values[("p", j)] = 1 + eps * T
    probs = {i: Fraction(1, T) for i in types}
    model = IidModel(
        types=types,
        buyers=buyers,
        values=values,
        thresholds={j: Fraction(1) for j in buyers},
        probs=probs,
        horizon=T,
    )
    model.metadata.update({"family": "iid-lower-bound", "T": T})
    return model


def gen_adversarial_T(T: int, eps):
    """Sequence on which committed online play is hopeless: T-1 items worth
    1 - eps to every one of T buyers, then a single item worth 1 + eps*T to
    buyer b1 alone.  Returns (instance, arrival order); the item declaration
    order is the arrival order."""
    eps = to_fraction(eps)
    if T < 2:
        raise BadEps("T must be at least 2")
    if not 0 < eps < 1:
        raise BadEps("eps must lie in (0, 1)")
    buyers = [f"b{k}" for k in range(1, T + 1)]
    items = [f"a{k}" for k in range(1, T)] + ["star"]
    values = {}
    for k in range(1, T):
        for j in buyers:
            values[(f"a{k}", j)] = 1 - eps
    values[("star", "b1")] = 1 + eps * T
    inst = Instance(
        items=items,
        buyers=buyers,
        values=values,
        thresholds={j: Fraction(1) for j in buyers},
    )
    inst.metadata.update({"family": "adversarial", "T": T, "eps": str(eps)})
    return inst, list(items)


def _grid(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """Uniform draw from the 1/100 grid inside [lo, hi]."""
    lo_c = math.ceil(lo * 100)
    hi_c = math.floor(hi * 100)
    return Fraction(rng.randint(lo_c, hi_c), 100)


def _check_count(name: str, count: int, least: int):
    if count < least:
        raise BadEps(f"{name} must be at least {least}, got {count}")


def _check_density(name: str, density: float):
    if not 0 <= density <= 1:  # also false for NaN
        raise BadEps(f"{name} must lie in [0, 1], got {density}")


def gen_random(
    n_items: int,
    n_buyers: int,
    seed: int,
    edge_density: float = 0.75,
    p_density: float = 0.4,
    unambiguous: bool = False,
    budget_resources: int = 0,
    bid_frac="0.05",
) -> Instance:
    """Seeded random instance on unit thresholds.

    P-edges draw values from [1, 2], N-edges from [0.55, 0.99]; every
    item gets at least one edge.  With unambiguous=True the P/N side is
    chosen per item instead of per edge.  budget_resources > 0 attaches that
    many unit budgets per buyer with per-edge costs on [0, bid_frac] (small
    bids).  Raises BadEps unless n_items >= 0, n_buyers >= 1, both
    densities lie in [0, 1], budget_resources >= 0 and bid_frac >= 0.
    """
    _check_count("items", n_items, 0)
    _check_count("buyers", n_buyers, 1)
    _check_density("edge_density", edge_density)
    _check_density("p_density", p_density)
    _check_count("budget_resources", budget_resources, 0)
    bid_frac = to_fraction(bid_frac)
    _check_count("bid_frac", bid_frac, 0)
    rng = random.Random(seed)
    items = [f"i{k}" for k in range(1, n_items + 1)]
    buyers = [f"b{k}" for k in range(1, n_buyers + 1)]
    values = {}
    for i in items:
        item_is_p = rng.random() < p_density
        touched = []
        for j in buyers:
            if rng.random() >= edge_density:
                continue
            edge_is_p = item_is_p if unambiguous else rng.random() < p_density
            touched.append((j, edge_is_p))
        if not touched:
            j = buyers[rng.randrange(n_buyers)]
            touched.append((j, item_is_p if unambiguous else rng.random() < p_density))
        for j, edge_is_p in touched:
            if edge_is_p:
                values[(i, j)] = _grid(rng, Fraction(1), Fraction(2))
            else:
                values[(i, j)] = _grid(rng, Fraction(11, 20), Fraction(99, 100))
    budgets = None
    rcosts = None
    if budget_resources > 0:
        budgets = {}
        rcosts = {}
        for r in range(1, budget_resources + 1):
            res = f"r{r}"
            for j in buyers:
                budgets[(res, j)] = Fraction(1)
            for (i, j) in values:
                rcosts[(res, i, j)] = _grid(rng, Fraction(0), bid_frac)
    inst = Instance(
        items=items,
        buyers=buyers,
        values=values,
        thresholds={j: Fraction(1) for j in buyers},
        budgets=budgets,
        resource_costs=rcosts,
    )
    inst.metadata.update(
        {"family": "random", "seed": seed, "unambiguous": unambiguous,
         "budget_resources": budget_resources}
    )
    return inst


def gen_random_iid_model(
    n_types: int,
    n_buyers: int,
    horizon: int,
    seed: int,
) -> IidModel:
    """Seeded random arrival model: edges with probability 0.8 (at least one
    per type), P-edges with probability 0.4, integer type weights on [1, 4]
    normalized to exact probabilities, unit thresholds, values on the 1/100
    grid.  Raises BadEps unless n_types >= 1 and n_buyers >= 1."""
    _check_count("types", n_types, 1)
    _check_count("buyers", n_buyers, 1)
    rng = random.Random(seed)
    types = [f"y{k}" for k in range(1, n_types + 1)]
    buyers = [f"b{k}" for k in range(1, n_buyers + 1)]
    values = {}
    for i in types:
        touched = []
        for j in buyers:
            if rng.random() < 0.8:
                touched.append(j)
        if not touched:
            touched.append(buyers[rng.randrange(n_buyers)])
        for j in touched:
            if rng.random() < 0.4:
                values[(i, j)] = _grid(rng, Fraction(1), Fraction(2))
            else:
                values[(i, j)] = _grid(rng, Fraction(11, 20), Fraction(99, 100))
    weights = [rng.randint(1, 4) for _ in types]
    total = sum(weights)
    probs = {i: Fraction(w, total) for i, w in zip(types, weights)}
    model = IidModel(
        types=types,
        buyers=buyers,
        values=values,
        thresholds={j: Fraction(1) for j in buyers},
        probs=probs,
        horizon=horizon,
    )
    model.metadata.update({"family": "random-iid", "seed": seed})
    return model
