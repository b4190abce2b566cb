"""Solver toolkit for welfare maximization under average-value constraints.

Build instances, solve the bundle relaxations with a self-contained exact
simplex, round them offline and online, and verify everything against
brute-force oracles.
"""

from .bundling import (
    Bundle,
    BundledAllocation,
    duplicate_supply,
    extract_bundling,
    make_unambiguous_deterministic,
    make_unambiguous_random,
    split_ambiguous,
)
from .core import (
    Allocation,
    Instance,
    allocation_value,
    dump_instance,
    is_feasible,
    load_instance,
    to_fraction,
)
from .gap import GapInstance, bundles_to_gap, export_gap, gap_solution_to_bundles
from .genava import genava_bicriteria_greedy, genava_single_buyer, greedy_p_only
from .lp import LinearProgram, LpSolution, lp_to_text, solve_lp
from .lp_models import (
    BundleLpSolution,
    IidModel,
    build_bundle_lp,
    build_bundle_lp_budgeted,
    build_naive_lp,
    build_opton_lp,
    build_optoff_lp,
    compute_kappa,
    dump_model,
    load_model,
    solve_model_lp,
)
from .oracles import exact_bundling_opt, exact_gap_opt, exact_opt
from .rounding import (
    RoundingParams,
    gamma_offline,
    gamma_online,
    round_offline,
    round_online,
    sample_stream,
    stream_instance,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
