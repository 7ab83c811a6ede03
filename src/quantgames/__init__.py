"""Exact solvers for min-cost reachability and total-payoff games."""

from .arena import (
    Arena,
    ArenaError,
    Objective,
    Player,
    ValueVector,
    make_arena,
    max_abs_weight,
    normalize_target,
    validate,
)
from .attractor import AttractorResult, classify_plus_infinity, compute_attractor
from .extvalue import MINUS_INF, PLUS_INF, ExtValue, ext_add, is_finite
from .gamefile import (
    FamilySpec,
    export_dot,
    generate,
    parse,
    serialize,
    write_results_json,
)
from .mcr import (
    IterationTrace,
    Sign,
    SolveResult,
    SolveStats,
    mp_sign,
    mp_to_mcr,
    solve_mcr,
)
from .oracle import (
    Lasso,
    enumerate_memoryless,
    mcr_oracle,
    mp_oracle,
    payoff_of_lasso,
    tp_of_prefix,
    tp_oracle,
)
from .strategies import (
    MemorylessStrategy,
    MooreStrategy,
    SwitchingStrategy,
    best_response,
    extract_max_memoryless,
    extract_max_tp,
    extract_min_mcr,
    make_switching,
    play_out,
    project_tp_min,
)
from .tp import build_game_Y, build_unfolding, classify_tp_infinities, k_bound, solve_tp
from .accel import (
    no_clamp_oracle,
    scc_decompose,
    simple_path_oracle,
    solve_mcr_accelerated,
    solve_tp_accelerated,
)

__version__ = "0.1.0"
