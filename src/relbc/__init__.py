"""Relativistic bit-commitment simulator: field arithmetic, the CHSH-style
game over GF(Q), the multi-round protocol, and recursive cheating attacks."""

from .adversary import (
    CausalModel,
    CheatStrategy,
    attack_base,
    attack_general,
    build_attack,
    desymmetrize,
    extend_symmetrized,
    tower_gamma,
    zeros_strategy,
)
from .analysis import (
    AttackRow,
    McEstimate,
    clopper_pearson,
    empirical_upper_constant,
    evaluate,
    exact_cheat_probability,
    mc_cheat_probability,
    predicted_attack_probability,
    theory_lower_bound,
    theory_upper_bound,
    trend_sweep,
    write_sweep_csv,
)
from .errors import CapabilityError, FieldMismatchError
from .field import FieldSpec
from .games import (
    BestShift,
    DetStrategy,
    GameDist,
    GameValueResult,
    best_response_search,
    best_shift,
    brute_force_value,
    shift_strategy,
    win_probability,
)
from .protocol import (
    ProtocolParams,
    Transcript,
    Variant,
    hiding_distributions,
    honest_responses,
    run_honest,
    tilde_transform,
    verify_values,
)

__all__ = [name for name in dir() if not name.startswith("_")]
