"""Finite propagation unitaries on l2(Z): index theory, block factorization,
and the exact algebra of shift-coinvariant integer sequences."""

from .errors import NumericalError, ValidationError
from .gnvw import (DecompositionResult, EndPeriodicSplit, IndexReport,
                   conjugating_unitary, decompose, factor_end_periodic, index,
                   retract_periodic, synth_random)
from .operators import (EndPeriodicOperator, PeriodicBandOperator, apply_state,
                        block_diagonal, delta_embed, embed_finite, identity,
                        make_shift, max_entry_difference, multiply, propagation,
                        unitarity_residual)
from .sequences import (DivisionWitness, EventuallyPeriodicSeq,
                        MembershipResult, alpha_map, alternating,
                        beta_interleave, coinv_equal, constant, delta,
                        divide_class, in_image_one_minus_s)

__all__ = [
    "NumericalError", "ValidationError",
    "DecompositionResult", "EndPeriodicSplit", "IndexReport",
    "conjugating_unitary", "decompose", "factor_end_periodic", "index",
    "retract_periodic", "synth_random",
    "EndPeriodicOperator", "PeriodicBandOperator", "apply_state",
    "block_diagonal", "delta_embed", "embed_finite", "identity", "make_shift",
    "max_entry_difference", "multiply", "propagation", "unitarity_residual",
    "DivisionWitness", "EventuallyPeriodicSeq", "MembershipResult",
    "alpha_map", "alternating", "beta_interleave", "coinv_equal", "constant",
    "delta", "divide_class", "in_image_one_minus_s",
]
