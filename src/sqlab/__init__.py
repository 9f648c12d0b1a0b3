"""sqlab: a numerical laboratory for sample-and-query access experiments.

Oracles over exponential-size vectors (`sq_oracle`), search-problem instance
generators (`instances`), constant-query classical solvers plus a sample-only
baseline (`learners`), state-discrimination bounds and N-copy closed forms
(`quantum_sim`), Haar moment operators on the symmetric subspace
(`haar_moments`), the circuit probe-state construction (`circuit_bridge`),
and seeded sweep tooling (`experiments`, `cli`).
"""

from .circuit_bridge import (
    amplitude_single_copy_success,
    build_psi_u,
    p_zero_first_qubit,
    parse_circuit,
    run_statevector,
    sq_from_state,
)
from .haar_moments import (
    GapReport,
    mc_moment,
    real_moment,
    real_monomial_moment,
    sym_basis,
    trace_norm_gap,
)
from .instances import (
    gen_minus_sign,
    gen_real_vector_search,
    gen_unnormalized_minus,
    haar_unit_vector,
)
from .learners import solve_minus_sign, solve_real_search, solve_sample_only
from .quantum_sim import (
    DensityOperator,
    Statevector,
    discriminate_pure_pair,
    helstrom_success,
    min_copies_minus_sign,
    ncopy_minus_sign_tracenorm,
    schatten1_diff,
    simulate_discrimination,
)
from .sq_oracle import (
    Capability,
    CapabilityError,
    ImplicitVector,
    SqHandle,
    build_dense,
    build_implicit,
)

__version__ = "0.1.0"
