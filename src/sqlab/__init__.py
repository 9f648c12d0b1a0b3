"""sqlab: a numerical laboratory for sample-and-query access experiments.

Oracles over exponential-size vectors (`sq_oracle`), search-problem instance
generators (`instances`), constant-query classical solvers plus a sample-only
baseline (`learners`), state-discrimination bounds and N-copy closed forms
(`quantum_sim`), Haar moment operators on the symmetric subspace
(`haar_moments`), the circuit probe-state construction (`circuit_bridge`),
and seeded sweep tooling (`experiments`, `cli`).
"""

__version__ = "0.1.0"
