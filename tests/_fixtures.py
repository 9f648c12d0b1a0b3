"""Generators and file writers that only the tests use, and the tests' reference forward run, vectors and embedding.

Imported as `from _fixtures import ...`: pytest puts this directory on the
import path. The pinned probe circuits are drawn by `random_circuit`, so its
stream of draws must not change.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

from sqlab.circuit_bridge import GATE_NAMES, Circuit, Gate, _run_gates
from sqlab.haar_moments import BudgetExceededError, SymBasis
from sqlab.quantum_sim import DensityOperator
from sqlab.sq_oracle import KIND_MINUS_AT_INDEX, KIND_SIGN_PRODUCT, DenseVector, ImplicitVector, SqHandle

# Largest d^N that `symmetric_embedding` materializes.
_MAX_EMBED_DIM = 1 << 16


def random_circuit(n: int, depth: int, rng: np.random.Generator) -> Circuit:
    """Uniformly random gate sequence, for identity-check sweeps."""
    if n < 1:
        raise ValueError("need at least one qubit")
    gates = []
    for _ in range(depth):
        name = GATE_NAMES[int(rng.integers(len(GATE_NAMES)))]
        if name == "CNOT":
            if n < 2:
                name = "X"
            else:
                control = int(rng.integers(n))
                target = int(rng.integers(n - 1))
                if target >= control:
                    target += 1
                gates.append(Gate("CNOT", (control, target)))
                continue
        gates.append(Gate(name, (int(rng.integers(n)),)))
    return Circuit(n=n, gates=tuple(gates))


def random_density_operator(dim: int, rng: np.random.Generator) -> DensityOperator:
    """Random full-rank density operator from a square Ginibre factor."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityOperator.from_matrix(m / np.trace(m).real)


def sparse_npy(path: str | Path, shape: tuple[int, ...], dtype) -> None:
    """A `.npy` file of zeros of this shape, written as one header and one last byte.

    `open_memmap` seeks past the data to write its last byte, so the file
    system holds the zeros sparsely: a file past any size cap costs no disk.
    """
    np.lib.format.open_memmap(path, mode="w+", dtype=dtype, shape=shape)  # the map is dropped at once


def kernel(state: np.ndarray, gates, n: int, dagger: bool = False) -> np.ndarray:
    """The gate kernels' run of `gates` (or their inverse) on a copy of `state`."""
    out = state.copy()
    _run_gates(out, np.full_like(state, np.nan), gates, n, dagger=dagger)  # scratch garbage must not leak in
    return out


def forward_run(circuit: Circuit) -> np.ndarray:
    """U|0^n>: the kernels' run of the circuit from e_0, apart from the probe's own."""
    zero = np.zeros(1 << circuit.n, dtype=np.complex128)
    zero[0] = 1.0
    return kernel(zero, circuit.gates, circuit.n)


def materialize(backing: DenseVector | ImplicitVector | SqHandle) -> np.ndarray:
    """Dense copy of a vector: the vectorised reference that `ImplicitVector.component` is checked against."""
    if isinstance(backing, SqHandle):
        backing = backing.backing
    if isinstance(backing, DenseVector):
        return backing.entries.copy()
    d = backing.dim
    out = np.full(d, backing.scale, dtype=np.complex128)
    if backing.kind == KIND_MINUS_AT_INDEX:
        out[backing.minus_index - 1] = -backing.scale
    elif backing.kind == KIND_SIGN_PRODUCT:
        masked = np.arange(d, dtype=np.uint64) & np.uint64(backing.sign_mask)
        parity = np.bitwise_count(masked) & 1
        out[parity == 1] *= -1
    return out


def symmetric_embedding(basis: SymBasis) -> np.ndarray:
    """Isometry V from the symmetric basis into the full d^N tensor space.

    Column b spreads amplitude sqrt(prod_j m_j!/N!) over every distinct
    arrangement of the element's index tuple; V^T V = identity.
    """
    full_dim = basis.d**basis.N
    if full_dim > _MAX_EMBED_DIM:
        raise BudgetExceededError(f"full tensor dimension {full_dim} exceeds {_MAX_EMBED_DIM}")
    v = np.zeros((full_dim, basis.size), dtype=np.float64)
    for b in range(basis.size):
        amp = 1.0 / basis.norm_factors[b]
        for arrangement in set(itertools.permutations(basis.indices[b].tolist())):
            row = 0
            for idx in arrangement:
                row = row * basis.d + idx
            v[row, b] = amp
    return v
