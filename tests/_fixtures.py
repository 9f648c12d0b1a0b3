"""Generators and file writers that only the tests use, and the tests' reference forward run and vectors.

Imported as `from _fixtures import ...`: pytest puts this directory on the
import path. The pinned probe circuits are drawn by `random_circuit`, so its
stream of draws must not change.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from sqlab.circuit_bridge import GATE_NAMES, Circuit, Gate, _run_gates
from sqlab.quantum_sim import DensityOperator
from sqlab.sq_oracle import KIND_MINUS_AT_INDEX, KIND_SIGN_PRODUCT, DenseVector, ImplicitVector, SqHandle


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
    pair = [state.copy(), np.full_like(state, np.nan)]  # scratch garbage must not leak in
    _run_gates(pair, gates, n, dagger=dagger)
    return pair[0]


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
