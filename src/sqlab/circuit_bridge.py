"""Small statevector circuits: the ancilla-probability state construction and
the product-versus-amplitude encoding contrast.

For a circuit U on n qubits, the (n+1)-qubit state built by conjugating a
CNOT with U places the probability of measuring 0 on U's first qubit into
its leading amplitude. Querying that single amplitude through an SQ oracle
therefore amounts to strong simulation of the circuit, which is why cheap SQ
access to circuit-generated states cannot exist in general.

Bit order: the first listed qubit (index 0 in circuit files) is the most
significant bit of the basis index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantum_sim import Statevector
from .sq_oracle import SqHandle, build_dense, content_lines

__all__ = [
    "Circuit",
    "EncodedVector",
    "Gate",
    "MAX_QUBITS",
    "amplitude_single_copy_success",
    "build_psi_u",
    "p_zero_first_qubit",
    "parse_circuit",
    "product_encode_all_plus",
    "product_encode_sign_vector",
    "product_state_amplitudes",
    "random_circuit",
    "run_statevector",
    "solve_product_encoding",
    "sq_from_state",
]

MAX_QUBITS = 20

_SQRT_HALF = 1.0 / math.sqrt(2.0)
GATE_NAMES = ("H", "T", "S", "X", "Z", "CNOT")
# the diagonal gates are diag(1, phase); H and X are their own inverses
_PHASES = {"T": complex(np.exp(1j * math.pi / 4)), "S": 1j, "Z": -1 + 0j}
_DAGGER_PHASES = {name: phase.conjugate() for name, phase in _PHASES.items()}


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]


def _check_gate(gate: Gate, n: int) -> None:
    """Raise ValueError unless `gate` is a known gate of the right arity on distinct qubits < n."""
    if gate.name not in GATE_NAMES:
        raise ValueError(f"unknown gate {gate.name!r}")
    want = 2 if gate.name == "CNOT" else 1
    if len(gate.qubits) != want:
        raise ValueError(f"{gate.name} takes {want} qubit argument(s)")
    for q in gate.qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range [0, {n - 1}]")
    if gate.name == "CNOT" and gate.qubits[0] == gate.qubits[1]:
        raise ValueError("CNOT control equals target")


@dataclass(frozen=True)
class Circuit:
    """Gate list over n qubits, restricted to {H, T, S, X, Z, CNOT}."""

    n: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("qubit count must be nonnegative")
        for gate in self.gates:
            _check_gate(gate, self.n)


def parse_circuit(text: str) -> Circuit:
    """Parse the circuit text format.

    First content line is `qubits <n>`; gate lines follow, one per line:
    `H <q>` / `T <q>` / `S <q>` / `X <q>` / `Z <q>` / `CNOT <c> <t>`.
    Comments and blank lines follow `content_lines`. Empty input yields the
    trivial identity circuit on zero qubits.
    """
    n = None
    gates: list[Gate] = []
    for lineno, tokens in content_lines(text.splitlines()):
        line = " ".join(tokens)
        if n is None:
            if tokens[0] != "qubits" or len(tokens) != 2:
                raise ValueError(f"line {lineno}: expected `qubits <n>`, got {line!r}")
            try:
                n = int(tokens[1])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad qubit count {tokens[1]!r}") from exc
            if n < 0:
                raise ValueError(f"line {lineno}: negative qubit count")
            continue
        try:
            qubits = tuple(int(t) for t in tokens[1:])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad qubit index in {line!r}") from exc
        gate = Gate(tokens[0], qubits)
        try:
            _check_gate(gate, n)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        gates.append(gate)
    if n is None:
        return Circuit(n=0, gates=())
    return Circuit(n=n, gates=tuple(gates))


def _blocks(state: np.ndarray, q: int, n: int) -> np.ndarray:
    """View of `state` as (outer, bit q, inner) for qubit q of an n-qubit circuit.

    The buffer may hold several 2^n-amplitude blocks side by side; the extra
    leading qubits fold into the outer axis, so a gate acts on each block.
    """
    return state.reshape(-1, 2, 1 << (n - q - 1))


def _apply_h(state: np.ndarray, scratch: np.ndarray, q: int, n: int) -> None:
    """H as (h*a0 + h*a1, h*a0 - h*a1) with h = 1/sqrt(2), ending back in `state`."""
    np.multiply(state.view(np.float64), _SQRT_HALF, out=scratch.view(np.float64))
    a, out = _blocks(scratch, q, n), _blocks(state, q, n)
    np.add(a[:, 0], a[:, 1], out=out[:, 0])
    np.subtract(a[:, 0], a[:, 1], out=out[:, 1])


def _apply_x(src: np.ndarray, dst: np.ndarray, q: int, n: int) -> None:
    """Copy `src` into `dst` with bit q flipped."""
    np.copyto(_blocks(dst, q, n), _blocks(src, q, n)[:, ::-1])


def _apply_cnot(src: np.ndarray, dst: np.ndarray, control: int, target: int, n: int) -> None:
    """Copy `src` into `dst` with the target bit flipped where the control bit is set."""
    lo, hi = sorted((control, target))
    shape = (-1, 2, 1 << (hi - lo - 1), 2, 1 << (n - hi - 1))
    a, out = src.reshape(shape), dst.reshape(shape)
    if control < target:
        out[:, 0] = a[:, 0]
        out[:, 1] = a[:, 1, :, ::-1]
    else:
        out[:, :, :, 0] = a[:, :, :, 0]
        out[:, :, :, 1] = a[:, ::-1, :, 1]


def _run_gates(pair: list[np.ndarray], gates, n: int, dagger: bool = False) -> None:
    """Apply `gates` (or their inverse) to the state in pair[0]; pair[1] is scratch.

    Diagonal gates scale the |1> half of their qubit in place, and H goes
    through the scratch buffer and back. X and CNOT are permutations: they
    copy into the scratch buffer and the two entries of `pair` swap. No gate
    allocates an amplitude vector.
    """
    phases = _DAGGER_PHASES if dagger else _PHASES
    for gate in reversed(gates) if dagger else gates:
        state, scratch = pair
        if gate.name in phases:
            _blocks(state, gate.qubits[0], n)[:, 1] *= phases[gate.name]
        elif gate.name == "H":
            _apply_h(state, scratch, gate.qubits[0], n)
        else:
            if gate.name == "CNOT":
                _apply_cnot(state, scratch, gate.qubits[0], gate.qubits[1], n)
            else:
                _apply_x(state, scratch, gate.qubits[0], n)
            pair.reverse()


def run_statevector(circuit: Circuit) -> Statevector:
    """U applied to the all-zeros state, to double precision."""
    if circuit.n > MAX_QUBITS:
        raise ValueError(f"{circuit.n} qubits exceed the budget of {MAX_QUBITS}")
    pair = [np.zeros(1 << circuit.n, dtype=np.complex128), np.empty(1 << circuit.n, dtype=np.complex128)]
    pair[0][0] = 1.0
    _run_gates(pair, circuit.gates, circuit.n)
    return Statevector(amplitudes=pair[0], n=circuit.n)


def build_psi_u(circuit: Circuit) -> Statevector:
    """The (n+1)-qubit probe state (I (x) U^dag) CNOT (I (x) U) |0^(n+1)>.

    Qubit 0 is the fresh ancilla; U acts on qubits 1..n and the CNOT is
    controlled by qubit 1 (U's first qubit) targeting the ancilla. The
    leading amplitude of the result equals the probability of outcome 0 when
    measuring the first qubit of U|0^n>.

    U never touches the ancilla, so the half of the vector with the ancilla
    set stays exactly zero until the CNOT: the first U runs on the leading
    2^n amplitudes only. U^dag then runs on both halves as one batch.
    """
    n = circuit.n
    if n + 1 > MAX_QUBITS:
        raise ValueError(f"{n + 1} qubits exceed the budget of {MAX_QUBITS}")
    if n == 0:
        raise ValueError("the probe construction needs at least one circuit qubit")
    m = n + 1
    # both start zeroed: the first U may end in either, and the CNOT reads its zero upper half
    full = [np.zeros(1 << m, dtype=np.complex128), np.zeros(1 << m, dtype=np.complex128)]
    full[0][0] = 1.0
    half = [buf[: 1 << n] for buf in full]
    _run_gates(half, circuit.gates, n)
    if half[0].base is not full[0]:
        full.reverse()
    state, scratch = full
    _apply_cnot(state, scratch, control=1, target=0, n=m)
    full.reverse()
    _run_gates(full, circuit.gates, n, dagger=True)
    return Statevector(amplitudes=full[0], n=m)


def p_zero_first_qubit(circuit: Circuit) -> float:
    """Probability of outcome 0 when measuring qubit 0 of U|0^n>."""
    if circuit.n == 0:
        return 1.0
    state = run_statevector(circuit).amplitudes
    half = state.size // 2
    return float(np.sum(np.abs(state[:half]) ** 2))


def sq_from_state(state: Statevector) -> SqHandle:
    """Dense SQ handle over the state's amplitudes (QueryN is 1 by unitarity)."""
    return build_dense(state.amplitudes)


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


@dataclass(frozen=True)
class EncodedVector:
    """A sign vector stored as a product of |+>/|-> factors, first factor most significant."""

    factors: tuple[str, ...]

    def __post_init__(self):
        if not self.factors or any(f not in ("+", "-") for f in self.factors):
            raise ValueError("a product encoding needs factors over {+, -}")


def product_encode_sign_vector(n: int) -> EncodedVector:
    """The distinguished object: |-> on the first qubit, |+> on the rest."""
    if n < 1:
        raise ValueError("need at least one qubit")
    return EncodedVector(factors=("-",) + ("+",) * (n - 1))


def product_encode_all_plus(n: int) -> EncodedVector:
    """The background object: |+> on every qubit."""
    if n < 1:
        raise ValueError("need at least one qubit")
    return EncodedVector(factors=("+",) * n)


def product_state_amplitudes(factors: tuple[str, ...]) -> np.ndarray:
    """Amplitudes of the product state, first factor most significant."""
    amps = np.ones(1, dtype=np.complex128)
    plus = np.array([_SQRT_HALF, _SQRT_HALF], dtype=np.complex128)
    minus = np.array([_SQRT_HALF, -_SQRT_HALF], dtype=np.complex128)
    for f in factors:
        amps = np.kron(amps, plus if f == "+" else minus)
    return amps


def solve_product_encoding(encoded: list[EncodedVector]) -> int:
    """Measure the first qubit of each object once in the {|+>, |->} basis.

    Product factors are exactly |+> or |->, so the Born probability of the
    minus outcome is 0 or 1 and one copy per object decides deterministically.
    Returns the 1-based index of the object that yields the minus outcome.
    """
    hits = []
    for k, enc in enumerate(encoded, start=1):
        if enc.factors[0] == "-":
            hits.append(k)
    if len(hits) != 1:
        raise ValueError(f"expected exactly one minus-encoded object, found {len(hits)}")
    return hits[0]


def amplitude_single_copy_success(n: int) -> float:
    """Optimal one-copy success probability for the amplitude-encoded pair.

    The two amplitude-encoded states have overlap 1 - 2/d with d = 2^n, so
    the optimal measurement succeeds with 1/2 + sqrt(1 - (1-2/d)^2)/2, which
    decreases toward 1/2 as n grows. Contrast with the product encoding,
    where one copy succeeds with certainty.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    overlap = 1.0 - math.ldexp(2.0, -n)
    return 0.5 + 0.5 * math.sqrt(max(0.0, 1.0 - overlap**2))
