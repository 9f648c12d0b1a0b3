"""Small statevector circuits: the ancilla-probability state construction and
the product-versus-amplitude encoding contrast.

A product-encoded object is held as the two amplitudes of its first factor,
the only qubit that its measurement reads.

For a circuit U on n qubits, the (n+1)-qubit state built by conjugating a
CNOT with U places the probability of measuring 0 on U's first qubit into
its leading amplitude. Querying that single amplitude through an SQ oracle
therefore amounts to strong simulation of the circuit, which is why cheap SQ
access to circuit-generated states cannot exist in general. By unitarity the
state's ancilla-1 half is |0> minus its ancilla-0 half, the only one simulated.
That probability itself is read off the probe's forward run of U, before the
projection; the dense-unitary tests are the independent check of the gate
kernels. These update the state in place and allocate nothing: T, S and Z scale
a half, CNOT swaps two quarters through a quarter of a scratch buffer, H goes
through that buffer and back, and X is a pending relabelling settled by one
copy per run. `build_psi_u` is the only simulation entry point, and its probe
is a plain complex128 amplitude array, as every pure state in sqlab is.

Bit order: the first listed qubit (index 0 in circuit files) is the most
significant bit of the basis index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .quantum_sim import _minus_sign_schatten1, _unit_norm_sq, success_from_schatten1
from .inputs import content_lines, parse_int, quoted, refusals_from

__all__ = [
    "Circuit",
    "Gate",
    "MAX_QUBITS",
    "amplitude_single_copy_success",
    "build_psi_u",
    "measure_product_encoding",
    "parse_circuit",
]

MAX_QUBITS = 20

_SQRT_HALF = 1.0 / math.sqrt(2.0)
GATE_NAMES = ("H", "T", "S", "X", "Z", "CNOT")
# the diagonal gates are diag(1, phase); H and X are their own inverses
_PHASES = {"T": complex(np.exp(1j * math.pi / 4)), "S": 1j, "Z": -1 + 0j}
_DAGGER_PHASES = {name: phase.conjugate() for name, phase in _PHASES.items()}
_SHORT_ROW = 4  # rows this short are transposed, so ufuncs loop along the long axis (fastest measured: 2 to 8)
_BUFSIZE = 256  # ufuncs copy rows shorter than their buffer (8192 by default) through it (fastest measured: 128 to 512)


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]


def _check_gate(gate: Gate, n: int) -> None:
    """Raise ValueError unless `gate` is a known gate of the right arity on distinct qubits < n."""
    if gate.name not in GATE_NAMES:
        raise ValueError(f"unknown gate {quoted(gate.name)}")
    want = 2 if gate.name == "CNOT" else 1
    if len(gate.qubits) != want:
        raise ValueError(f"{gate.name} takes {want} qubit argument(s)")
    for q in gate.qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {quoted(q)} out of range [0, {quoted(n - 1)}]")
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
    trivial identity circuit on zero qubits. A refusal names its line.
    """
    n = None
    gates: list[Gate] = []
    with refusals_from() as at:
        for at.line, tokens in content_lines(text.splitlines()):
            if n is None:
                if tokens[0] != "qubits" or len(tokens) != 2:
                    raise ValueError(f"expected `qubits <n>`, got {quoted(' '.join(tokens))}")
                if (n := parse_int(tokens[1])) < 0:
                    raise ValueError("negative qubit count")
                continue
            gate = Gate(tokens[0], tuple(parse_int(t) for t in tokens[1:]))
            _check_gate(gate, n)
            gates.append(gate)
    if n is None:
        return Circuit(n=0, gates=())
    return Circuit(n=n, gates=tuple(gates))


def _halves(state: np.ndarray, q: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Qubit q's stored 0- and 1-halves as (outer, inner) views, transposed if rows are short: use order="C"."""
    blocks = state.reshape(-1, 2, 1 << (n - q - 1))
    if blocks.shape[2] <= _SHORT_ROW:
        return blocks[:, 0].T, blocks[:, 1].T
    return blocks[:, 0], blocks[:, 1]


def _apply_h(state: np.ndarray, scratch: np.ndarray, q: int, n: int, flipped: bool) -> None:
    """H as (h*a0 + h*a1, h*a0 - h*a1) with h = 1/sqrt(2), through `scratch` and back into `state`."""
    np.multiply(state.view(np.float64), _SQRT_HALF, out=scratch.view(np.float64))
    a0, a1 = _halves(scratch, q, n)[:: -1 if flipped else 1]  # a flipped qubit's a0 is its stored 1-half
    out0, out1 = _halves(state, q, n)
    np.add(a0, a1, out=out0, order="C")
    np.subtract(a0, a1, out=out1, order="C")


def _apply_cnot(state: np.ndarray, scratch: np.ndarray, control: int, target: int, n: int) -> None:
    """Swap the target's two quarters where the control bit is set, through a quarter of `scratch`."""
    lo, hi = sorted((control, target))
    a = state.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << (n - hi - 1))
    zero, one = (a[:, 1, :, 0], a[:, 1, :, 1]) if control < target else (a[:, 0, :, 1], a[:, 1, :, 1])
    swap = scratch[: 1 << (n - 2)].reshape(zero.shape)
    np.copyto(swap, zero)
    np.copyto(zero, one)
    np.copyto(one, swap)


def _settle(state: np.ndarray, scratch: np.ndarray, flip: list[bool], n: int) -> None:
    """Apply the pending X flips: one copy into `scratch` with the flipped bits reversed, one copy back."""
    if any(flip):
        axes = tuple(slice(None, None, -1) if f else slice(None) for f in flip)
        np.copyto(scratch.reshape((2,) * n), state.reshape((2,) * n)[axes])
        np.copyto(state, scratch)


def _run_gates(state: np.ndarray, scratch: np.ndarray, gates, n: int, dagger: bool = False) -> None:
    """Apply `gates` (or their inverse) to `state` in place; `scratch` is a buffer of its size.

    X is a pending relabelling: `flip[q]` is true while qubit q's stored halves
    hold its actual ones swapped, and `_settle` applies the pending flips when the
    run ends. A diagonal gate scales the stored half holding the actual |1> half,
    H reads a flipped qubit's halves swapped and clears its flip, and a flipped
    control makes CNOT a CNOT then X on the target: nothing is negated.
    """
    phases = _DAGGER_PHASES if dagger else _PHASES
    flip = [False] * n
    bufsize = np.setbufsize(_BUFSIZE)
    try:
        for gate in reversed(gates) if dagger else gates:
            q = gate.qubits[0]
            if gate.name in phases:
                half = _halves(state, q, n)[0 if flip[q] else 1]
                np.multiply(half, phases[gate.name], out=half, order="C")
            elif gate.name == "H":
                _apply_h(state, scratch, q, n, flip[q])
                flip[q] = False
            elif gate.name == "X":
                flip[q] = not flip[q]
            else:
                _apply_cnot(state, scratch, q, gate.qubits[1], n)
                flip[gate.qubits[1]] ^= flip[q]
    finally:
        np.setbufsize(bufsize)
    _settle(state, scratch, flip, n)


def build_psi_u(circuit: Circuit) -> tuple[np.ndarray, float]:
    """The (n+1)-qubit probe state (I (x) U^dag) CNOT (I (x) U) |0^(n+1)>, and p_zero.

    Qubit 0 is the fresh ancilla; U acts on qubits 1..n and the CNOT is
    controlled by qubit 1 (U's first qubit) targeting the ancilla. The
    leading amplitude of the result equals p_zero, the probability of outcome
    0 when measuring the first qubit of U|0^n>, which is returned alongside:
    it is read off U|0^n> after the forward run, before the projection. The
    probe is returned as its 2^(n+1) complex128 amplitudes.

    With P0 + P1 = I projecting U's first qubit on 0 and 1, the ancilla-1 half
    U^dag P1 U|0^n> is |0^n> - U^dag P0 U|0^n> by unitarity: U and U^dag run
    once each, in place on the ancilla-0 half with the other half as scratch.
    """
    n = circuit.n
    if n + 1 > MAX_QUBITS:
        raise ValueError(f"{quoted(n + 1)} qubits exceed the budget of {MAX_QUBITS}")
    if n == 0:
        raise ValueError("the probe construction needs at least one circuit qubit")
    full = np.zeros(2 << n, dtype=np.complex128)
    full[0] = 1.0
    lower, upper = full[: 1 << n], full[1 << n :]
    _run_gates(lower, upper, circuit.gates, n)
    p_zero = float(np.sum(np.abs(lower[: 1 << (n - 1)]) ** 2))
    lower[1 << (n - 1) :] = 0.0  # P0: the CNOT moves these amplitudes to the ancilla-1 half
    _run_gates(lower, upper, circuit.gates, n, dagger=True)
    np.negative(lower, out=upper)
    upper[0] += 1.0
    _unit_norm_sq(full)  # U and U^dag keep the norm, so a kernel fault shows here
    return full, p_zero


def measure_product_encoding(first_qubits: Sequence[tuple[complex, complex]]) -> int:
    """Measure the first qubit of each product-encoded object once in the {|+>, |->} basis.

    That measurement reads only the first factor of a product state, so an
    object is that factor's two amplitudes (f0, f1), and `first_qubits[k-1]`
    holds them for object k. The minus outcome has Born probability
    |<-|f>|^2 = |f0 - f1|^2 / 2, which is 0 for |+> and 1 for |-> up to
    rounding, so one copy per object decides. Returns the 1-based index of
    the one object whose minus outcome is the likely one.
    """
    hits = [k for k, (f0, f1) in enumerate(first_qubits, start=1) if abs(f0 - f1) ** 2 / 2.0 > 0.5]
    if len(hits) != 1:
        raise ValueError(f"expected exactly one minus-encoded object, found {len(hits)}")
    return hits[0]


def amplitude_single_copy_success(n: int) -> float:
    """Optimal one-copy success for the amplitude-encoded pair, correctly rounded for every n.

    The two states are the sign-flip pair of dimension d = 2^n, with overlap
    1 - 2/d: the success 1/2 + sqrt(1 - (1-2/d)^2)/2 falls toward 1/2 as n
    grows, while the product encoding succeeds with one copy for certain.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    return success_from_schatten1(_minus_sign_schatten1(math.ldexp(2.0, -n), 2))
