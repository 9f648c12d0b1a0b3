"""Circuit-bridge tests: parsing, simulation, the probe identity, encodings."""

import decimal
import functools
import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from sqlab import circuit_bridge
from sqlab.circuit_bridge import (
    GATE_NAMES,
    Circuit,
    Gate,
    amplitude_single_copy_success,
    build_psi_u,
    measure_product_encoding,
    parse_circuit,
)
from sqlab.cli import main
from sqlab.experiments import chi_square_gof
from sqlab.sq_oracle import ImplicitVector, build_dense

from _fixtures import forward_run, kernel, materialize, random_circuit

SQRT_HALF = 1 / math.sqrt(2)

# explicit gate matrices for the dense cross-checks, independent of the kernels
_DENSE_1Q = {
    "H": np.array([[1, 1], [1, -1]]) / math.sqrt(2),
    "T": np.diag([1, np.exp(1j * math.pi / 4)]),
    "S": np.diag([1, 1j]),
    "X": np.array([[0, 1], [1, 0]]),
    "Z": np.diag([1, -1]),
}


def _dense_gate(gate, n):
    """The 2^n x 2^n unitary of one gate, qubit 0 the leftmost Kronecker factor."""
    eye = np.eye(2)
    if gate.name == "CNOT":
        control, target = gate.qubits
        off, on = [eye] * n, [eye] * n
        off[control] = np.diag([1, 0])
        on[control] = np.diag([0, 1])
        on[target] = _DENSE_1Q["X"]
        return functools.reduce(np.kron, off) + functools.reduce(np.kron, on)
    factors = [eye] * n
    factors[gate.qubits[0]] = _DENSE_1Q[gate.name]
    return functools.reduce(np.kron, factors)


def _reference_p_zero(circuit):
    """p_zero from a separate forward run: the squared norm of U|0^n>'s first half."""
    state = forward_run(circuit)
    return np.sum(np.abs(state[: state.size // 2]) ** 2)


def _dense_circuit(circuit):
    unitary = np.eye(1 << circuit.n, dtype=complex)
    for gate in circuit.gates:
        unitary = _dense_gate(gate, circuit.n) @ unitary
    return unitary


def _all_gates(n):
    singles = [Gate(name, (q,)) for name in GATE_NAMES if name != "CNOT" for q in range(n)]
    return singles + [Gate("CNOT", pair) for pair in itertools.permutations(range(n), 2)]


def _circuit_text(circuit):
    return f"qubits {circuit.n}\n" + "".join(f"{g.name} {' '.join(map(str, g.qubits))}\n" for g in circuit.gates)


def _random_state(n, rng):
    state = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return state / np.linalg.norm(state)


def test_parse_basic_circuit():
    circuit = parse_circuit("qubits 2\nH 0\nCNOT 0 1\n")
    assert circuit.n == 2
    assert circuit.gates == (Gate("H", (0,)), Gate("CNOT", (0, 1)))


def test_parse_comments_and_blanks():
    circuit = parse_circuit("# header\n\nqubits 1\n# mid comment\nX 0\n")
    assert circuit.gates == (Gate("X", (0,)),)


def test_parse_empty_is_identity():
    circuit = parse_circuit("")
    assert circuit.n == 0 and circuit.gates == ()
    assert forward_run(circuit).tolist() == [1.0 + 0j]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2: CNOT control equals target"):
        parse_circuit("qubits 2\nCNOT 0 0\n")
    with pytest.raises(ValueError, match="line 2: unknown gate"):
        parse_circuit("qubits 1\nRX 0\n")
    with pytest.raises(ValueError, match="line 3: qubit 5 out of range"):
        parse_circuit("qubits 2\nH 0\nZ 5\n")
    with pytest.raises(ValueError, match="line 1: expected"):
        parse_circuit("H 0\n")
    with pytest.raises(ValueError, match="takes 1"):
        parse_circuit("qubits 2\nH 0 1\n")


def test_circuit_constructor_checks_gate_arity():
    with pytest.raises(ValueError, match="CNOT takes 2"):
        Circuit(2, (Gate("CNOT", (0,)),))
    with pytest.raises(ValueError, match="H takes 1"):
        Circuit(2, (Gate("H", (0, 1)),))


def test_forward_run_single_gates():
    h = forward_run(parse_circuit("qubits 1\nH 0\n"))
    np.testing.assert_allclose(h, [SQRT_HALF, SQRT_HALF], atol=1e-15)
    t = forward_run(parse_circuit("qubits 1\nT 0\n"))
    np.testing.assert_allclose(t, [1.0, 0.0], atol=1e-15)


def test_forward_run_bell_pair():
    state = forward_run(parse_circuit("qubits 2\nH 0\nCNOT 0 1\n"))
    np.testing.assert_allclose(state, [SQRT_HALF, 0.0, 0.0, SQRT_HALF], atol=1e-15)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)


def test_norm_preserved_over_long_random_circuits():
    rng = np.random.default_rng(0)
    for _ in range(5):
        circuit = random_circuit(5, 100, rng)
        state = forward_run(circuit)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-10


def test_qubit_zero_is_most_significant():
    state = forward_run(parse_circuit("qubits 2\nX 0\n"))
    assert state[2] == 1.0  # |10> at index 2
    state = forward_run(parse_circuit("qubits 2\nX 1\n"))
    assert state[1] == 1.0  # |01> at index 1


@pytest.mark.parametrize("n", range(1, 6))
def test_every_gate_kernel_matches_its_dense_unitary(n):
    rng = np.random.default_rng(n)
    gates = _all_gates(n)
    assert len(gates) == 5 * n + n * (n - 1)
    for gate in gates:
        state = _random_state(n, rng)
        unitary = _dense_gate(gate, n)
        np.testing.assert_allclose(kernel(state, (gate,), n), unitary @ state, rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            kernel(state, (gate,), n, dagger=True), unitary.conj().T @ state, rtol=0, atol=1e-14
        )


@pytest.mark.parametrize("n", range(1, 6))
def test_gate_sequences_match_the_dense_circuit_unitary(n):
    rng = np.random.default_rng(10 + n)
    for _ in range(4):
        circuit = random_circuit(n, 30, rng)
        unitary = _dense_circuit(circuit)
        state = _random_state(n, rng)
        np.testing.assert_allclose(kernel(state, circuit.gates, n), unitary @ state, rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            kernel(state, circuit.gates, n, dagger=True), unitary.conj().T @ state, rtol=0, atol=1e-14
        )
        np.testing.assert_allclose(forward_run(circuit), unitary[:, 0], rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", range(1, 5))
def test_build_psi_u_matches_the_dense_probe(n):
    rng = np.random.default_rng(20 + n)
    cnot = _dense_gate(Gate("CNOT", (1, 0)), n + 1)
    zero = np.zeros(2 << n)
    zero[0] = 1.0
    for _ in range(4):
        circuit = random_circuit(n, 25, rng)
        lifted = np.kron(np.eye(2), _dense_circuit(circuit))
        expected = lifted.conj().T @ cnot @ lifted @ zero
        np.testing.assert_allclose(build_psi_u(circuit)[0], expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", range(1, 13))
def test_p_zero_is_the_bits_of_a_separate_forward_run(n):
    # U|0^n> ends in the upper half of the probe buffer after an odd number of
    # X/CNOT gates, so both parities are covered: a trailing X flips the parity,
    # and on qubit 0 it also moves p_zero away from the state before it
    rng = np.random.default_rng(60 + n)
    parities = set()
    for _ in range(3):
        base = random_circuit(n, 6 * n, rng)
        for circuit in (base, Circuit(n=n, gates=base.gates + (Gate("X", (0,)),))):
            parities.add(sum(g.name in ("X", "CNOT") for g in circuit.gates) % 2)
            assert build_psi_u(circuit)[1].hex() == float(_reference_p_zero(circuit)).hex()
    assert parities == {0, 1}


# per circuit of `random_circuit(16, 200, default_rng(3))`: sha256 of the
# probe's ancilla-0 half, then float.hex of sharp-p's p_zero, query_re,
# query_im and abs_diff, recorded with a probe build that ran U^dag on both
# halves of the state, with numpy 2.4.6 on an x86_64 Xeon with AVX-512 (another
# numpy build or CPU may round differently: read a mismatch there as a platform
# change first)
_PINNED_PROBES = [
    (
        "9b2a482413ced67a554dee9e389a6df28f2674aa5c410478d7e6cacde983a988",
        "0x1.fffffffffffd4p-2", "0x1.fffffffffffd3p-2", "-0x1.0635ddf697c4ap-56", "0x1.0842761be59cbp-54",
    ),
    (
        "ed8ec5ca07d60e44718fdc3514c5749f028c1128a79386ad1b9f792f33122b79",
        "0x1.fffffffffffd4p-2", "0x1.fffffffffffd5p-2", "-0x1.f03fc45e8b816p-56", "0x1.1c7a3d60aab53p-54",
    ),
    (
        "fbc6ccbc27f7ed1524ce2cf50270cfd220419bb33dc8301af86807f5d6e5b04e",
        "0x1.fffffffffffb8p-2", "0x1.fffffffffffb7p-2", "-0x1.1fffffffffffbp-57", "0x1.0284d3e2a2305p-54",
    ),
]


def test_probe_identity_at_benchmark_size(tmp_path, capsys):
    rng = np.random.default_rng(3)
    for sha, *floats in _PINNED_PROBES:
        circuit = random_circuit(16, 200, rng)
        probe, p_zero = build_psi_u(circuit)
        assert probe.size == 1 << 17
        assert p_zero == _reference_p_zero(circuit)
        assert abs(build_dense(probe).query(1) - p_zero) <= 1e-12
        assert hashlib.sha256(probe[: 1 << 16].tobytes()).hexdigest() == sha
        path = tmp_path / "circuit.txt"
        path.write_text(_circuit_text(circuit))
        assert main(["sharp-p", "--circuit", str(path)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert [record[k].hex() for k in ("p_zero", "query_re", "query_im", "abs_diff")] == floats


@pytest.mark.parametrize("n", range(1, 9))
def test_ancilla_one_half_is_e0_minus_the_ancilla_zero_half(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(5):
        amplitudes = build_psi_u(random_circuit(n, 40, rng))[0]
        expected = -amplitudes[: 1 << n]
        expected[0] += 1.0
        np.testing.assert_array_equal(amplitudes[1 << n :], expected)


def test_one_qubit_probe_bytes_are_pinned():
    # a one-amplitude half takes numpy's contiguous complex-multiply loop, whose
    # rounding leaves -2^-55 in the imaginary part where the strided loop leaves 0.
    # Which loop numpy picks (SIMD, FMA) depends on its build and the CPU: these
    # bytes were recorded with numpy 2.4.6 on an x86_64 Xeon with AVX-512, so a
    # failure on another host reads as a platform change, not a regression.
    amplitude = build_psi_u(parse_circuit("qubits 1\nH 0\nT 0\nH 0\nS 0\nX 0\n"))[0][0]
    assert (amplitude.real.hex(), amplitude.imag.hex()) == ("0x1.2bec333018864p-3", "-0x1.0000000000000p-55")


def test_build_psi_u_holds_at_most_one_and_a_half_amplitude_vectors():
    circuit = random_circuit(16, 200, np.random.default_rng(4))
    vector_bytes = np.dtype(np.complex128).itemsize << 17
    tracemalloc.start()
    try:
        build_psi_u(circuit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * vector_bytes


def test_build_psi_u_refuses_a_probe_that_lost_its_unit_norm(monkeypatch):
    # a U^dag kernel that is not unitary leaves a probe of squared norm about 2.7
    monkeypatch.setitem(circuit_bridge._DAGGER_PHASES, "T", 2.0)
    with pytest.raises(ValueError, match="state norm"):
        build_psi_u(parse_circuit("qubits 1\nH 0\nT 0\nH 0\n"))


def test_build_psi_u_identity_circuit():
    probe, p_zero = build_psi_u(Circuit(n=3, gates=()))
    assert p_zero == 1.0
    expected = np.zeros(16)
    expected[0] = 1.0
    np.testing.assert_array_equal(probe, expected.astype(complex))


def test_build_psi_u_x_and_h():
    x_probe = build_psi_u(parse_circuit("qubits 1\nX 0\n"))[0]
    assert abs(x_probe[0]) < 1e-15
    h_probe = build_psi_u(parse_circuit("qubits 1\nH 0\n"))[0]
    assert h_probe[0] == pytest.approx(0.5, abs=1e-12)


def test_p_zero_examples():
    assert build_psi_u(Circuit(n=2, gates=()))[1] == 1.0
    assert build_psi_u(parse_circuit("qubits 1\nX 0\n"))[1] == pytest.approx(0.0, abs=1e-15)
    assert build_psi_u(parse_circuit("qubits 1\nH 0\n"))[1] == pytest.approx(0.5, abs=1e-12)


def test_probe_identity_on_random_circuits():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        depth = int(rng.integers(0, 21))
        circuit = random_circuit(n, depth, rng)
        handle = build_dense(build_psi_u(circuit)[0])
        deviation = abs(handle.query(1) - _reference_p_zero(circuit))
        assert deviation <= 1e-12


def test_state_handle_norm_and_distribution():
    state = forward_run(parse_circuit("qubits 2\nH 0\nH 1\nCNOT 0 1\nS 1\n"))
    handle = build_dense(state)
    assert handle.query_norm() == pytest.approx(1.0, abs=1e-10)
    rng = np.random.default_rng(2)
    draws = handle.sample_many(40_000, rng)
    _, _, p_value = chi_square_gof(draws, np.abs(state) ** 2)
    assert p_value >= 1e-3


def test_budget_checks():
    with pytest.raises(ValueError, match="budget"):
        build_psi_u(Circuit(n=20, gates=()))
    with pytest.raises(ValueError, match="at least one"):
        build_psi_u(Circuit(n=0, gates=()))


# first factors of the two product encodings: |+> and |->
_PLUS = (math.sqrt(0.5), math.sqrt(0.5))
_MINUS = (math.sqrt(0.5), -math.sqrt(0.5))


def test_product_encoding_solver_deterministic():
    assert measure_product_encoding([_PLUS, _MINUS, _PLUS]) == 2
    with pytest.raises(ValueError, match="exactly one"):
        measure_product_encoding([_PLUS, _PLUS])
    with pytest.raises(ValueError, match="exactly one"):
        measure_product_encoding([_MINUS, _PLUS, _MINUS])


def test_product_encoding_single_qubit_orthogonal():
    assert abs(np.vdot(_PLUS, _MINUS)) < 1e-15
    # the outcome depends on the ray only: a global phase decides the same way
    phased = [tuple(1j * a for a in _PLUS), tuple(-a for a in _MINUS), np.array(_PLUS)]
    assert measure_product_encoding(phased) == 2


def test_product_state_matches_sign_pattern_oracle():
    # |-> (x) |+>^(n-1) has amplitudes (-1)^(leading bit)/sqrt(d)
    n = 4
    amps = functools.reduce(np.kron, [np.array(_MINUS)] + [np.array(_PLUS)] * (n - 1))
    spec = ImplicitVector(
        kind="sign-pattern-product", n=n, scale=1 / math.sqrt(1 << n), sign_mask=1 << (n - 1)
    )
    np.testing.assert_allclose(amps, materialize(spec), atol=1e-15)


def test_amplitude_single_copy_success_curve():
    assert amplitude_single_copy_success(1) == 1.0
    assert amplitude_single_copy_success(10) <= 0.54
    # strictly decreasing until 1/2 + 2^(-n/2) is within one ulp of 1/2
    values = [amplitude_single_copy_success(n) for n in range(2, 106)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > 0.5
    assert amplitude_single_copy_success(100000) == 0.5


def test_amplitude_single_copy_success_is_correctly_rounded():
    # the success is 1/2 + sqrt(1/d - 1/d^2) = 1/2 + sqrt(d - 1)/d exactly, for d = 2^n
    off = []
    with decimal.localcontext() as ctx:
        ctx.prec = 400
        for n in [*range(1, 301), 100000]:
            d = decimal.Decimal(2) ** n
            exact = decimal.Decimal(1) / 2 + (d - 1).sqrt() / d
            got = amplitude_single_copy_success(n)
            if abs(decimal.Decimal(got) - exact) > decimal.Decimal(math.ulp(got)) / 2:
                off.append(n)
    assert off == []


def test_amplitude_success_agrees_with_helstrom_at_small_n():
    from sqlab.quantum_sim import DensityOperator, discriminate_mixed_pair

    for n in (1, 2, 3, 6):
        d = 1 << n
        plus = np.full(d, 1 / math.sqrt(d))
        minus = plus.copy()
        minus[0] *= -1
        pair = DensityOperator.from_pure(minus), DensityOperator.from_pure(plus)
        direct = discriminate_mixed_pair(*pair, 1, np.random.default_rng(0))[1]
        assert amplitude_single_copy_success(n) == pytest.approx(direct, abs=1e-12)
