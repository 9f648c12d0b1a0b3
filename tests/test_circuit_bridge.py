"""Circuit-bridge tests: parsing, simulation, the probe identity, encodings."""

import math

import numpy as np
import pytest

from sqlab.circuit_bridge import (
    Circuit,
    Gate,
    amplitude_single_copy_success,
    build_psi_u,
    p_zero_first_qubit,
    parse_circuit,
    product_encode_all_plus,
    product_encode_sign_vector,
    product_state_amplitudes,
    random_circuit,
    run_statevector,
    solve_product_encoding,
    sq_from_state,
)
from sqlab.experiments import chi_square_gof
from sqlab.sq_oracle import ImplicitVector, materialize

SQRT_HALF = 1 / math.sqrt(2)


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
    assert run_statevector(circuit).amplitudes.tolist() == [1.0 + 0j]


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


def test_run_statevector_single_gates():
    h = run_statevector(parse_circuit("qubits 1\nH 0\n"))
    np.testing.assert_allclose(h.amplitudes, [SQRT_HALF, SQRT_HALF], atol=1e-15)
    t = run_statevector(parse_circuit("qubits 1\nT 0\n"))
    np.testing.assert_allclose(t.amplitudes, [1.0, 0.0], atol=1e-15)


def test_run_statevector_bell_pair():
    state = run_statevector(parse_circuit("qubits 2\nH 0\nCNOT 0 1\n"))
    np.testing.assert_allclose(
        state.amplitudes, [SQRT_HALF, 0.0, 0.0, SQRT_HALF], atol=1e-15
    )
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-10)


def test_norm_preserved_over_long_random_circuits():
    rng = np.random.default_rng(0)
    for _ in range(5):
        circuit = random_circuit(5, 100, rng)
        state = run_statevector(circuit)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10


def test_qubit_zero_is_most_significant():
    state = run_statevector(parse_circuit("qubits 2\nX 0\n"))
    assert state.amplitudes[2] == 1.0  # |10> at index 2
    state = run_statevector(parse_circuit("qubits 2\nX 1\n"))
    assert state.amplitudes[1] == 1.0  # |01> at index 1


def test_build_psi_u_identity_circuit():
    probe = build_psi_u(Circuit(n=3, gates=()))
    expected = np.zeros(16)
    expected[0] = 1.0
    np.testing.assert_array_equal(probe.amplitudes, expected.astype(complex))


def test_build_psi_u_x_and_h():
    x_probe = build_psi_u(parse_circuit("qubits 1\nX 0\n"))
    assert abs(x_probe.amplitudes[0]) < 1e-15
    h_probe = build_psi_u(parse_circuit("qubits 1\nH 0\n"))
    assert h_probe.amplitudes[0] == pytest.approx(0.5, abs=1e-12)


def test_p_zero_examples():
    assert p_zero_first_qubit(Circuit(n=2, gates=())) == 1.0
    assert p_zero_first_qubit(parse_circuit("qubits 1\nX 0\n")) == pytest.approx(0.0, abs=1e-15)
    assert p_zero_first_qubit(parse_circuit("qubits 1\nH 0\n")) == pytest.approx(0.5, abs=1e-12)


def test_probe_identity_on_random_circuits():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        depth = int(rng.integers(0, 21))
        circuit = random_circuit(n, depth, rng)
        handle = sq_from_state(build_psi_u(circuit))
        deviation = abs(handle.query(1) - p_zero_first_qubit(circuit))
        assert deviation <= 1e-12


def test_sq_from_state_norm_and_distribution():
    state = run_statevector(parse_circuit("qubits 2\nH 0\nH 1\nCNOT 0 1\nS 1\n"))
    handle = sq_from_state(state)
    assert handle.query_norm() == pytest.approx(1.0, abs=1e-10)
    rng = np.random.default_rng(2)
    draws = handle.sample_many(40_000, rng)
    _, _, p_value = chi_square_gof(draws, np.abs(state.amplitudes) ** 2)
    assert p_value >= 1e-3


def test_budget_checks():
    with pytest.raises(ValueError, match="budget"):
        run_statevector(Circuit(n=21, gates=()))
    with pytest.raises(ValueError, match="budget"):
        build_psi_u(Circuit(n=20, gates=()))
    with pytest.raises(ValueError, match="at least one"):
        build_psi_u(Circuit(n=0, gates=()))


def test_product_encoding_solver_deterministic():
    encoded = [
        product_encode_all_plus(5),
        product_encode_sign_vector(5),
        product_encode_all_plus(5),
    ]
    assert solve_product_encoding(encoded) == 2
    with pytest.raises(ValueError, match="exactly one"):
        solve_product_encoding([product_encode_all_plus(3), product_encode_all_plus(3)])


def test_product_encoding_single_qubit_orthogonal():
    minus = product_encode_sign_vector(1)
    plus = product_encode_all_plus(1)
    amp_m = product_state_amplitudes(minus.factors)
    amp_p = product_state_amplitudes(plus.factors)
    assert abs(np.vdot(amp_m, amp_p)) < 1e-15


def test_product_state_matches_sign_pattern_oracle():
    # |-> (x) |+>^(n-1) has amplitudes (-1)^(leading bit)/sqrt(d)
    n = 4
    amps = product_state_amplitudes(product_encode_sign_vector(n).factors)
    spec = ImplicitVector(
        kind="sign-pattern-product", n=n, scale=1 / math.sqrt(1 << n), sign_mask=1 << (n - 1)
    )
    np.testing.assert_allclose(amps, materialize(spec), atol=1e-15)


def test_amplitude_single_copy_success_curve():
    assert amplitude_single_copy_success(1) == pytest.approx(1.0)
    assert amplitude_single_copy_success(10) <= 0.54
    values = [amplitude_single_copy_success(n) for n in range(2, 21)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > 0.5


def test_amplitude_success_agrees_with_helstrom_at_small_n():
    from sqlab.quantum_sim import DensityOperator, helstrom_success

    for n in (1, 2, 3, 6):
        d = 1 << n
        plus = np.full(d, 1 / math.sqrt(d))
        minus = plus.copy()
        minus[0] *= -1
        direct = helstrom_success(
            DensityOperator.from_pure(minus), DensityOperator.from_pure(plus)
        )
        assert amplitude_single_copy_success(n) == pytest.approx(direct, abs=1e-12)
