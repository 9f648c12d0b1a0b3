"""CLI fuzzing over the numeric flags and array files: every input is served or rejected cleanly.

Each example runs `sqlab.cli.main` in-process on an argv with arbitrary
numbers, including negatives, zeros, NaN and infinities, or on `.npy` files
of any shape and of int, float, complex or bool entries, and checks that the
exit code is 0, 1 or 2, that nothing escapes as a traceback or a numpy
warning, that stderr holds at most one line, and that stdout is strict JSON
or CSV with no NaN or Infinity token. Sizes stay small (dense
dimensions up to 2^10, or 2^12 for instances, pure pairs up to 2^16, density
operators up to 3x3, vector files up to 64 entries, at most 8 vectors, at
most 1000 trials, Haar moments up to d=8, N=4 with at most 2000 Monte Carlo
samples), so the whole module runs in a few seconds; implicit vectors, the closed-form sweep and the refusal of a pure
pair past the dense budget cost the same at any size, so n, d and copies range
past the sizes they accept.
"""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from sqlab.cli import main

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

_NON_FINITE_TOKENS = {"nan", "-nan", "inf", "-inf", "infinity", "-infinity"}

# any double, or one in [0, 2], where the thresholds and tolerances are served
numbers = st.one_of(st.floats(0.0, 2.0), st.floats(allow_nan=True, allow_infinity=True)).map(repr)
seeds = st.integers(min_value=-2, max_value=2**32)
fuzz_settings = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)
    assert len(err.splitlines()) <= 1, (argv, err)
    if not out:
        return code, err
    if argv[argv.index("--seed") + 2] in ("copies-sweep", "haar-gap"):
        rows = list(csv.reader(io.StringIO(out)))
        assert rows and all(len(row) == len(rows[0]) for row in rows), (argv, out)
        bad = {cell for row in rows for cell in row if cell.lower() in _NON_FINITE_TOKENS}
        assert not bad, (argv, out)
    else:
        for line in out.splitlines():
            json.loads(line, parse_constant=_reject_constant)
    return code, err


@pytest.fixture(scope="module")
def circuit_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "circuit.txt"
    path.write_text("qubits 3\nH 0\nT 1\nCNOT 0 2\nS 2\nH 1\n")
    return path


@fuzz_settings
@given(
    seed=seeds,
    source=st.one_of(
        st.tuples(st.just("--dim"), st.integers(-2, 1 << 10).map(str)),
        st.tuples(st.just("--n"), st.integers(-1, 63).map(str)),
    ),
    # past 2^24 (`DENSE_BUDGET_N`) draws are refused before anything is drawn
    draws=st.one_of(st.integers(-2, 5000), st.integers((1 << 24) + 1, 2**64)),
    significance=numbers,
)
def test_fuzz_sample_test(seed, source, draws, significance):
    _check(
        ["--seed", str(seed), "sample-test", *source]
        + ["--draws", str(draws), "--significance", significance]
    )


@fuzz_settings
@given(
    seed=seeds,
    d=st.one_of(st.integers(-2, 16), st.integers(-2, 2**4000)),
    copies=st.one_of(st.integers(-2, 8), st.integers(-2, 2**30)),
    trials=st.integers(-2, 1000),
)
def test_fuzz_discriminate(seed, d, copies, trials):
    # the pair has dimension d^(2 copies); pairs up to 2^16 are built, larger ones up to
    # 2^24 would only cost time and memory (two vectors of that length), and larger
    # ones still are refused. Past d = 2^12 or 12 copies the pair is past 2^24, so the
    # power is formed only below both.
    if 1 < d <= 2**12 and 0 < copies <= 12 and 2**16 < d ** (2 * copies) <= 2**24:
        d, copies = min(d, 2**8), 1
    _check(
        ["--seed", str(seed), "discriminate", "--family", "minus-sign"]
        + ["--d", str(d), "--copies", str(copies), "--trials", str(trials)]
    )


# finite values near the float range, whose sums and products overflow
_NEAR_OVERFLOW = st.sampled_from([1.7976931348623157e308, -1.7976931348623157e308, 1e308, -1e308, 1e154])
_ELEMENTS = {
    "int": st.integers(-(2**63), 2**63 - 1),
    "float": st.one_of(st.floats(-2.0, 2.0), st.floats(allow_nan=True, allow_infinity=True), _NEAR_OVERFLOW),
    "complex": st.one_of(
        st.complex_numbers(max_magnitude=2.0), st.complex_numbers(allow_nan=True, allow_infinity=True),
        st.builds(complex, _NEAR_OVERFLOW, _NEAR_OVERFLOW),
    ),
    "bool": st.booleans(),
}
_DTYPES = {"int": np.int64, "float": np.float64, "complex": np.complex128, "bool": np.bool_}


def _npy_arrays(shapes):
    """Arrays of any of these shapes with int, float, complex or bool entries."""
    return st.tuples(shapes, st.sampled_from(sorted(_ELEMENTS))).flatmap(
        lambda sk: npst.arrays(_DTYPES[sk[1]], sk[0], elements=_ELEMENTS[sk[1]])
    )


def _check_npy_files(argv, flags, arrays):
    """`_check` on argv with each flag naming a `.npy` file of its array, returning the exit code.

    A refusal is one `error:` line, and an array with a non-finite entry is refused.
    """
    with tempfile.TemporaryDirectory() as tmp:
        for flag, values in zip(flags, arrays):
            path = Path(tmp) / f"{flag[2:]}.npy"
            np.save(path, values)
            argv = argv + [flag, str(path)]
        code, err = _check(argv)
    assert (code == 1) == err.startswith("error: "), (argv, code, err)
    if not all(np.isfinite(values).all() for values in arrays):
        assert code == 1, argv
    return code


# 1-d, 2-d non-square and 2-d square arrays; a square one is sometimes the maximally mixed state
_density_arrays = st.one_of(
    _npy_arrays(
        st.one_of(
            st.tuples(st.integers(0, 9)),
            st.tuples(st.integers(1, 3), st.integers(1, 3)).filter(lambda shape: shape[0] != shape[1]),
            st.integers(1, 3).map(lambda k: (k, k)),
        )
    ),
    st.integers(1, 3).map(lambda k: np.eye(k) / k),
)


@fuzz_settings
@given(seed=seeds, pair=st.tuples(_density_arrays, _density_arrays), trials=st.integers(-2, 1000))
# finite entries whose Hermitian part overflows: refused in one line, with no numpy warning
@example(seed=0, pair=(np.array([[0.5, 1e308], [1e308, 0.5]]), np.eye(1)), trials=10)
def test_fuzz_discriminate_files(seed, pair, trials):
    code = _check_npy_files(["--seed", str(seed), "discriminate", "--trials", str(trials)], ("--a", "--b"), pair)
    assert code in (0, 1)


@fuzz_settings
@given(
    seed=seeds,
    values=st.one_of(
        _npy_arrays(st.tuples(st.sampled_from([0, 1, 3, 8, 64]))),
        _npy_arrays(st.just((2, 2))),
        st.sampled_from([2, 8, 64]).map(np.ones),
    ),
    draws=st.integers(-2, 5000),
)
def test_fuzz_sample_test_vector_files(seed, values, draws):
    # a length that is not a power of two, and a 2-d array, are refused like non-finite entries
    _check_npy_files(["--seed", str(seed), "sample-test", "--draws", str(draws)], ("--vector",), (values,))


@fuzz_settings
@given(
    seed=seeds,
    d_values=st.lists(st.integers(-2, 2**1100), min_size=1, max_size=4),
    threshold=numbers,
)
def test_fuzz_copies_sweep(seed, d_values, threshold):
    _check(
        ["--seed", str(seed), "copies-sweep"]
        + ["--d", ",".join(map(str, d_values)), "--threshold", threshold]
    )


@fuzz_settings
@given(seed=seeds, tolerance=numbers)
def test_fuzz_sharp_p(circuit_file, seed, tolerance):
    _check(["--seed", str(seed), "sharp-p", "--circuit", str(circuit_file), "--tolerance", tolerance])


@fuzz_settings
@given(seed=seeds, n=st.integers(-2, 10), trials=st.integers(-2, 1000), vectors=st.integers(-2, 8))
def test_fuzz_encoding_demo(seed, n, trials, vectors):
    _check(
        ["--seed", str(seed), "encoding-demo"]
        + ["--n", str(n), "--trials", str(trials), "--C", str(vectors)]
    )


@fuzz_settings
@given(
    seed=seeds,
    d=st.integers(-2, 8),
    copies=st.integers(-2, 4),
    mc_samples=st.one_of(st.none(), st.integers(-2, 2000)),
)
def test_fuzz_haar_gap(seed, d, copies, mc_samples):
    mc = [] if mc_samples is None else ["--mc-samples", str(mc_samples)]
    _check(["--seed", str(seed), "haar-gap", "--d", str(d), "--N", str(copies), *mc])


@fuzz_settings
@given(
    seed=seeds,
    kind=st.sampled_from(["minus-sign", "real-search", "unnormalized-minus"]),
    # past 62 the minus-sign kinds refuse n before 2^n is formed; below 2^33, where 2^n would take a GiB
    n=st.one_of(st.integers(-1, 12), st.sampled_from([63, 1024, 10**9])),
    vectors=st.integers(-1, 8),
    reveal=st.booleans(),
)
@example(seed=0, kind="minus-sign", n=1024, vectors=2, reveal=False)
def test_fuzz_gen_instance_then_solve(seed, kind, n, vectors, reveal):
    # every solver runs on whatever the generator wrote, or on the missing directory
    with tempfile.TemporaryDirectory() as tmp:
        directory = f"{tmp}/inst"
        _check(
            ["--seed", str(seed), "gen-instance", "--kind", kind]
            + ["--n", str(n), "--C", str(vectors), "--dir", directory]
            + (["--reveal"] if reveal else [])
        )
        for solver in ("minus-sign", "real-search", "sample-only"):
            _check(["--seed", str(seed), "solve", solver, "--instance", directory])
