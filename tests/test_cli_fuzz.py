"""CLI fuzzing over the numeric flags: every input is served or rejected cleanly.

Each example runs `sqlab.cli.main` in-process on an argv with arbitrary
numbers, including negatives, zeros, NaN and infinities, and checks that the
exit code is 0, 1 or 2, that nothing escapes as a traceback or a numpy
warning, that stderr holds at most one line, and that stdout is strict JSON
or CSV with no NaN or Infinity token. Sizes stay small (dense
dimensions up to 2^10, or 2^12 for instances, pure pairs up to 2^16, density
operators up to 3x3, at most 8 vectors, at most 1000 trials, Haar moments up to
d=8, N=4 with at most 2000 Monte Carlo samples), so the whole module runs in a
few seconds; implicit vectors, the closed-form sweep and the refusal of a pure
pair past the dense budget cost the same at any size, so n, d and copies range
past the sizes they accept.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sqlab.cli import main

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

_NON_FINITE_TOKENS = {"nan", "-nan", "inf", "-inf", "infinity", "-infinity"}

# any double, or one in [0, 2], where the thresholds, tolerances and scales are served
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
        return
    if argv[argv.index("--seed") + 2] in ("copies-sweep", "haar-gap"):
        rows = list(csv.reader(io.StringIO(out)))
        assert rows and all(len(row) == len(rows[0]) for row in rows), (argv, out)
        bad = {cell for row in rows for cell in row if cell.lower() in _NON_FINITE_TOKENS}
        assert not bad, (argv, out)
    else:
        for line in out.splitlines():
            json.loads(line, parse_constant=_reject_constant)


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
        st.tuples(
            st.just("--kind"),
            st.sampled_from(["all-plus", "minus-at-index", "sign-pattern-product"]),
            st.just("--n"),
            st.integers(-1, 63).map(str),
            st.just("--minus-index"),
            st.integers(-1, 2**63).map(str),
            st.just("--sign-mask"),
            st.integers(-1, 2**63).map(str),
            st.just("--scale"),
            numbers,
        ),
    ),
    draws=st.integers(-2, 5000),
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


def _density_file(k, entries):
    rows = [" ".join(entries[2 * k * r : 2 * k * (r + 1)]) for r in range(k)]
    return "\n".join([f"dim {k}", *rows]) + "\n"


@fuzz_settings
@given(
    seed=seeds,
    files=st.lists(
        st.integers(1, 3).flatmap(
            lambda k: st.tuples(st.just(k), st.lists(numbers, min_size=2 * k * k, max_size=2 * k * k))
        ),
        min_size=2,
        max_size=2,
    ),
    trials=st.integers(-2, 1000),
)
# finite entries whose Hermitian part overflows: refused in one line, with no numpy warning
@example(seed=0, files=[(2, ["0.5", "0", "1e308", "0", "1e308", "0", "0.5", "0"]), (1, ["1.0", "0"])], trials=10)
def test_fuzz_discriminate_files(seed, files, trials):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["--seed", str(seed), "discriminate", "--trials", str(trials)]
        for flag, (k, entries) in zip(("--a", "--b"), files):
            path = Path(tmp) / f"{flag[2:]}.txt"
            path.write_text(_density_file(k, entries))
            argv += [flag, str(path)]
        if all(math.isfinite(float(x)) for _, entries in files for x in entries):
            _check(argv)
        else:
            assert _run(argv)[0] == 1, argv


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
    n=st.integers(-1, 12),
    vectors=st.integers(-1, 8),
    reveal=st.booleans(),
)
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
