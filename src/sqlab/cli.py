"""Command-line entry point.

Subcommands:
  sample-test     chi-square check of the oracle sampler against |x_i|^2/||x||^2
  gen-instance    generate and dump a problem instance to a directory
  solve           run a solver (minus-sign | real-search | sample-only) on a dump
  discriminate    trace norm, optimal success, and Monte Carlo rate for two states
  haar-gap        sweep the moment-operator gap and its bounds over (d, N)
  copies-sweep    minimal copies to reach a discrimination threshold, per d
  sharp-p         verify the probe-state amplitude identity for a circuit file
  encoding-demo   product versus amplitude encoding of a sign vector

A count flag declares its range in its type (`_count`), so a count out of range
is refused while the arguments are parsed. Each handler returns its result and
exit code. `main` checks `--out` before any work, then writes the result (one
JSON line, or a sweep's rows in `--format`) to `--out` or stdout. `--format`
and `--timings` apply to the sweeps only.

Exit codes: 0 on success, 1 on any refused input (a ValueError or an
OSError, reported in one `error:` line), 2 when a sweep cell records a bound
violation, a sample-test fails or a sharp-p identity fails.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import circuit_bridge, inputs, instances, learners, quantum_sim, sq_oracle
from .experiments import (
    MIN_EXPECTED_COUNT,
    ExperimentConfig,
    ResultRecord,
    chi_square_cells,
    chi_square_gof,
    render_records,
    run_sweep,
)

__all__ = ["main"]

_SOLVER_NAMES = ("minus-sign", "real-search", "sample-only")


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports usage problems as ValueError (exit code 1)."""

    def error(self, message):
        raise ValueError(message)


def _flag_type(parse):
    """The argparse type of a flag read by `parse`: its ValueError is refused as argparse refuses a flag."""

    def flag_type(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return flag_type


_int, _float = _flag_type(inputs.parse_int), _flag_type(inputs.parse_float)  # every integer and float flag


def _count(low: int, high: int | None = 1 << inputs.DENSE_BUDGET_N):
    """The type of a count flag: an integer in [low, high] (`inputs.check_count`), refused as `_int` refuses."""

    def count(text: str) -> int:
        value = inputs.parse_int(text)
        inputs.check_count("value", value, low, high)
        return value

    return _flag_type(count)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(_int(tok) for tok in text.split(",") if tok)


def _check_out(out: str | None) -> None:
    """Before any work, refuse an `out` that cannot be written with the error that writing it would
    raise. Nothing is created, truncated or replaced, so a refused run leaves `out` as it was."""
    if out is None:
        return
    path = Path(out)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    if not Path(os.path.realpath(path)).parent.is_dir():  # a symlink is checked at its target
        os.stat(path)  # raises what opening it would: no such file, or not a directory


def _write_out(text: str, out: str | None) -> None:
    """Write a result to `out`, or to stdout when `out` is None; the one writer of results."""
    if out is None:
        print(text, end="")
    else:
        Path(out).write_text(text)


@functools.cache  # built on the first `main` call and reused: parsing leaves the parser as it was
def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="sqlab")
    parser.add_argument("--seed", type=_count(0, None), default=0, help="global RNG seed, a nonnegative integer")
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json-lines"), help="sweeps only (default: csv)")
    parser.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock columns (breaks byte-identical reruns)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sample-test", help="chi-square test of the sampler")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--vector", help="dense vector: a 1-d numeric .npy array")
    src.add_argument("--dim", type=_count(1), help="random complex vector of this dimension")
    src.add_argument("--n", type=_int, help="implicit vector of dimension 2^n")
    p.add_argument("--draws", type=_count(0), default=100_000)
    p.add_argument("--significance", type=_float, default=1e-3)

    p = sub.add_parser("gen-instance", help="generate and dump an instance")
    p.add_argument("--kind", required=True, choices=instances.KINDS)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--C", dest="num_vectors", type=_count(2, instances.MAX_VECTORS), default=2)
    p.add_argument("--dir", required=True, help="output directory")
    p.add_argument("--reveal", action="store_true", help="write k* into the manifest")

    p = sub.add_parser("solve", help="run a solver on a dumped instance")
    p.add_argument("solver", choices=_SOLVER_NAMES)
    p.add_argument("--instance", required=True, help="instance directory")
    p.add_argument("--budget", type=_count(0), default=10_000, help="samples per handle (sample-only)")

    p = sub.add_parser("discriminate", help="two-state discrimination report")
    p.add_argument("--a", help="first state's density operator: a square 2-d numeric .npy array")
    p.add_argument("--b", help="second state's density operator: a square 2-d numeric .npy array")
    p.add_argument("--family", choices=("minus-sign",), help="construct a named pair instead")
    p.add_argument("--d", type=_int, help="vector dimension for --family (default 4)")
    p.add_argument("--copies", type=_int, help="copies per state for --family (default 1)")
    p.add_argument("--trials", type=_count(1), default=10_000)

    p = sub.add_parser("haar-gap", help="moment-gap sweep over (d, N)")
    p.add_argument("--d", type=_int_list, required=True, help="comma-separated d list")
    p.add_argument("--N", dest="copies", type=_int_list, required=True)
    p.add_argument("--mc-samples", type=_count(1), default=None)

    p = sub.add_parser("copies-sweep", help="minimal copies vs dimension")
    p.add_argument("--d", type=_int_list, required=True)
    p.add_argument(
        "--threshold",
        type=_float,
        default=quantum_sim.HELSTROM_SCHATTEN_THRESHOLD,
        help="Schatten-1 threshold (default: the 0.9-success level)",
    )

    p = sub.add_parser("sharp-p", help="probe-state amplitude identity for a circuit")
    p.add_argument("--circuit", required=True, help="circuit file")
    p.add_argument("--tolerance", type=_float, default=1e-12)

    p = sub.add_parser("encoding-demo", help="product vs amplitude encoding contrast")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--trials", type=_count(1), default=1000)
    p.add_argument("--C", dest="num_vectors", type=_count(2, instances.MAX_VECTORS), default=2)

    return parser


def _cmd_sample_test(args) -> tuple[dict, int]:
    # at 0 the test passes every sampler, at 1 or above it fails every one
    if not 0.0 < args.significance < 1.0:
        raise ValueError(f"--significance must lie in (0, 1), got {args.significance}")
    rng = np.random.default_rng(args.seed)
    if args.vector is not None:
        values = inputs.load_npy(args.vector, 1, 1 << inputs.DENSE_BUDGET_N)
        with inputs.refusals_from(args.vector):
            handle = sq_oracle.build_dense(values)
        probs = np.abs(handle.backing.entries) ** 2
    elif args.n is not None:
        # every implicit kind has constant magnitude, so its Sample is one uniform draw
        spec = sq_oracle.ImplicitVector(kind=sq_oracle.KIND_ALL_PLUS, n=args.n, scale=1.0)
        handle = sq_oracle.build_implicit(spec)
        buckets = min(handle.dim, 1024)  # uniform magnitudes, tested via equal-width buckets
        probs = np.full(buckets, 1.0 / buckets)
    else:
        values = rng.standard_normal(args.dim) + 1j * rng.standard_normal(args.dim)
        handle = sq_oracle.build_dense(values)
        probs = np.abs(values) ** 2
    *_, cells = chi_square_cells(probs, args.draws)  # known before any draw
    if cells < 2:
        # two cells need MIN_EXPECTED_COUNT each: the likeliest outcome and the rest
        p_max = float(np.max(probs) / np.sum(probs))
        if p_max >= 1.0:
            raise ValueError("the sampling distribution has one outcome; there is nothing to test")
        needed = math.ceil(MIN_EXPECTED_COUNT / min(p_max, 1.0 - p_max))
        raise ValueError(
            f"{args.draws} draws leave the chi-square test no degrees of freedom;"
            f" use at least {needed} draws"
        )
    draws = handle.sample_many(args.draws, rng)
    if args.n is not None:  # power-of-two dims split evenly into buckets, avoiding int64 overflow
        draws = (draws - 1) // (handle.dim // probs.size) + 1
    statistic, dof, p_value = chi_square_gof(draws, probs)
    passed = p_value >= args.significance
    return {
        "experiment": "sample-test",
        "dim": handle.dim,
        "draws": int(args.draws),
        "chi_square": statistic,
        "dof": dof,
        "p_value": p_value,
        "significance": args.significance,
        "pass": passed,
        "seed": args.seed,
    }, 0 if passed else 2


def _cmd_gen_instance(args) -> tuple[dict, int]:
    instance = instances.generate(args.kind, args.n, args.num_vectors, args.seed)
    instances.dump_instance(instance, args.dir, reveal=args.reveal)
    return {
        "experiment": "gen-instance",
        "kind": args.kind,
        "n": args.n,
        "C": args.num_vectors,
        "seed": args.seed,
        "dir": args.dir,
        "revealed": bool(args.reveal),
    }, 0


def _cmd_solve(args) -> tuple[dict, int]:
    instance = instances.load_instance(args.instance)
    rng = np.random.default_rng(args.seed)
    if args.solver == "minus-sign":
        report = learners.solve_minus_sign(instance.handles)
    elif args.solver == "real-search":
        report = learners.solve_real_search(instance.handles)
    else:
        restricted = [h.restrict({sq_oracle.Capability.SAMPLE}) for h in instance.handles]
        report = learners.solve_sample_only(restricted, args.budget, rng)
    return {
        "experiment": "solve",
        "solver": args.solver,
        "kind": instance.kind,
        "answer": report.answer,
        "correct": instance.verify_answer(report.answer),
        "calls": [
            {"sample": s.sample_calls, "query": s.query_calls, "query_norm": s.norm_calls}
            for s in report.per_handle_stats
        ],
        "elapsed_ns": report.elapsed_ns,
        "seed": args.seed,
    }, 0


def _cmd_discriminate(args) -> tuple[dict, int]:
    rng = np.random.default_rng(args.seed)
    if args.family is not None:
        if args.a is not None or args.b is not None:
            raise ValueError("--family excludes --a and --b")
        d = 4 if args.d is None else args.d
        copies = 1 if args.copies is None else args.copies
        u, v = quantum_sim.minus_sign_product_vectors(d, copies)
        dim = u.size
        schatten, success, empirical = quantum_sim.discriminate_pure_pair(u, v, args.trials, rng)
        source = f"family:{args.family}(d={d},copies={copies})"
    elif args.a and args.b:
        if args.d is not None or args.copies is not None:
            raise ValueError("--d and --copies apply only to --family")
        mapped = [inputs.open_npy(path, 2, 1 << inputs.DENSE_BUDGET_N) for path in (args.a, args.b)]
        # refused from the two headers, before either array is read; an empty or non-square
        # array is refused naming its file
        dims = [m.shape[0] for m in mapped if 0 < m.shape[0] == m.shape[1]]
        if len(dims) == 2 and dims[0] != dims[1]:
            raise ValueError(f"dimension mismatch: {dims[0]} vs {dims[1]}")
        with inputs.refusals_from(args.a):  # checked and symmetrized from the map, with no copy first
            rho_a = quantum_sim.DensityOperator.from_matrix(mapped[0])
        with inputs.refusals_from(args.b):
            rho_b = quantum_sim.DensityOperator.from_matrix(mapped[1])
        dim = rho_a.dim
        schatten, success, empirical = quantum_sim.discriminate_mixed_pair(rho_a, rho_b, args.trials, rng)
        source = "files"
    else:
        raise ValueError("discriminate needs either --a and --b or --family")
    return {
        "experiment": "discriminate",
        "source": source,
        "dim": dim,
        "schatten1_diff": schatten,
        "optimal_success": success,
        "empirical_success": empirical,
        "trials": args.trials,
        "seed": args.seed,
    }, 0


def _cmd_sweep(args) -> tuple[list[ResultRecord], int]:
    config = ExperimentConfig(
        subcommand=args.subcommand,
        d_values=args.d,
        copies_values=getattr(args, "copies", ()),
        threshold=getattr(args, "threshold", quantum_sim.HELSTROM_SCHATTEN_THRESHOLD),
        mc_samples=getattr(args, "mc_samples", None),
        seed=args.seed,
    )
    records = run_sweep(config)
    violated = any(r.error and r.error.startswith("bound-violation") for r in records)
    return records, 2 if violated else 0


def _cmd_sharp_p(args) -> tuple[dict, int]:
    # a negative tolerance fails every circuit, an infinite one passes every one
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0.0):
        raise ValueError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    text = inputs.read_text(args.circuit)
    with inputs.refusals_from(args.circuit):
        circuit = circuit_bridge.parse_circuit(text)
        t0 = time.perf_counter_ns()
        probe, p_zero = circuit_bridge.build_psi_u(circuit)  # refuses zero qubits and any past the budget
    handle = sq_oracle.build_dense(probe)
    amplitude = handle.query(1)
    deviation = abs(amplitude - p_zero)
    ok = deviation <= args.tolerance
    return {
        "experiment": "sharp-p",
        "qubits": circuit.n,
        "gates": len(circuit.gates),
        "p_zero": p_zero,
        "query_re": amplitude.real,
        "query_im": amplitude.imag,
        "abs_diff": deviation,
        "identity_ok": ok,
        "elapsed_ns": time.perf_counter_ns() - t0,
        "seed": args.seed,
    }, 0 if ok else 2


def _cmd_encoding_demo(args) -> tuple[dict, int]:
    amplitude_success = circuit_bridge.amplitude_single_copy_success(args.n)  # refuses n < 1 before any trial
    rng = np.random.default_rng(args.seed)
    # each object is the first factor of its product state: |-> for k*, |+> for the rest
    h = math.sqrt(0.5)
    plus, minus = (h, h), (h, -h)
    successes = 0
    for _ in range(args.trials):
        k_star = int(rng.integers(1, args.num_vectors + 1))
        first_qubits = [plus] * args.num_vectors
        first_qubits[k_star - 1] = minus
        if circuit_bridge.measure_product_encoding(first_qubits) == k_star:
            successes += 1
    return {
        "experiment": "encoding-demo",
        "n": args.n,
        "C": args.num_vectors,
        "trials": args.trials,
        "product_successes": successes,
        "product_success_rate": successes / args.trials,
        "measurements_per_object": 1,
        "amplitude_single_copy_success": amplitude_success,
        "seed": args.seed,
    }, 0


_HANDLERS = {
    "sample-test": _cmd_sample_test,
    "gen-instance": _cmd_gen_instance,
    "solve": _cmd_solve,
    "discriminate": _cmd_discriminate,
    "haar-gap": _cmd_sweep,
    "copies-sweep": _cmd_sweep,
    "sharp-p": _cmd_sharp_p,
    "encoding-demo": _cmd_encoding_demo,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = _HANDLERS[args.subcommand]
        sweep = handler is _cmd_sweep
        if not sweep and (args.fmt is not None or args.timings):
            raise ValueError("--format and --timings apply only to haar-gap and copies-sweep")
        _check_out(args.out)
        result, code = handler(args)
        if sweep:
            text = render_records(result, args.fmt or "csv", args.timings)
        else:
            text = json.dumps(result, separators=(",", ":")) + "\n"
        _write_out(text, args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
