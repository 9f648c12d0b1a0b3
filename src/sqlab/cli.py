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

Exit codes: 0 on success, 1 on configuration errors, 2 when an assertion or
bound check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import circuit_bridge, instances, learners, quantum_sim, sq_oracle
from .experiments import (
    MIN_EXPECTED_COUNT,
    ConfigError,
    ExperimentConfig,
    chi_square_gof,
    run_sweep,
    write_records,
)
from .haar_moments import BoundViolationError

__all__ = ["main"]

_SOLVER_NAMES = ("minus-sign", "real-search", "sample-only")


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}") from exc


def _emit(payload: dict, out: str | None) -> None:
    line = json.dumps(payload, separators=(",", ":"))
    if out is None:
        print(line)
    else:
        Path(out).write_text(line + "\n")


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="sqlab")
    parser.add_argument("--seed", type=int, default=0, help="global RNG seed")
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json-lines"), default="csv")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock columns (breaks byte-identical reruns)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sample-test", help="chi-square test of the sampler")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--vector", help="dense vector file")
    src.add_argument("--dim", type=int, help="random complex vector of this dimension")
    src.add_argument(
        "--kind",
        choices=(sq_oracle.KIND_ALL_PLUS, sq_oracle.KIND_MINUS_AT_INDEX, sq_oracle.KIND_SIGN_PRODUCT),
        help="implicit vector kind (with --n, --minus-index, --scale, --sign-mask)",
    )
    p.add_argument("--n", type=int, help="dimension exponent for --kind")
    p.add_argument("--minus-index", type=int, default=1)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--sign-mask", type=int, default=1)
    p.add_argument("--draws", type=int, default=100_000)
    p.add_argument("--significance", type=float, default=1e-3)

    p = sub.add_parser("gen-instance", help="generate and dump an instance")
    p.add_argument("--kind", required=True, choices=sorted(instances._GENERATORS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--C", dest="num_vectors", type=int, default=2)
    p.add_argument("--dir", required=True, help="output directory")
    p.add_argument("--reveal", action="store_true", help="write k* into the manifest")

    p = sub.add_parser("solve", help="run a solver on a dumped instance")
    p.add_argument("solver", choices=_SOLVER_NAMES)
    p.add_argument("--instance", required=True, help="instance directory")
    p.add_argument("--budget", type=int, default=10_000, help="samples per handle (sample-only)")

    p = sub.add_parser("discriminate", help="two-state discrimination report")
    p.add_argument("--a", help="density operator file for the first state")
    p.add_argument("--b", help="density operator file for the second state")
    p.add_argument("--family", choices=("minus-sign",), help="construct a named pair instead")
    p.add_argument("--d", type=int, default=4, help="vector dimension for --family")
    p.add_argument("--copies", type=int, default=1, help="copies per state for --family")
    p.add_argument("--trials", type=int, default=10_000)

    p = sub.add_parser("haar-gap", help="moment-gap sweep over (d, N)")
    p.add_argument("--d", type=_int_list, required=True, help="comma-separated d list")
    p.add_argument("--N", dest="copies", type=_int_list, required=True)
    p.add_argument("--mc-samples", type=int, default=None)

    p = sub.add_parser("copies-sweep", help="minimal copies vs dimension")
    p.add_argument("--d", type=_int_list, required=True)
    p.add_argument(
        "--threshold",
        type=float,
        default=quantum_sim.HELSTROM_SCHATTEN_THRESHOLD,
        help="Schatten-1 threshold (default: the 0.9-success level)",
    )

    p = sub.add_parser("sharp-p", help="probe-state amplitude identity for a circuit")
    p.add_argument("--circuit", required=True, help="circuit file")
    p.add_argument("--tolerance", type=float, default=1e-12)

    p = sub.add_parser("encoding-demo", help="product vs amplitude encoding contrast")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--C", dest="num_vectors", type=int, default=2)

    return parser


def _cmd_sample_test(args) -> int:
    # at 0 the test passes every sampler, at 1 or above it fails every one
    if not 0.0 < args.significance < 1.0:
        raise ConfigError(f"--significance must lie in (0, 1), got {args.significance}")
    rng = np.random.default_rng(args.seed)
    if args.vector is not None:
        handle = sq_oracle.build_dense(sq_oracle.load_dense_vector(args.vector))
        probs = np.abs(handle.backing.entries) ** 2
    elif args.kind is not None:
        if args.n is None:
            raise ConfigError("--kind requires --n")
        spec = sq_oracle.ImplicitVector(
            kind=args.kind,
            n=args.n,
            scale=args.scale,
            minus_index=args.minus_index if args.kind == sq_oracle.KIND_MINUS_AT_INDEX else None,
            sign_mask=args.sign_mask if args.kind == sq_oracle.KIND_SIGN_PRODUCT else None,
        )
        handle = sq_oracle.build_implicit(spec)
        probs = None  # uniform magnitudes; tested via equal-width buckets
    else:
        if args.dim is None or args.dim < 1:
            raise ConfigError("--dim must be a positive integer")
        values = rng.standard_normal(args.dim) + 1j * rng.standard_normal(args.dim)
        handle = sq_oracle.build_dense(values)
        probs = np.abs(values) ** 2
    draws = handle.sample_many(args.draws, rng)
    if probs is None:
        # power-of-two dims split evenly into buckets, avoiding int64 overflow
        buckets = min(handle.dim, 1024)
        draws = (draws - 1) // (handle.dim // buckets) + 1
        probs = np.full(buckets, 1.0 / buckets)
    statistic, dof, p_value = chi_square_gof(draws, probs)
    if dof < 1:
        # two cells need MIN_EXPECTED_COUNT each: the likeliest outcome and the rest
        p_max = float(np.max(probs) / np.sum(probs))
        if p_max >= 1.0:
            raise ConfigError("the sampling distribution has one outcome; there is nothing to test")
        needed = math.ceil(MIN_EXPECTED_COUNT / min(p_max, 1.0 - p_max))
        raise ConfigError(
            f"{args.draws} draws leave the chi-square test no degrees of freedom;"
            f" use at least {needed} draws"
        )
    passed = p_value >= args.significance
    _emit(
        {
            "experiment": "sample-test",
            "dim": handle.dim,
            "draws": int(args.draws),
            "chi_square": statistic,
            "dof": dof,
            "p_value": p_value,
            "significance": args.significance,
            "pass": passed,
            "seed": args.seed,
        },
        args.out,
    )
    return 0 if passed else 2


def _cmd_gen_instance(args) -> int:
    generator = instances._GENERATORS[args.kind]
    instance = generator(args.n, args.num_vectors, args.seed)
    instances.dump_instance(instance, args.dir, reveal=args.reveal)
    _emit(
        {
            "experiment": "gen-instance",
            "kind": args.kind,
            "n": args.n,
            "C": args.num_vectors,
            "seed": args.seed,
            "dir": args.dir,
            "revealed": bool(args.reveal),
        },
        args.out,
    )
    return 0


def _cmd_solve(args) -> int:
    instance = instances.load_instance(args.instance)
    rng = np.random.default_rng(args.seed)
    if args.solver == "minus-sign":
        report = learners.solve_minus_sign(instance.handles)
    elif args.solver == "real-search":
        report = learners.solve_real_search(instance.handles)
    else:
        restricted = [h.restrict({sq_oracle.Capability.SAMPLE}) for h in instance.handles]
        report = learners.solve_sample_only(restricted, args.budget, rng)
    report.success = instance.verify_answer(report.answer)
    _emit(
        {
            "experiment": "solve",
            "solver": args.solver,
            "kind": instance.kind,
            "answer": report.answer,
            "correct": report.success,
            "calls": [
                {"sample": s.sample_calls, "query": s.query_calls, "query_norm": s.norm_calls}
                for s in report.per_handle_stats
            ],
            "elapsed_ns": report.elapsed_ns,
            "seed": args.seed,
        },
        args.out,
    )
    return 0


def _cmd_discriminate(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.family is not None:
        u, v = quantum_sim.minus_sign_product_vectors(args.d, args.copies)
        dim = u.size
        schatten, success, empirical = quantum_sim.discriminate_pure_pair(u, v, args.trials, rng)
        source = f"family:{args.family}(d={args.d},copies={args.copies})"
    elif args.a and args.b:
        rho_a = quantum_sim.load_density_operator(args.a)
        rho_b = quantum_sim.load_density_operator(args.b)
        dim = rho_a.dim
        schatten = quantum_sim.schatten1_diff(rho_a, rho_b)
        success = quantum_sim._success_from_schatten1(schatten)
        empirical = quantum_sim.simulate_discrimination(rho_a, rho_b, args.trials, rng)
        source = "files"
    else:
        raise ConfigError("discriminate needs either --a and --b or --family")
    _emit(
        {
            "experiment": "discriminate",
            "source": source,
            "dim": dim,
            "schatten1_diff": schatten,
            "optimal_success": success,
            "empirical_success": empirical,
            "trials": args.trials,
            "seed": args.seed,
        },
        args.out,
    )
    return 0


def _cmd_sweep(args) -> int:
    config = ExperimentConfig(
        subcommand=args.subcommand,
        d_values=args.d,
        copies_values=getattr(args, "copies", ()),
        threshold=getattr(args, "threshold", quantum_sim.HELSTROM_SCHATTEN_THRESHOLD),
        mc_samples=getattr(args, "mc_samples", None),
        seed=args.seed,
        threads=args.threads,
    )
    records = run_sweep(config)
    write_records(records, args.fmt, args.out, timings=args.timings)
    if any(r.error and r.error.startswith("bound-violation") for r in records):
        return 2
    return 0


def _cmd_sharp_p(args) -> int:
    # a negative tolerance fails every circuit, an infinite one passes every one
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0.0):
        raise ConfigError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    try:
        circuit = circuit_bridge.parse_circuit(Path(args.circuit).read_text())
    except ValueError as exc:
        raise ValueError(f"{args.circuit}: {exc}") from None
    if circuit.n == 0:
        raise ConfigError("circuit file declares zero qubits")
    t0 = time.perf_counter_ns()
    probe = circuit_bridge.build_psi_u(circuit)
    handle = circuit_bridge.sq_from_state(probe)
    amplitude = handle.query(1)
    p_zero = circuit_bridge.p_zero_first_qubit(circuit)
    deviation = abs(amplitude - p_zero)
    ok = deviation <= args.tolerance
    _emit(
        {
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
        },
        args.out,
    )
    return 0 if ok else 2


def _cmd_encoding_demo(args) -> int:
    if args.n < 1 or args.trials < 1 or args.num_vectors < 2:
        raise ConfigError("encoding-demo needs n >= 1, trials >= 1, C >= 2")
    rng = np.random.default_rng(args.seed)
    successes = 0
    for _ in range(args.trials):
        k_star = int(rng.integers(1, args.num_vectors + 1))
        encoded = [
            circuit_bridge.product_encode_sign_vector(args.n)
            if k == k_star
            else circuit_bridge.product_encode_all_plus(args.n)
            for k in range(1, args.num_vectors + 1)
        ]
        if circuit_bridge.solve_product_encoding(encoded) == k_star:
            successes += 1
    _emit(
        {
            "experiment": "encoding-demo",
            "n": args.n,
            "C": args.num_vectors,
            "trials": args.trials,
            "product_successes": successes,
            "product_success_rate": successes / args.trials,
            "measurements_per_object": 1,
            "amplitude_single_copy_success": circuit_bridge.amplitude_single_copy_success(args.n),
            "seed": args.seed,
        },
        args.out,
    )
    return 0


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
        return _HANDLERS[args.subcommand](args)
    except (ConfigError, OSError, ValueError, learners.MalformedInstanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BoundViolationError, AssertionError) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
