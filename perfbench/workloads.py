"""The three benchmark workloads: inputs from the seed, timed passes, output checks.

Each workload is driven by one caller in a closed loop: a pass issues its
operations one after another and the next pass starts when the previous one
has finished. Every pass repeats the same work on the same inputs, so pass
times are comparable and the seeded checks give one verdict per seed.

A check that fails marks the operations it covers as failed; those counts
feed `failed` / `attempted` (the error rate). Checks use tolerances rather
than hashes across commits, since a structured eigen-path may change the
last digits; byte identity is only required between passes of one run.

A pass is split into steps, the calls into sqlab it makes; each step's wall
time is kept per pass in `step_times`, so a run can report how fast each
step went at its quickest (see run.py). The benchmark's own checks run
between steps and are not timed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from pathlib import Path

import numpy as np

# Calls go through module attributes so that the tracer's wrappers see them.
from sqlab import cli, experiments, instances, learners, quantum_sim, sq_oracle
from sqlab.experiments import ExperimentConfig
from sqlab.sq_oracle import Capability, ImplicitVector, OracleStats

BOUND_TOL = 1e-9
P_VALUE_MIN = 1e-3
CHANCE_BAND_SIGMAS = 5.0


def tracenorm_reference(d: int, copies: int) -> float:
    """Schatten-1 distance of the N-copy sign-flip pair: the pure states overlap in c^(2N)."""
    c = 1.0 - 2.0 / d
    return 2.0 * math.sqrt(1.0 - c ** (4 * copies))


class Workload:
    """Base: subclasses generate inputs in `setup` and do one pass in `run_pass`.

    `run_pass` returns (operations attempted, operations failed). Failure
    messages collect in `self.failures`; tallies for the traced report in
    `self.counts`; the wall time of every step of every pass in
    `self.step_times`.
    """

    def __init__(self, seed: int, small: bool, wrong_reference: bool, workdir: Path):
        self.seed = seed
        self.small = small
        self.wrong_reference = wrong_reference
        self.workdir = workdir
        self.failures: list[str] = []
        self.counts: dict[str, int] = {}
        self.step_times: dict[str, list[float]] = {}

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)

    @contextlib.contextmanager
    def step(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.step_times.setdefault(name, []).append(time.perf_counter() - t0)

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> tuple[int, int]:
        raise NotImplementedError


class BoundsGrid(Workload):
    """Haar-gap sweep plus the dense N-copy cross-check; an op is one cell."""

    def setup(self):
        if self.small:
            grid = ((2, 4), (1, 2))
            extra = ((6, 2),)
            mc_cells, self.mc_samples = ((2, 2),), 2000
            self.ncopy_cells = [(d, n) for d in (2, 3) for n in (1, 2)]
        else:
            grid = ((2, 4, 8, 16), (1, 2, 3, 4))
            extra = ((12, 4), (8, 6), (6, 8))
            mc_cells, self.mc_samples = ((2, 2), (3, 2), (4, 2), (2, 3)), 20_000
            self.ncopy_cells = [(d, n) for d in (2, 3, 4) for n in (1, 2, 3)]
        sweep = dict(subcommand="haar-gap", seed=self.seed, threads=1)
        self.configs = [ExperimentConfig(d_values=grid[0], copies_values=grid[1], **sweep)]
        self.configs += [
            ExperimentConfig(d_values=(d,), copies_values=(n,), **sweep) for d, n in extra
        ]
        self.configs += [
            ExperimentConfig(d_values=(d,), copies_values=(n,), mc_samples=self.mc_samples, **sweep)
            for d, n in mc_cells
        ]
        self.gap_22 = 1.0 / 3.0 + (1e-3 if self.wrong_reference else 0.0)
        self.ncopy_ref = {cell: tracenorm_reference(*cell) for cell in self.ncopy_cells}
        self.first_csv: str | None = None

    def _record_ok(self, rec) -> bool:
        cell = f"haar-gap d={rec.params['d']} N={rec.params['N']}"
        if rec.error is not None:
            self.fail(f"{cell}: error record {rec.error}")
            return False
        v = rec.values
        checks = [
            (v["gap"] <= v["bound_two_term"] + BOUND_TOL, "gap above two-term bound"),
            (v["bound_two_term"] <= v["bound_final"] + BOUND_TOL, "two-term bound above 4N^2/d"),
            (v["o_rest_min_eig"] >= -BOUND_TOL, "remainder not PSD"),
        ]
        if (rec.params["d"], rec.params["N"]) == (2, 2):
            checks.append((abs(v["gap"] - self.gap_22) <= BOUND_TOL, f"gap(2,2)={v['gap']!r}"))
        if rec.params["N"] == 1:
            checks.append((v["gap"] < 1e-10, f"gap(d,1)={v['gap']!r}"))
        if v["mc_max_dev"] is not None:
            tol = 8.0 / math.sqrt(self.mc_samples)
            checks.append((v["mc_max_dev"] <= tol, f"mc_max_dev {v['mc_max_dev']!r} > {tol}"))
        for ok, what in checks:
            if not ok:
                self.fail(f"{cell}: {what}")
        return all(ok for ok, _ in checks)

    def run_pass(self):
        records = []
        for k, config in enumerate(self.configs):
            with self.step(f"sweep{k}"):
                records += experiments.run_sweep(config)
        failed = sum(not self._record_ok(rec) for rec in records)
        with self.step("render"):
            text = experiments.render_records(records, "csv")
        if self.first_csv is None:
            self.first_csv = text
        elif text != self.first_csv:
            self.fail("rendered sweep CSV differs from the first pass")
            failed = len(records)
        for d, n in self.ncopy_cells:
            with self.step(f"ncopy{d},{n}"):
                dense = quantum_sim.ncopy_minus_sign_tracenorm_dense(d, n)
                closed = quantum_sim.ncopy_minus_sign_tracenorm(d, n)
            ref = self.ncopy_ref[(d, n)]
            if abs(dense - ref) > BOUND_TOL or abs(closed - ref) > BOUND_TOL:
                self.fail(f"ncopy d={d} N={n}: dense {dense!r} closed {closed!r} ref {ref!r}")
                failed += 1
        return len(records) + len(self.ncopy_cells), failed


class SqSearch(Workload):
    """Oracle reads and solvers on handles built in set-up; an op is one oracle call."""

    C = 4

    def setup(self):
        small = self.small
        rng = np.random.default_rng([self.seed, 0])
        self.dense_n = 10 if small else 20
        self.batch = 1 << (12 if small else 19)
        self.buckets = 64 if small else 1024
        self.single_calls = 50 if small else 1000
        n_queries = 200 if small else 10_000
        n_minus = 20 if small else 500
        n_real = 2 if small else 8
        real_n = 8 if small else 16
        n_sample_only = 40 if small else 200
        self.budget = 200 if small else 1000

        d = 1 << self.dense_n
        self.values = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        self.dense = sq_oracle.build_dense(self.values)
        probs = np.abs(self.values) ** 2
        self.bucket_probs = probs.reshape(self.buckets, -1).sum(axis=1)
        self.dense_queries = rng.integers(1, d + 1, size=n_queries).tolist()

        mask = int(rng.integers(1, 1 << 62))
        scale = 2.0**-31
        self.implicit = sq_oracle.build_implicit(
            ImplicitVector(kind="sign-pattern-product", n=62, scale=scale, sign_mask=mask)
        )
        self.implicit_queries = [
            (i, complex(-scale if ((i - 1) & mask).bit_count() & 1 else scale))
            for i in rng.integers(1, (1 << 62) + 1, size=n_queries).tolist()
        ]

        seeds = rng.integers(0, 2**31, size=n_minus + n_real + n_sample_only).tolist()
        self.minus = [
            instances.gen_minus_sign(10 if k % 2 else 62, self.C, s)
            for k, s in enumerate(seeds[:n_minus])
        ]
        self.real = [
            instances.gen_real_vector_search(real_n, self.C, s)
            for s in seeds[n_minus : n_minus + n_real]
        ]
        self.sample_only = []
        for s in seeds[n_minus + n_real :]:
            inst = instances.gen_minus_sign(10, self.C, s)
            self.sample_only.append((inst, [h.restrict({Capability.SAMPLE}) for h in inst.handles]))

        self.handles = [self.dense, self.implicit]
        self.handles += [h for inst in self.minus + self.real for h in inst.handles]
        self.handles += [h for _, hs in self.sample_only for h in hs]
        query_stats = OracleStats(0, 2 if self.wrong_reference else 1, 0)
        self.query_stats = (query_stats,) * self.C
        self.sample_stats = (OracleStats(self.budget, 0, 0),) * self.C
        self.calls_per_pass = (
            self.batch + self.single_calls + 2 * n_queries
            + self.C * (n_minus + n_real) + self.C * self.budget * n_sample_only
        )
        self.first_draws: np.ndarray | None = None

    def _solve_ok(self, inst, report, expected) -> bool:
        ok = inst.verify_answer(report.answer) and report.per_handle_stats == expected
        if not ok:
            self.fail(f"{inst!r}: answer {report.answer} stats {report.per_handle_stats}")
        return ok

    def run_pass(self):
        # the same stream every pass: identical work, one verdict per seed
        rng = np.random.default_rng([self.seed, 1])
        before = sum(h.stats().total() for h in self.handles)
        failed = 0

        with self.step("sample_many"):
            draws = self.dense.sample_many(self.batch, rng)
            width = self.dense.dim // self.buckets
            _, dof, p_value = experiments.chi_square_gof((draws - 1) // width + 1, self.bucket_probs)
        if self.first_draws is None:
            self.first_draws = draws
        if p_value < P_VALUE_MIN or dof != self.buckets - 1 or not np.array_equal(draws, self.first_draws):
            self.fail(f"batched draws: p={p_value:.3g} dof={dof} or not reproducible")
            failed += self.batch

        with self.step("sample"):
            samples = [self.dense.sample(rng) for _ in range(self.single_calls)]
        failed += sum(not 1 <= i <= self.dense.dim for i in samples)
        with self.step("query_dense"):
            got = [self.dense.query(i) for i in self.dense_queries]
        failed += int(sum(g != self.values[i - 1] for g, i in zip(got, self.dense_queries)))
        with self.step("query_implicit"):
            got = [self.implicit.query(i) for i, _ in self.implicit_queries]
        failed += sum(g != expected for g, (_, expected) in zip(got, self.implicit_queries))

        with self.step("solve_query"):
            reports = [learners.solve_minus_sign(inst.handles) for inst in self.minus]
            reports += [learners.solve_real_search(inst.handles) for inst in self.real]
        for inst, report in zip(self.minus + self.real, reports):
            if not self._solve_ok(inst, report, self.query_stats):
                failed += self.C

        with self.step("solve_sample_only"):
            reports = [learners.solve_sample_only(hs, self.budget, rng) for _, hs in self.sample_only]
        hits = 0
        for (inst, _), report in zip(self.sample_only, reports):
            hits += inst.verify_answer(report.answer)
            if report.per_handle_stats != self.sample_stats:
                self.fail(f"sample-only stats {report.per_handle_stats}")
                failed += self.C * self.budget
        attempts = len(self.sample_only)
        self.counts["sample_only_hits"] = self.counts.get("sample_only_hits", 0) + hits
        self.counts["sample_only_attempts"] = self.counts.get("sample_only_attempts", 0) + attempts
        chance = 1.0 / self.C
        band = CHANCE_BAND_SIGMAS * math.sqrt(chance * (1 - chance) / attempts)
        if abs(hits / attempts - chance) > band:
            self.fail(f"sample-only hit rate {hits / attempts:.3f} outside {chance}+-{band:.3f}")
            failed += self.C * self.budget * attempts

        calls = sum(h.stats().total() for h in self.handles) - before
        if calls != self.calls_per_pass:
            self.fail(f"oracle calls {calls} != {self.calls_per_pass}")
            failed = calls
        return calls, min(failed, calls)


def _random_circuit_text(n: int, gates: int, rng: np.random.Generator) -> str:
    names = ("H", "T", "S", "X", "Z", "CNOT")
    lines = [f"qubits {n}"]
    for _ in range(gates):
        name = names[int(rng.integers(len(names)))]
        if name == "CNOT":
            control, target = (int(q) for q in rng.choice(n, size=2, replace=False))
            lines.append(f"CNOT {control} {target}")
        else:
            lines.append(f"{name} {int(rng.integers(n))}")
    return "\n".join(lines) + "\n"


class CliSession(Workload):
    """A user's command sequence; an op is one `sqlab` invocation.

    Each argv goes through `sqlab.cli.main` in this process, as the `sqlab`
    console script passes it. A fresh process per command would add the
    interpreter start and imports, about 1 s per command, and leave room for
    only two passes per run: too few for the fastest time of a step to mean
    anything on a shared host. That start-up cost is measured instead by
    `setup_s` (a fresh process that imports `sqlab.cli`) and, in the traced
    run, by `cli.import_s`.
    """

    def setup(self):
        small = self.small
        rng = np.random.default_rng([self.seed, 2])
        w = self.workdir
        w.mkdir(parents=True, exist_ok=True)
        self.real_n = 8 if small else 16
        self.minus_n = 20 if small else 62
        self.C = 4
        self.budget = 1000 if small else 10_000
        qubits, gates = (6, 20) if small else (16, 200)
        circuit = w / "circuit.txt"
        circuit.write_text(_random_circuit_text(qubits, gates, rng))
        self.disc = (4, 1) if small else (4, 2)
        self.copies_d = (64, 128) if small else (64, 128, 256, 512, 1024, 2048, 4096)
        self.haar = ("2,3", "1,2") if small else ("2,4,8", "1,2,3")
        self.mc_samples = 500 if small else 2000
        s = str(self.seed)
        d_list = ",".join(map(str, self.copies_d))
        disc_d, disc_n = self.disc
        self.commands = [
            ("gen-instance", ["--seed", s, "gen-instance", "--kind", "real-search",
                              "--n", str(self.real_n), "--C", str(self.C), "--dir", str(w / "rs")]),
            ("gen-instance", ["--seed", s, "gen-instance", "--kind", "minus-sign",
                              "--n", str(self.minus_n), "--C", str(self.C), "--dir", str(w / "ms")]),
            ("solve", ["solve", "minus-sign", "--instance", str(w / "ms")]),
            ("solve", ["solve", "real-search", "--instance", str(w / "rs")]),
            ("solve", ["--seed", s, "solve", "sample-only", "--instance", str(w / "ms"),
                       "--budget", str(self.budget)]),
            ("sample-test", ["--seed", s, "sample-test", "--dim", "4096"]),
            ("discriminate", ["--seed", s, "discriminate", "--family", "minus-sign",
                              "--d", str(disc_d), "--copies", str(disc_n)]),
            ("copies-sweep", ["copies-sweep", "--d", d_list]),
            ("sharp-p", ["sharp-p", "--circuit", str(circuit)]),
            ("encoding-demo", ["--seed", s, "encoding-demo", "--n", "10", "--trials", "1000"]),
            ("haar-gap", ["--seed", s, "haar-gap", "--d", self.haar[0], "--N", self.haar[1],
                          "--mc-samples", str(self.mc_samples)]),
        ]
        self.copies_reference = experiments.render_records(
            experiments.run_sweep(ExperimentConfig(subcommand="copies-sweep", d_values=self.copies_d)), "csv"
        )
        shift = 1e-3 if self.wrong_reference else 0.0
        self.disc_reference = tracenorm_reference(disc_d, disc_n) + shift
        self.encoding_reference = 0.5 + 0.5 * math.sqrt(1.0 - (1.0 - 2.0 / 2**10) ** 2)

    def invoke(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def _check(self, argv: list[str], out: str) -> list[str]:
        sub = argv[argv.index("--instance") - 1] if "solve" in argv else None
        if "copies-sweep" in argv:
            return [] if out == self.copies_reference else ["output differs from render_records"]
        if "haar-gap" in argv:
            return self._check_haar_csv(out)
        report = json.loads(out)
        wrong = []
        if "gen-instance" in argv:
            if not (Path(argv[argv.index("--dir") + 1]) / "manifest.txt").is_file():
                wrong.append("no manifest written")
        elif sub in ("minus-sign", "real-search"):
            if report["correct"] is not True:
                wrong.append("answer not correct")
            if report["calls"] != [{"sample": 0, "query": 1, "query_norm": 0}] * self.C:
                wrong.append(f"calls {report['calls']}")
        elif sub == "sample-only":
            self.counts["sample_only_hits"] = self.counts.get("sample_only_hits", 0) + report["correct"]
            self.counts["sample_only_attempts"] = self.counts.get("sample_only_attempts", 0) + 1
            if report["calls"] != [{"sample": self.budget, "query": 0, "query_norm": 0}] * self.C:
                wrong.append(f"calls {report['calls']}")
        elif "sample-test" in argv:
            if report["pass"] is not True or report["p_value"] < P_VALUE_MIN or report["dof"] < 1:
                wrong.append(f"sampler test p={report['p_value']} dof={report['dof']}")
        elif "discriminate" in argv:
            if abs(report["schatten1_diff"] - self.disc_reference) > BOUND_TOL:
                wrong.append(f"schatten1 {report['schatten1_diff']!r} vs {self.disc_reference!r}")
        elif "sharp-p" in argv:
            if report["identity_ok"] is not True:
                wrong.append(f"identity off by {report['abs_diff']}")
        elif "encoding-demo" in argv:
            if report["product_successes"] != report["trials"]:
                wrong.append("product encoding missed")
            if abs(report["amplitude_single_copy_success"] - self.encoding_reference) > 1e-12:
                wrong.append("amplitude single-copy success off")
        return wrong

    def _check_haar_csv(self, out: str) -> list[str]:
        wrong = []
        for row in csv.DictReader(io.StringIO(out)):
            d, n = int(row["d"]), int(row["N"])
            gap, two, final = float(row["gap"]), float(row["bound_two_term"]), float(row["bound_final"])
            if row["error"]:
                wrong.append(f"d={d} N={n}: {row['error']}")
                continue
            if not (gap <= two + BOUND_TOL and two <= final + BOUND_TOL):
                wrong.append(f"d={d} N={n}: bound chain broken")
            if float(row["o_rest_min_eig"]) < -BOUND_TOL:
                wrong.append(f"d={d} N={n}: remainder not PSD")
            if (d, n) == (2, 2) and abs(gap - 1.0 / 3.0) > BOUND_TOL:
                wrong.append(f"gap(2,2)={gap!r}")
            if float(row["mc_max_dev"]) > 8.0 / math.sqrt(self.mc_samples):
                wrong.append(f"d={d} N={n}: mc_max_dev {row['mc_max_dev']}")
        return wrong

    def run_pass(self):
        failed = 0
        for k, (sub, argv) in enumerate(self.commands):
            with self.step(f"{k}:{sub}"):
                code, out = self.invoke(argv)
            if code != 0:
                self.counts["nonzero_exits"] = self.counts.get("nonzero_exits", 0) + 1
                wrong = [f"exit code {code}"]
            else:
                try:
                    wrong = self._check(argv, out)
                except (ValueError, KeyError, TypeError) as exc:
                    wrong = [f"unreadable output: {exc!r}"]
            if wrong:
                self.fail(f"{sub} {' '.join(argv[-4:])}: {'; '.join(wrong)}")
                failed += 1
        return len(self.commands), failed


WORKLOADS = {"bounds_grid": BoundsGrid, "sq_search": SqSearch, "cli_session": CliSession}
