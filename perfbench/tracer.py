"""In-memory span tracer that wraps sqlab's public functions from outside.

`Tracer.install()` replaces, for the duration of a traced phase:
  * every plain function listed in the `__all__` of each sqlab layer module,
    wherever a sqlab module bound it (module attributes and names taken in
    with `from ... import`);
  * the oracle methods of `SqHandle` and the `DensityOperator` constructors;
  * the eigen routines of `numpy.linalg`.
`uninstall()` puts the originals back, so untraced passes run the program
exactly as shipped.

A span records its name, layer, start and end (ns), the index of its parent
span and the pass it belongs to (-1 for set-up). Work counts derived from the
arguments (entries built, draws, flops from matrix orders) ride on the span.
Calls are assumed to come from one thread, as every workload drives sqlab
from a single caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import weakref
from collections import Counter
from pathlib import Path

import numpy as np

from metrics import CLI_SUBCOMMANDS, LAYERS

_EIGEN_FUNCTIONS = ("eigvalsh", "eigh", "eigvals", "eig")
_HANDLE_METHODS = ("sample", "sample_many", "query", "query_norm", "restrict", "stats")
_DENSITY_CONSTRUCTORS = ("from_pure", "from_matrix")

# Computed flop counts per matrix order n (Golub & Van Loan): eigenvalues of a
# symmetric matrix cost about 4n^3/3, adding eigenvectors about 9n^3, and the
# nonsymmetric QR algorithm about 10n^3 (25n^3 with vectors). A complex
# multiply-add costs four real ones.
_EIG_FLOP_FACTOR = {"eigvalsh": 4.0 / 3.0, "eigh": 9.0, "eigvals": 10.0, "eig": 25.0}

NAME, LAYER, START, END, PARENT, PASS, COUNTS = range(7)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _eig_counts(fname):
    def count(args, kwargs, result):
        a = np.asarray(_arg(args, kwargs, 0, "a"))
        n = a.shape[-1]
        batch = a.size // (n * n) if n else 0
        flops = _EIG_FLOP_FACTOR[fname] * n**3 * batch * (4 if np.iscomplexobj(a) else 1)
        return {"flops": flops, "bytes": a.nbytes}

    return count


def _dir_bytes(args, kwargs, result):
    directory = Path(_arg(args, kwargs, 1, "directory"))
    return {"bytes": sum(p.stat().st_size for p in directory.iterdir() if p.is_file())}


def _solve_counts(args, kwargs, result):
    return {"queries": result.total_calls().query_calls}


# span name -> work counts taken from (args, kwargs, result)
_COUNTS = {
    "sq_oracle.build_dense": lambda a, k, r: {"entries": len(_arg(a, k, 0, "values"))},
    "sq_oracle.SqHandle.sample_many": lambda a, k, r: {"draws": int(_arg(a, k, 1, "k"))},
    "instances.dump_instance": _dir_bytes,
    "learners.solve_minus_sign": _solve_counts,
    "learners.solve_real_search": _solve_counts,
    "circuit_bridge.build_psi_u": lambda a, k, r: {"gate_apps": 2 * len(a[0].gates) + 1},
    "circuit_bridge.run_statevector": lambda a, k, r: {"gate_apps": len(a[0].gates)},
    **{f"numpy_linalg.{f}": _eig_counts(f) for f in _EIGEN_FUNCTIONS},
}


def _cli_label(args, kwargs):
    argv = list(_arg(args, kwargs, 0, "argv") or [])
    sub = next((a for a in argv if a in CLI_SUBCOMMANDS), "unknown")
    return f"cli.main[{sub}]"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.pass_id = -1
        self.oracle_calls = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []  # (owner, attribute, original)
        self._new_handles: list = []
        self._seen_calls: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._modules = [importlib.import_module(f"sqlab.{m}") for m in LAYERS]
        self._sq = self._modules[0]
        self._original_stats = self._sq.SqHandle.stats

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name, layer, label=None):
        count = _COUNTS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [label(args, kwargs) if label else name, layer, 0, 0,
                   stack[-1] if stack else -1, self.pass_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                rec[COUNTS] = count(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            return
        wrapped = {}
        for layer, mod in zip(LAYERS, self._modules):
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    label = _cli_label if (layer, name) == ("cli", "main") else None
                    wrapped[fn] = self._wrap(fn, f"{layer}.{name}", layer, label)
        package = importlib.import_module("sqlab")
        for mod in [package, *self._modules]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(mod, attr, wrapped[value])

        handle_cls = self._sq.SqHandle
        for meth in _HANDLE_METHODS:
            fn = handle_cls.__dict__[meth]
            self._patch(handle_cls, meth, self._wrap(fn, f"sq_oracle.SqHandle.{meth}", "sq_oracle"))
        self._patch(handle_cls, "__init__", self._registering_init(handle_cls.__dict__["__init__"]))

        density_cls = importlib.import_module("sqlab.quantum_sim").DensityOperator
        for meth in _DENSITY_CONSTRUCTORS:
            fn = density_cls.__dict__[meth].__func__
            name = f"quantum_sim.DensityOperator.{meth}"
            self._patch(density_cls, meth, classmethod(self._wrap(fn, name, "quantum_sim")))

        for fname in _EIGEN_FUNCTIONS:
            fn = getattr(np.linalg, fname)
            self._patch(np.linalg, fname, self._wrap(fn, f"numpy_linalg.{fname}", "numpy_linalg"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _registering_init(self, init):
        @functools.wraps(init)
        def registering(handle, *args, **kwargs):
            init(handle, *args, **kwargs)
            self._new_handles.append(handle)

        return registering

    # -- oracle call accounting --------------------------------------------

    def harvest_oracle_calls(self, count: bool) -> None:
        """Fold the calls served since the last harvest, read from `stats()`.

        Handles created since the last harvest are held until now so that
        short-lived ones (inside one CLI command) are not missed.
        """
        handles = {id(h): h for h in self._new_handles}
        handles.update((id(h), h) for h in list(self._seen_calls.keys()))
        for h in handles.values():
            total = self._original_stats(h).total()
            if count:
                self.oracle_calls += total - self._seen_calls.get(h, 0)
            self._seen_calls[h] = total
        self._new_handles.clear()

    # -- output ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write('["name","layer","start_ns","end_ns","parent","pass","counts"]\n')
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def self_times(spans: list[list]) -> list[int]:
    """Duration of each span minus the time covered by its child spans."""
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def _has_ancestor(spans, rec, name) -> bool:
    parent = rec[PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def _owning_layer(spans, rec) -> str | None:
    parent = rec[PARENT]
    while parent >= 0:
        if spans[parent][LAYER] != "numpy_linalg":
            return spans[parent][LAYER]
        parent = spans[parent][PARENT]
    return None


def layer_metrics(tracer: Tracer, passes: int, traced_wall_s: float, counts: dict) -> dict:
    """Every per-layer metric of metrics.PER_LAYER except cli.import_s and trace.overhead_s.

    `traced_wall_s` is the summed wall time of the traced passes; `counts`
    holds the workload's own tallies (sample-only hits and attempts, nonzero
    CLI exits). Per-call means use every span, set-up included; per-pass
    figures use the traced passes only.
    """
    spans = tracer.spans
    own = self_times(spans)
    passes = max(passes, 1)
    calls, total_ns, work = Counter(), Counter(), Counter()  # all spans
    pass_ns, pass_work, layer_self = Counter(), Counter(), Counter()  # traced passes only
    top_level_ns = batched_draw_ns = batched_draws = 0

    for i, rec in enumerate(spans):
        name, dur = rec[NAME], rec[END] - rec[START]
        calls[name] += 1
        total_ns[name] += dur
        for key, value in (rec[COUNTS] or {}).items():
            work[f"{name}:{key}"] += value
        if name == "sq_oracle.SqHandle.sample_many" and not _has_ancestor(
            spans, rec, "sq_oracle.SqHandle.sample"
        ):
            batched_draw_ns += dur
            batched_draws += rec[COUNTS]["draws"]
        if rec[PASS] < 0:
            continue
        pass_ns[name] += dur
        layer_self[rec[LAYER]] += own[i]
        if rec[PARENT] < 0:
            top_level_ns += dur
        for key, value in (rec[COUNTS] or {}).items():
            pass_work[f"{name}:{key}"] += value
        if rec[LAYER] == "numpy_linalg":
            owner = _owning_layer(spans, rec)
            for key, value in rec[COUNTS].items():
                pass_work[f"{owner}:eig_{key}"] += value
            if _has_ancestor(spans, rec, "haar_moments.real_moment"):
                pass_ns["eig_under_real_moment"] += dur
        if name in ("haar_moments.trace_norm_gap", "experiments.run_sweep"):
            pass_ns[f"{name}:self"] += own[i]

    def per_pass_s(*names):
        return sum(pass_ns[n] for n in names) / passes / 1e9

    def per_call(names, scale):
        n = sum(calls[x] for x in names)
        return sum(total_ns[x] for x in names) / n / scale if n else 0.0

    query_solvers = ("learners.solve_minus_sign", "learners.solve_real_search")
    solves = sum(calls[x] for x in query_solvers)
    circuit = ("circuit_bridge.build_psi_u", "circuit_bridge.run_statevector")
    circuit_ns = sum(total_ns[x] for x in circuit)
    built = work["sq_oracle.build_dense:entries"]
    attempts = counts.get("sample_only_attempts", 0)
    wall_ns = traced_wall_s * 1e9

    out = {
        "sq_oracle.build_ns_per_entry": total_ns["sq_oracle.build_dense"] / built if built else 0.0,
        "sq_oracle.draw_ns": batched_draw_ns / batched_draws if batched_draws else 0.0,
        "sq_oracle.sample_call_us": per_call(["sq_oracle.SqHandle.sample"], 1e3),
        "sq_oracle.query_ns": per_call(["sq_oracle.SqHandle.query"], 1.0),
        "sq_oracle.oracle_calls": tracer.oracle_calls / passes,
        # the prefix tree holds 2d float64 nodes
        "sq_oracle.tree_bytes_computed": 16 * pass_work["sq_oracle.build_dense:entries"] / passes,
        "instances.gen_real_s": per_call(["instances.gen_real_vector_search"], 1e9),
        "instances.dump_s": per_call(["instances.dump_instance"], 1e9),
        "instances.load_s": per_call(["instances.load_instance"], 1e9),
        "instances.bytes_written": pass_work["instances.dump_instance:bytes"] / passes,
        "learners.solve_query_us": per_call(query_solvers, 1e3),
        "learners.solve_sample_only_ms": per_call(["learners.solve_sample_only"], 1e6),
        "learners.queries_per_solve": (
            sum(work[f"{x}:queries"] for x in query_solvers) / solves if solves else 0.0
        ),
        "learners.sample_only_hit_rate": counts.get("sample_only_hits", 0) / attempts if attempts else 0.0,
        "quantum_sim.ncopy_dense_s": per_pass_s("quantum_sim.ncopy_minus_sign_tracenorm_dense"),
        "quantum_sim.density_op_s": per_pass_s(
            *(f"quantum_sim.DensityOperator.{m}" for m in _DENSITY_CONSTRUCTORS)
        ),
        "quantum_sim.schatten1_s": per_pass_s("quantum_sim.schatten1_diff"),
        "quantum_sim.simulate_s": per_pass_s("quantum_sim.simulate_discrimination"),
        "quantum_sim.eig_flops_computed": pass_work["quantum_sim:eig_flops"] / passes,
        "haar_moments.sym_basis_s": per_pass_s("haar_moments.sym_basis"),
        "haar_moments.real_moment_s": per_pass_s("haar_moments.real_moment"),
        "haar_moments.eigensolve_s": per_pass_s("eig_under_real_moment"),
        "haar_moments.gap_self_s": per_pass_s("haar_moments.trace_norm_gap:self"),
        "haar_moments.mc_moment_s": per_pass_s("haar_moments.mc_moment"),
        "haar_moments.eig_flops_computed": pass_work["haar_moments:eig_flops"] / passes,
        "haar_moments.matrix_bytes_computed": pass_work["haar_moments:eig_bytes"] / passes,
        "circuit_bridge.build_psi_u_s": per_call(["circuit_bridge.build_psi_u"], 1e9),
        "circuit_bridge.run_statevector_s": per_call(["circuit_bridge.run_statevector"], 1e9),
        "circuit_bridge.gate_apps_per_s": (
            sum(work[f"{x}:gate_apps"] for x in circuit) / (circuit_ns / 1e9) if circuit_ns else 0.0
        ),
        "experiments.run_sweep_self_s": per_pass_s("experiments.run_sweep:self"),
        "experiments.render_s": per_pass_s("experiments.render_records"),
        "experiments.chi_square_ms": per_call(["experiments.chi_square_gof"], 1e6),
        "cli.nonzero_exits": counts.get("nonzero_exits", 0) / passes,
        "trace.spans_per_pass": sum(1 for rec in spans if rec[PASS] >= 0) / passes,
    }
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub.replace('-', '_')}_s"] = per_call([f"cli.main[{sub}]"], 1e9)
    for layer in LAYERS + ("numpy_linalg",):
        out[f"self_share.{layer}"] = layer_self[layer] / wall_ns if wall_ns else 0.0
    out["self_share.outside"] = (wall_ns - top_level_ns) / wall_ns if wall_ns else 0.0
    return out
