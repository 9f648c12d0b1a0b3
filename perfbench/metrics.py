"""Names, units and directions of every metric the benchmark reports.

`END_TO_END` metrics come from an untraced run (`--trace 0`); `PER_LAYER`
metrics come from a separate traced run (`--trace 1`). Each per-layer entry
names the end-to-end metric (at a workload) it is expected to move, so a
later change on one layer can say in advance which number should change.

Conventions for per-layer values:
  * `_s` times of haar_moments, quantum_sim and experiments are seconds per
    traced pass (sum of span durations divided by the number of passes);
  * instances, circuit_bridge and cli times, and every `_us` / `_ns` / `_ms`
    time, are means per call over all traced spans, set-up included;
  * `cli.import_s` comes from separate interpreter starts, not from spans;
  * `_computed` counts are derived from array shapes, not measured;
  * a layer the workload never calls reports 0.
"""

from __future__ import annotations

WORKLOADS = {
    "bounds_grid": "paper's bound checks: dense eigensolves in haar_moments and the N-copy cross-check dominate",
    "sq_search": "oracle reads and the constant-query solvers; haar_moments and quantum_sim do no work",
    "cli_session": "a user's sqlab command sequence through the CLI entry point: instance I/O, oracle builds, circuit simulation",
}

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

CLI_SUBCOMMANDS = (
    "gen-instance",
    "solve",
    "sample-test",
    "discriminate",
    "copies-sweep",
    "sharp-p",
    "encoding-demo",
    "haar-gap",
)

LAYERS = (
    "sq_oracle",
    "instances",
    "learners",
    "quantum_sim",
    "haar_moments",
    "circuit_bridge",
    "experiments",
    "cli",
)

# name -> (unit, better, end-to-end metrics it should move)
PER_LAYER = {
    "sq_oracle.build_ns_per_entry": ("ns", "lower", "wall_s@cli_session setup_s@sq_search"),
    "sq_oracle.draw_ns": ("ns", "lower", "ops_per_s@sq_search"),
    "sq_oracle.sample_call_us": ("us", "lower", "wall_s@sq_search"),
    "sq_oracle.query_ns": ("ns", "lower", "ops_per_s@sq_search"),
    "sq_oracle.oracle_calls": ("count", "lower", "none: the paper's cost model, must not move"),
    "sq_oracle.tree_bytes_computed": ("B", "lower", "peak_rss_mb@cli_session"),
    "instances.gen_real_s": ("s", "lower", "wall_s@cli_session setup_s@sq_search"),
    "instances.dump_s": ("s", "lower", "wall_s@cli_session"),
    "instances.load_s": ("s", "lower", "wall_s@cli_session"),
    "instances.bytes_written": ("B", "lower", "wall_s@cli_session"),
    "learners.solve_query_us": ("us", "lower", "wall_s@sq_search"),
    "learners.solve_sample_only_ms": ("ms", "lower", "wall_s@sq_search"),
    "learners.queries_per_solve": ("count", "lower", "none: equals C"),
    "learners.sample_only_hit_rate": ("fraction", "lower", "none: must stay at chance 1/C"),
    "quantum_sim.ncopy_dense_s": ("s", "lower", "wall_s@bounds_grid"),
    "quantum_sim.density_op_s": ("s", "lower", "wall_s@cli_session"),
    "quantum_sim.schatten1_s": ("s", "lower", "wall_s@cli_session"),
    "quantum_sim.simulate_s": ("s", "lower", "wall_s@cli_session"),
    "quantum_sim.eig_flops_computed": ("flop", "lower", "wall_s@bounds_grid"),
    "haar_moments.sym_basis_s": ("s", "lower", "wall_s@bounds_grid"),
    "haar_moments.real_moment_s": ("s", "lower", "wall_s@bounds_grid"),
    "haar_moments.eigensolve_s": ("s", "lower", "wall_s@bounds_grid"),
    "haar_moments.gap_self_s": ("s", "lower", "wall_s@bounds_grid"),
    "haar_moments.mc_moment_s": ("s", "lower", "wall_s@bounds_grid"),
    "haar_moments.eig_flops_computed": ("flop", "lower", "wall_s@bounds_grid"),
    "haar_moments.matrix_bytes_computed": ("B", "lower", "wall_s@bounds_grid peak_rss_mb@bounds_grid"),
    "circuit_bridge.build_psi_u_s": ("s", "lower", "wall_s@cli_session"),
    "circuit_bridge.run_statevector_s": ("s", "lower", "wall_s@cli_session"),
    "circuit_bridge.gate_apps_per_s": ("1/s", "higher", "wall_s@cli_session"),
    "experiments.run_sweep_self_s": ("s", "lower", "wall_s@all"),
    "experiments.render_s": ("s", "lower", "wall_s@all"),
    "experiments.chi_square_ms": ("ms", "lower", "wall_s@all"),
    "cli.import_s": ("s", "lower", "setup_s@all"),
    **{
        f"cli.{sub.replace('-', '_')}_s": ("s", "lower", "wall_s@cli_session")
        for sub in CLI_SUBCOMMANDS
    },
    "cli.nonzero_exits": ("count", "lower", "none: failures of cli_session"),
    **{
        f"self_share.{layer}": ("fraction", "lower", "shows where wall_s goes")
        for layer in LAYERS + ("numpy_linalg", "outside")
    },
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall_s per pass"),
    "trace.spans_per_pass": ("count", "lower", "none: size of the trace"),
}
