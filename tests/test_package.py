"""Package surface: every name a module lists in `__all__` exists and is reachable.

Tracing tools wrap the functions listed there by looking each name up, so a
stale entry breaks them even when no import in the package fails. A listed
name, function, class or method that no program file uses is code that
nothing runs but the tests.

The entry points (`sqlab.cli.main` and each script's `main`) share one
refusal rule: a `ValueError` or an `OSError` is one `error:` line and exit 1.
Numeric array files are read in one place, `sq_oracle.load_npy`, and every
integer flag whose range does not depend on other inputs declares it with
`cli._count`. An SQ handle is used from one thread at a time, so only the
sweep's pool, which builds no handle, may start threads or processes.
Per-layer timings come from one script into one file: `scripts/bench_layers.py`
writes `BENCH_layers.json`, one section per layer.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sqlab

ROOT = Path(__file__).resolve().parents[1]
_MODULES = sorted(info.name for info in pkgutil.iter_modules(sqlab.__path__))

# Definitions in src/ that no program file uses by name, each with why it stays.
_UNUSED = {
    "quantum_sim.DensityOperator.from_pure": "only the tests call it, and perfbench's tracer patches it by name",
    "sq_oracle.SqHandle.query_norm": "the QueryN operation of the SQ access model",
}


def _used_names() -> set[str]:
    """Every name read, imported or reached as an attribute in src/, scripts/ and perfbench/.

    Definitions (`def`, `class`, assignment targets) and the strings of
    `__all__` are not uses.
    """
    used = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    used.update(alias.name for alias in node.names)
    return used


def test_every_module_is_found():
    assert {"circuit_bridge", "cli", "quantum_sim", "sq_oracle"} <= set(_MODULES)


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"sqlab.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def _definitions() -> dict[str, str]:
    """Each top-level function and class and each non-dunder method in src/sqlab/, by qualified name.

    The value is the bare name that a use reads.
    """
    found = {}
    for path in sorted((ROOT / "src" / "sqlab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found[f"{path.stem}.{node.name}"] = node.name
            for method in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("__"):
                    found[f"{path.stem}.{node.name}.{method.name}"] = method.name
    return found


def test_every_exported_name_is_used_outside_its_definition():
    used = _used_names()
    exported = {n for m in _MODULES for n in importlib.import_module(f"sqlab.{m}").__all__}
    assert sorted(exported - used) == []


def test_every_function_class_and_method_is_used_outside_its_definition():
    used = _used_names()
    unused = {qualname for qualname, name in _definitions().items() if name not in used}
    assert sorted(unused - set(_UNUSED)) == []
    assert sorted(set(_UNUSED) - unused) == []  # the allowlist names only unused definitions


# numpy's file readers; sqlab reads every numeric array file through `sq_oracle.load_npy`
_NUMPY_READERS = ("load", "loadtxt", "genfromtxt", "fromfile", "memmap")


def test_numpy_files_are_read_in_one_place():
    calls = []
    for path in sorted((ROOT / "src" / "sqlab").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {
            id(n): f"{path.stem}.{top.name}"
            for top in tree.body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef))
            for n in ast.walk(top)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in {f"np.{r}" for r in _NUMPY_READERS}:
                calls.append((owner.get(id(node), path.stem), ast.unparse(node.func)))
    assert calls == [("sq_oracle.load_npy", "np.load")]


def test_one_bench_script_writes_the_one_bench_file():
    """A new per-layer number is a new section of `bench_layers.py`, not a new script or file."""
    scripts = sorted(p.name for p in (ROOT / "scripts").glob("bench_*.py"))
    files = sorted(p.name for p in ROOT.glob("BENCH_*.json"))
    assert (len(scripts), len(files)) == (1, 1), (scripts, files)
    calls = [n for n in ast.walk(ast.parse((ROOT / "scripts" / scripts[0]).read_text())) if isinstance(n, ast.Call)]
    out_defaults = [
        ast.literal_eval(k.value)
        for call in calls
        if ast.unparse(call.func).endswith("add_argument") and ast.literal_eval(call.args[0]) == "--out"
        for k in call.keywords
        if k.arg == "default"
    ]
    assert out_defaults == files


_ENTRY_POINTS = ["src/sqlab/cli.py", *sorted(f"scripts/{p.name}" for p in (ROOT / "scripts").glob("*.py"))]


@pytest.mark.parametrize("path", _ENTRY_POINTS)
def test_every_entry_point_refuses_exactly_oserror_and_valueerror(path):
    tree = ast.parse((ROOT / path).read_text())
    (main,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
    handlers = [n for n in ast.walk(main) if isinstance(n, ast.ExceptHandler)]
    assert handlers, "main catches nothing"
    for handler in handlers:
        caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        assert sorted(ast.unparse(t) for t in caught) == ["OSError", "ValueError"]
    # parsing, checking --out and writing happen inside the try, so their refusals reach the handler
    guarded = {id(n) for t in ast.walk(main) if isinstance(t, ast.Try) for s in t.body for n in ast.walk(s)}
    for node in ast.walk(main):
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in (
            "parse_args", "mkdir", "_check_out", "_write_out"
        ):
            assert id(node) in guarded, f"{ast.unparse(node)} is outside the try"


# Exception classes that are not ValueError, each with why no entry point refuses it as input.
_NOT_REFUSALS = {
    "CapabilityError": "no CLI path can raise it: every restricted handle is used only within its capabilities",
    "BudgetExceededError": "becomes a per-cell `budget-exceeded` record",
    "BoundViolationError": "becomes a `bound-violation` record and exit 2",
}


def test_every_exception_class_is_a_valueerror_or_says_why_not():
    found = {}
    for name in _MODULES:
        module = importlib.import_module(f"sqlab.{name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__:
                found[obj.__name__] = obj
    others = {n for n, cls in found.items() if not issubclass(cls, ValueError)}
    assert sorted(others - set(_NOT_REFUSALS)) == []
    assert sorted(set(_NOT_REFUSALS) - others) == []  # the allowlist names only such classes


# Program files that may import a thread or process module, each with why no SQ handle crosses threads.
_CONCURRENT = {
    "src/sqlab/experiments.py": "`run_sweep`'s thread pool runs Haar and copies cells, which build no handle",
}
_CONCURRENCY_MODULES = ("threading", "concurrent", "multiprocessing")


def test_only_the_sweep_pool_imports_threads_or_processes():
    """An `SqHandle`'s counters are plain increments: no program file may share one between threads."""
    importers = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    modules = [node.module]
                else:
                    continue
                if any(module.split(".")[0] in _CONCURRENCY_MODULES for module in modules):
                    importers.add(path.relative_to(ROOT).as_posix())
    assert sorted(importers - set(_CONCURRENT)) == []
    assert sorted(set(_CONCURRENT) - importers) == []  # the allowlist names only such files


# Integer flags that are not counts with a fixed range (`cli._count`), each with why its range is checked elsewhere.
_INT_FLAGS = {
    "cli.py sample-test --n": "`ImplicitVector` refuses n outside [1, 62] before any draw",
    "cli.py gen-instance --n": "its cap depends on the kind: 62 for the implicit kinds, 24 for real-search",
    "cli.py discriminate --d": "capped jointly with --copies, on d^(2N), by `minus_sign_product_vectors`",
    "cli.py discriminate --copies": "capped jointly with --d, on d^(2N), by `minus_sign_product_vectors`",
    "cli.py encoding-demo --n": "`amplitude_single_copy_success` refuses n < 1 before any trial and serves every n >= 1",
    "run_copies_scaling.py --d": "a list of d, checked per cell",
    "run_haar_gap_grid.py --d": "a list of d, checked per cell",
    "run_haar_gap_grid.py --N": "a list of N, checked per cell",
    "run_separation_demo.py --n": "its cap depends on the kind, and each generator checks it",
}


def test_every_integer_flag_declares_its_range_or_says_why_not():
    """Each `add_argument(..., type=_int)` is in `_INT_FLAGS`; a new count flag must use `_count`."""
    int_flags = set()
    for path in _ENTRY_POINTS:
        calls = [n for n in ast.walk(ast.parse((ROOT / path).read_text())) if isinstance(n, ast.Call)]
        subcommand = ""
        for call in sorted(calls, key=lambda n: (n.lineno, n.col_offset)):
            method = ast.unparse(call.func).split(".")[-1]
            if method == "add_parser":
                subcommand = f" {call.args[0].value}"
            types = [ast.unparse(k.value) for k in call.keywords if k.arg == "type"]
            if method == "add_argument" and types == ["_int"]:
                int_flags.add(f"{Path(path).name}{subcommand} {call.args[0].value}")
    assert sorted(int_flags - set(_INT_FLAGS)) == []
    assert sorted(set(_INT_FLAGS) - int_flags) == []  # the allowlist names only such flags
