"""Problem-instance generators for the three vector-search tasks.

Each instance holds C oracle handles, exactly one of which is distinguished:
a single flipped sign among unit-magnitude components (normalized or not), or
a real vector hidden among complex ones. The distinguished position k* is
kept private and reachable only through `verify_answer`, so solver code
cannot accidentally read the answer.

Generation is a pure function of (parameters, seed): every random stream is
derived from the seed through `numpy.random.SeedSequence` spawn keys, one
stream per vector, so instances are reproducible under parallel sweeps.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .sq_oracle import (
    DENSE_BUDGET_N,
    ImplicitVector,
    KIND_ALL_PLUS,
    KIND_MINUS_AT_INDEX,
    SqHandle,
    build_dense,
    build_implicit,
    content_lines,
    load_dense_vector,
    materialize,
)

__all__ = [
    "MINUS_SIGN",
    "ProblemInstance",
    "REAL_SEARCH",
    "UNNORMALIZED_MINUS",
    "dump_instance",
    "gen_minus_sign",
    "gen_real_vector_search",
    "gen_unnormalized_minus",
    "haar_unit_vector",
    "load_instance",
    "pairwise_distance_report",
]

MINUS_SIGN = "minus-sign"
REAL_SEARCH = "real-search"
UNNORMALIZED_MINUS = "unnormalized-minus"

_MANIFEST_NAME = "manifest.txt"


def haar_unit_vector(d: int, field: str, rng: np.random.Generator) -> np.ndarray:
    """Uniform unit vector via normalized Gaussians.

    Rotation invariance of the Gaussian makes the normalized draw exactly
    uniform on the sphere. Real samples are stored with imaginary parts that
    are exact zeros.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if field == "real":
        g = rng.standard_normal(d).astype(np.complex128)
    elif field == "complex":
        g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    else:
        raise ValueError(f"unknown field {field!r}")
    nrm = np.linalg.norm(g)
    if nrm == 0.0:  # probability zero, but fail loudly rather than divide
        raise RuntimeError("degenerate Gaussian draw")
    return g / nrm


class ProblemInstance:
    """C oracle handles with a hidden distinguished index k* in {1, ..., C}."""

    __slots__ = ("kind", "n", "num_vectors", "seed", "handles", "_k_star")

    def __init__(self, kind: str, n: int, seed: int, handles: tuple[SqHandle, ...], k_star: int):
        if kind not in (MINUS_SIGN, REAL_SEARCH, UNNORMALIZED_MINUS):
            raise ValueError(f"unknown instance kind {kind!r}")
        if len(handles) < 2:
            raise ValueError("an instance needs at least two vectors")
        if not 1 <= k_star <= len(handles):
            raise ValueError("k* out of range")
        self.kind = kind
        self.n = n
        self.num_vectors = len(handles)
        self.seed = seed
        self.handles = tuple(handles)
        self._k_star = k_star

    def verify_answer(self, k: int) -> bool:
        """True iff k is the distinguished index. Does not mutate the instance."""
        if not 1 <= k <= self.num_vectors:
            raise ValueError(f"answer {k} out of range [1, {self.num_vectors}]")
        return k == self._k_star

    def __repr__(self) -> str:  # never leaks k*
        return (
            f"ProblemInstance(kind={self.kind!r}, n={self.n}, "
            f"C={self.num_vectors}, seed={self.seed})"
        )


def _stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator keyed by (seed, *key)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _draw_k_star(seed: int, num_vectors: int) -> int:
    return int(_stream(seed, 0).integers(1, num_vectors + 1))


def _minus_family(kind: str, n: int, num_vectors: int, seed: int, normalized: bool) -> ProblemInstance:
    """k* has its first entry negated, the others are all-plus; entries are +-1/sqrt(d) or +-1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if num_vectors < 2:
        raise ValueError("need at least two vectors")
    k_star = _draw_k_star(seed, num_vectors)
    scale = 1.0 / math.sqrt(1 << n) if normalized else 1.0
    handles = tuple(
        build_implicit(
            ImplicitVector(kind=KIND_MINUS_AT_INDEX, n=n, scale=scale, minus_index=1)
            if j == k_star
            else ImplicitVector(kind=KIND_ALL_PLUS, n=n, scale=scale)
        )
        for j in range(1, num_vectors + 1)
    )
    return ProblemInstance(kind, n, seed, handles, k_star)


def gen_minus_sign(n: int, num_vectors: int, seed: int) -> ProblemInstance:
    """Normalized instance: k* is (-1/sqrt(d), 1/sqrt(d), ...), others all-plus."""
    return _minus_family(MINUS_SIGN, n, num_vectors, seed, normalized=True)


def gen_unnormalized_minus(n: int, num_vectors: int, seed: int) -> ProblemInstance:
    """Same layout as the normalized family but with entries +-1 (norm sqrt(d))."""
    return _minus_family(UNNORMALIZED_MINUS, n, num_vectors, seed, normalized=False)


def gen_real_vector_search(n: int, num_vectors: int, seed: int) -> ProblemInstance:
    """Haar instance: vector k* uniform on the real sphere, the rest complex."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > DENSE_BUDGET_N:
        raise ValueError(f"n={n} exceeds the dense materialization budget ({DENSE_BUDGET_N})")
    if num_vectors < 2:
        raise ValueError("need at least two vectors")
    k_star = _draw_k_star(seed, num_vectors)
    d = 1 << n
    handles = []
    for j in range(1, num_vectors + 1):
        field = "real" if j == k_star else "complex"
        handles.append(build_dense(haar_unit_vector(d, field, _stream(seed, 1, j))))
    return ProblemInstance(REAL_SEARCH, n, seed, tuple(handles), k_star)


_GENERATORS = {
    MINUS_SIGN: gen_minus_sign,
    REAL_SEARCH: gen_real_vector_search,
    UNNORMALIZED_MINUS: gen_unnormalized_minus,
}


def pairwise_distance_report(instance: ProblemInstance) -> list[float]:
    """All C(C-1)/2 Euclidean distances between the instance's vectors.

    Requires dense backings; for implicit families the distance has a closed
    form (only one component differs) and materializing 2^n entries to
    recompute it would defeat the point of the implicit representation.
    """
    vectors = []
    for handle in instance.handles:
        if isinstance(handle.backing, ImplicitVector):
            raise ValueError(
                "pairwise distances need dense backings; use the closed form "
                "2*scale for implicit minus-sign pairs"
            )
        vectors.append(handle.backing.entries)
    out = []
    for a in range(len(vectors)):
        for b in range(a + 1, len(vectors)):
            out.append(float(np.linalg.norm(vectors[a] - vectors[b])))
    return out


def _implicit_descriptor(vec: ImplicitVector) -> str:
    parts = [vec.kind, f"n={vec.n}", f"scale={vec.scale:.17g}"]
    if vec.minus_index is not None:
        parts.append(f"minus_index={vec.minus_index}")
    if vec.sign_mask is not None:
        parts.append(f"sign_mask={vec.sign_mask}")
    return " ".join(parts)


def _parse_implicit_descriptor(tokens: list[str]) -> ImplicitVector:
    kind = tokens[0]
    kwargs: dict = {}
    for tok in tokens[1:]:
        key, _, value = tok.partition("=")
        if key == "n":
            kwargs["n"] = int(value)
        elif key == "scale":
            kwargs["scale"] = float(value)
        elif key == "minus_index":
            kwargs["minus_index"] = int(value)
        elif key == "sign_mask":
            kwargs["sign_mask"] = int(value)
        else:
            raise ValueError(f"unknown implicit field {key!r}")
    return ImplicitVector(kind=kind, **kwargs)


def _manifest_int(token: str, where: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise ValueError(f"{where}: expected an integer, got {token!r}") from exc


def _load_npy_vector(path: Path) -> np.ndarray:
    """One dense vector from a `.npy` file; every malformed file is a ValueError naming it.

    The file is memory-mapped, so a header that claims more entries than the
    file holds is refused before anything of that size is allocated.
    """
    try:
        arr = np.load(path, mmap_mode="r", allow_pickle=False)
    except (EOFError, OSError, ValueError) as exc:
        raise ValueError(f"{path}: not a readable .npy array ({exc})") from exc
    if not isinstance(arr, np.ndarray):  # an .npz archive
        arr.close()
        raise ValueError(f"{path}: expected a single .npy array, got an archive")
    if arr.ndim != 1 or arr.dtype.kind not in "iufc":
        raise ValueError(f"{path}: expected a 1-d numeric array, got shape {arr.shape} of {arr.dtype}")
    return np.array(arr, dtype=np.complex128)


def _fresh(path: Path) -> Path:
    """`path` with any file there removed, so that writing it creates a new file.

    ext4 (`auto_da_alloc`) writes a file that was truncated and rewritten out
    to disk when it is closed. Rewriting an instance directory in place
    therefore waited on the disk: a median 0.22-0.34 s per pair of dumps
    (n=16 real-search and n=62 minus-sign, C=4) against 0.6 ms for new files.
    """
    path.unlink(missing_ok=True)
    return path


def dump_instance(instance: ProblemInstance, directory: str | Path, reveal: bool = False) -> None:
    """Write an instance to a directory: manifest plus one `.npy` file per dense vector.

    Dense vectors are written with `np.save`, which round-trips every bit.
    Implicit backings are recorded as closed-form descriptors in the manifest
    (their 2^n entries are never materialized). The answer index is written
    only when `reveal` is set, so scripted solvers cannot read it; loaders
    recover it deterministically from the recorded seed instead.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = [
        f"kind {instance.kind}",
        f"n {instance.n}",
        f"C {instance.num_vectors}",
        f"seed {instance.seed}",
    ]
    for j, handle in enumerate(instance.handles, start=1):
        if isinstance(handle.backing, ImplicitVector):
            lines.append(f"vector {j} implicit {_implicit_descriptor(handle.backing)}")
        else:
            fname = f"vector_{j}.npy"
            np.save(_fresh(directory / fname), handle.backing.entries, allow_pickle=False)
            lines.append(f"vector {j} npy {fname}")
    if reveal:
        lines.append(f"k_star {instance._k_star}")
    _fresh(directory / _MANIFEST_NAME).write_text("\n".join(lines) + "\n")


def load_instance(directory: str | Path) -> ProblemInstance:
    """Rebuild an instance from a dumped directory.

    Dense vectors are read from `npy` lines (`.npy` files) or from legacy
    `dense` lines (text files in the `load_dense_vector` format). Every vector
    must have dimension 2^n for the manifest's n. When the manifest does not
    reveal k*, the instance is regenerated from its (kind, n, C, seed) record
    to recover the answer, and the dumped data is checked against the
    regeneration so tampered dumps are rejected.
    """
    directory = Path(directory)
    manifest = directory / _MANIFEST_NAME
    kind = None
    numbers: dict[str, int] = {}
    vector_specs: dict[int, tuple[str, list[str]]] = {}
    for lineno, (key, *values) in content_lines(manifest.read_text().splitlines()):
        where = f"{manifest}:{lineno}"
        if key == "vector":
            if len(values) < 3:
                raise ValueError(f"{where}: expected `vector <j> <backing> <file or descriptor>`")
            j = _manifest_int(values[0], where)
            if j in vector_specs:
                raise ValueError(f"{where}: vector {j} given twice")
            vector_specs[j] = (values[1], values[2:])
        elif key not in ("kind", "n", "C", "seed", "k_star"):
            raise ValueError(f"{where}: unknown manifest key {key!r}")
        elif len(values) != 1:
            raise ValueError(f"{where}: expected `{key} <value>`, got {' '.join([key, *values])!r}")
        elif key in numbers or (key == "kind" and kind is not None):
            raise ValueError(f"{where}: {key} given twice")
        elif key == "kind":
            if values[0] not in _GENERATORS:
                raise ValueError(f"{where}: unknown instance kind {values[0]!r}")
            kind = values[0]
        else:
            numbers[key] = _manifest_int(values[0], where)
    if kind is None or any(key not in numbers for key in ("n", "C", "seed")):
        raise ValueError(f"{manifest}: incomplete manifest")
    n, num_vectors, seed = numbers["n"], numbers["C"], numbers["seed"]
    k_star = numbers.get("k_star")
    if n < 1:
        raise ValueError(f"{manifest}: n must be at least 1, got {n}")
    if sorted(vector_specs) != list(range(1, num_vectors + 1)):
        raise ValueError(f"{manifest}: expected vectors 1..{num_vectors}")

    handles = []
    for j in range(1, num_vectors + 1):
        backing_kind, rest = vector_specs[j]
        if backing_kind == "implicit":
            try:
                spec = _parse_implicit_descriptor(rest)
            except (TypeError, ValueError) as exc:  # TypeError: a required field is missing
                raise ValueError(f"{manifest}: vector {j}: {exc}") from exc
            if spec.n != n:
                raise ValueError(f"{manifest}: vector {j} has n={spec.n}, the manifest n={n}")
            handles.append(build_implicit(spec))
        elif backing_kind in ("npy", "dense"):  # `dense` is the legacy text format
            path = directory / rest[0]
            entries = _load_npy_vector(path) if backing_kind == "npy" else load_dense_vector(path)
            if entries.size != 1 << n:
                raise ValueError(f"{path}: {entries.size} entries, the manifest's n={n} needs {1 << n}")
            handles.append(build_dense(entries))
        else:
            raise ValueError(f"{manifest}: unknown backing {backing_kind!r}")

    if k_star is None:
        regenerated = _GENERATORS[kind](n, num_vectors, seed)
        for loaded, regen in zip(handles, regenerated.handles):
            if isinstance(loaded.backing, ImplicitVector):
                if loaded.backing != regen.backing:
                    raise ValueError("dumped instance does not match its seed")
            else:
                if not np.array_equal(loaded.backing.entries, materialize(regen)):
                    raise ValueError("dumped instance does not match its seed")
        k_star = regenerated._k_star
    return ProblemInstance(kind, n, seed, tuple(handles), k_star)
