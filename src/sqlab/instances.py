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
    DenseVector,
    ImplicitVector,
    KIND_ALL_PLUS,
    KIND_MINUS_AT_INDEX,
    MAX_IMPLICIT_N,
    SqHandle,
    build_dense,
    build_implicit,
    check_count,
    content_lines,
    load_npy,
    parse_int,
    quoted,
)

__all__ = [
    "KINDS",
    "MAX_VECTORS",
    "MINUS_SIGN",
    "ProblemInstance",
    "REAL_SEARCH",
    "UNNORMALIZED_MINUS",
    "dump_instance",
    "gen_minus_sign",
    "gen_real_vector_search",
    "gen_unnormalized_minus",
    "generate",
    "haar_unit_vector",
    "load_instance",
]

MINUS_SIGN = "minus-sign"
REAL_SEARCH = "real-search"
UNNORMALIZED_MINUS = "unnormalized-minus"
KINDS = (MINUS_SIGN, REAL_SEARCH, UNNORMALIZED_MINUS)

# At most this many vectors per instance (C), checked before any handle is built.
MAX_VECTORS = 1 << 16
# At most 2^_REAL_SEARCH_ENTRIES_N dense entries (C * 2^n) per real-search instance:
# 1 GiB of complex128, which loading an unrevealed dump holds twice for its tamper check.
_REAL_SEARCH_ENTRIES_N = 26

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
        # all real parts are drawn before all imaginary parts: the instance bytes depend on it
        g = np.empty(d, dtype=np.complex128)
        g.real = rng.standard_normal(d)
        g.imag = rng.standard_normal(d)
    else:
        raise ValueError(f"unknown field {field!r}")
    # numpy's pairwise sum, not a BLAS dot: the instance bytes do not depend on the BLAS thread count
    nrm = np.sqrt(np.square(g.view(np.float64)).sum())
    if nrm == 0.0:  # probability zero, but fail loudly rather than divide
        raise RuntimeError("degenerate Gaussian draw")
    g /= nrm
    return g


class ProblemInstance:
    """C oracle handles with a hidden distinguished index k* in {1, ..., C}."""

    __slots__ = ("kind", "n", "num_vectors", "seed", "handles", "_k_star")

    def __init__(self, kind: str, n: int, seed: int, handles: tuple[SqHandle, ...], k_star: int):
        if kind not in KINDS:
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


def keyed_stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator keyed by (seed, *key); sweeps key their cells with it too."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _draw_k_star(seed: int, num_vectors: int) -> int:
    return int(keyed_stream(seed, 0).integers(1, num_vectors + 1))


def _minus_family(kind: str, n: int, num_vectors: int, seed: int, normalized: bool) -> ProblemInstance:
    """k* has its first entry negated, the others are all-plus; entries are +-1/sqrt(d) or +-1.

    n is refused outside `ImplicitVector`'s range before 2^n is formed for the scale.
    """
    if not 1 <= n <= MAX_IMPLICIT_N:
        raise ValueError(f"n must be in [1, {MAX_IMPLICIT_N}], got {quoted(n)}")
    check_count("C", num_vectors, 2, MAX_VECTORS)
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


def _check_dense_caps(n: int, num_dense: int) -> None:
    """Refuse `num_dense` dense vectors of 2^n entries past the dense budget or the entry cap.

    The generator and the loader both check this before any vector exists.
    """
    if n > DENSE_BUDGET_N:
        raise ValueError(f"n={quoted(n)} exceeds the dense materialization budget ({DENSE_BUDGET_N})")
    if num_dense << n > 1 << _REAL_SEARCH_ENTRIES_N:
        raise ValueError(
            f"C*2^n = {num_dense << n} entries exceed the real-search cap (2^{_REAL_SEARCH_ENTRIES_N})"
        )


def gen_real_vector_search(n: int, num_vectors: int, seed: int) -> ProblemInstance:
    """Haar instance: vector k* uniform on the real sphere, the rest complex."""
    if n < 1:
        raise ValueError("n must be at least 1")
    check_count("C", num_vectors, 2, MAX_VECTORS)
    _check_dense_caps(n, num_vectors)
    k_star = _draw_k_star(seed, num_vectors)
    d = 1 << n
    handles = []
    for j in range(1, num_vectors + 1):
        field = "real" if j == k_star else "complex"
        handles.append(build_dense(haar_unit_vector(d, field, keyed_stream(seed, 1, j))))
    return ProblemInstance(REAL_SEARCH, n, seed, tuple(handles), k_star)


def generate(kind: str, n: int, num_vectors: int, seed: int) -> ProblemInstance:
    """The instance of `kind` (one of `KINDS`) with 2^n-dimensional vectors, C of them, for `seed`."""
    if kind == MINUS_SIGN:
        return gen_minus_sign(n, num_vectors, seed)
    if kind == REAL_SEARCH:
        return gen_real_vector_search(n, num_vectors, seed)
    if kind == UNNORMALIZED_MINUS:
        return gen_unnormalized_minus(n, num_vectors, seed)
    raise ValueError(f"unknown instance kind {quoted(kind)}")


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
        if key in ("n", "minus_index", "sign_mask"):
            kwargs[key] = parse_int(value)
        elif key == "scale":
            try:
                kwargs["scale"] = float(value)
            except ValueError:  # float()'s message quotes the whole token
                raise ValueError(f"expected a number, got {quoted(value)}") from None
        else:
            raise ValueError(f"unknown implicit field {quoted(key)}")
    return ImplicitVector(kind=kind, **kwargs)


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

    Dense vectors are read from `npy` lines (`.npy` files). Every vector
    must have dimension 2^n for the manifest's n; a longer one is refused
    from its file's header, before any entry is read. When the manifest does
    not reveal k*, the instance is regenerated from its (kind, n, C, seed)
    record to recover the answer, and the dumped data is checked against the
    regeneration so tampered dumps are rejected: dense entries bit for bit,
    implicit vectors by descriptor. An `npy` line where the seed gives an
    implicit vector is a mismatch, as an `implicit` line for a dense one is.
    """
    directory = Path(directory)
    manifest = directory / _MANIFEST_NAME
    kind = None
    numbers: dict[str, int] = {}
    vector_specs: dict[int, tuple[str, list[str]]] = {}
    try:
        text = manifest.read_text()
    except ValueError as exc:  # bytes that do not decode as text
        raise ValueError(f"{manifest}: {exc}") from None
    for lineno, (key, *values) in content_lines(text.splitlines()):
        try:
            if key == "vector":
                if len(values) < 3:
                    raise ValueError("expected `vector <j> <backing> <file or descriptor>`")
                j = parse_int(values[0])
                if j in vector_specs:
                    raise ValueError(f"vector {quoted(j)} given twice")
                vector_specs[j] = (values[1], values[2:])
            elif key not in ("kind", "n", "C", "seed", "k_star"):
                raise ValueError(f"unknown manifest key {quoted(key)}")
            elif len(values) != 1:
                raise ValueError(f"expected `{key} <value>`, got {quoted(' '.join([key, *values]))}")
            elif key in numbers or (key == "kind" and kind is not None):
                raise ValueError(f"{key} given twice")
            elif key == "kind":
                if values[0] not in KINDS:
                    raise ValueError(f"unknown instance kind {quoted(values[0])}")
                kind = values[0]
            else:
                numbers[key] = parse_int(values[0])
        except ValueError as exc:
            raise ValueError(f"{manifest}:{lineno}: {exc}") from None
    if kind is None or any(key not in numbers for key in ("n", "C", "seed")):
        raise ValueError(f"{manifest}: incomplete manifest")
    n, num_vectors, seed = numbers["n"], numbers["C"], numbers["seed"]
    k_star = numbers.get("k_star")
    if not 1 <= n <= MAX_IMPLICIT_N:
        raise ValueError(f"{manifest}: n must be in [1, {MAX_IMPLICIT_N}], got {quoted(n)}")
    num_dense = sum(backing == "npy" for backing, _ in vector_specs.values())
    try:
        check_count("C", num_vectors, 2, MAX_VECTORS)
        check_count("seed", seed, 0, None)
        if k_star is not None and not 1 <= k_star <= num_vectors:  # its cap is C, not a power of two
            raise ValueError(f"k_star must be in [1, C={num_vectors}], got {quoted(k_star)}")
        if num_dense:
            _check_dense_caps(n, num_dense)
    except ValueError as exc:
        raise ValueError(f"{manifest}: {exc}") from None
    if len(vector_specs) != num_vectors or sorted(vector_specs) != list(range(1, num_vectors + 1)):
        raise ValueError(f"{manifest}: expected vectors 1..{quoted(num_vectors)}")

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
        elif backing_kind == "npy":
            path = directory / rest[0]
            try:
                entries = load_npy(path, 1, 1 << n)
            except OSError as exc:  # its message repeats the file name, which may be any length
                raise ValueError(f"{manifest}: vector {j}: {quoted(rest[0])}: {exc.strerror}") from None
            if entries.size != 1 << n:
                raise ValueError(f"{path}: {entries.size} entries, the manifest's n={n} needs {1 << n}")
            try:
                handles.append(build_dense(entries))
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
        else:
            raise ValueError(f"{manifest}: unknown backing {quoted(backing_kind)}")

    if k_star is None:
        regenerated = generate(kind, n, num_vectors, seed)
        for loaded, regen in zip(handles, regenerated.handles):
            if isinstance(loaded.backing, DenseVector) and isinstance(regen.backing, DenseVector):
                same = np.array_equal(loaded.backing.entries, regen.backing.entries)
            else:  # an implicit vector matches only its own descriptor, never an `npy` line
                same = loaded.backing == regen.backing
            if not same:
                raise ValueError(f"{manifest}: dumped instance does not match its seed")
        k_star = regenerated._k_star
    return ProblemInstance(kind, n, seed, tuple(handles), k_star)
