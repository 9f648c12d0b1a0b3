"""Sample-and-query (SQ) oracles over dense and implicit power-of-two-length vectors.

An SQ handle wraps a complex vector x of length d = 2^n and serves three
operations: Sample draws an index with probability |x_i|^2 / sum_j |x_j|^2,
Query returns a component exactly, and QueryN returns the 2-norm. Each
operation is gated behind an explicit capability set and counted exactly, so
experiments can account oracle cost separately from wall-clock time.

Dense backings carry a binary prefix-sum tree over the squared magnitudes,
built on the first Sample in O(d) and giving O(log d) sampling after that;
backings that are only queried never build it. Implicit backings evaluate
components from a closed form in O(poly n) without materializing 2^n entries.

Indices are 1-based at the oracle boundary and 0-based internally.
"""

from __future__ import annotations

import enum
import functools
import math
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "ALL_CAPABILITIES",
    "Capability",
    "CapabilityError",
    "DENSE_BUDGET_N",
    "DenseVector",
    "ImplicitVector",
    "KIND_ALL_PLUS",
    "KIND_MINUS_AT_INDEX",
    "KIND_SIGN_PRODUCT",
    "OracleStats",
    "SqHandle",
    "build_dense",
    "build_implicit",
    "load_dense_vector",
    "materialize",
]


class Capability(enum.Enum):
    """The three oracle operations a handle may expose."""

    SAMPLE = "sample"
    QUERY = "query"
    QUERY_NORM = "query-norm"


ALL_CAPABILITIES = frozenset(Capability)

KIND_ALL_PLUS = "all-plus"
KIND_MINUS_AT_INDEX = "minus-at-index"
KIND_SIGN_PRODUCT = "sign-pattern-product"
_IMPLICIT_KINDS = (KIND_ALL_PLUS, KIND_MINUS_AT_INDEX, KIND_SIGN_PRODUCT)

# Implicit index arithmetic must stay within exact int64 range.
MAX_IMPLICIT_N = 62

# Implicit vectors, real-search instances and minus-sign pure pairs are
# materialized with at most 2^DENSE_BUDGET_N entries.
DENSE_BUDGET_N = 24


class CapabilityError(Exception):
    """An operation was requested that the handle's capability set does not allow."""


@dataclass(frozen=True)
class OracleStats:
    """Exact counts of successfully served oracle calls."""

    sample_calls: int = 0
    query_calls: int = 0
    norm_calls: int = 0

    def __add__(self, other: "OracleStats") -> "OracleStats":
        return OracleStats(
            self.sample_calls + other.sample_calls,
            self.query_calls + other.query_calls,
            self.norm_calls + other.norm_calls,
        )

    def __sub__(self, other: "OracleStats") -> "OracleStats":
        return OracleStats(
            self.sample_calls - other.sample_calls,
            self.query_calls - other.query_calls,
            self.norm_calls - other.norm_calls,
        )

    def total(self) -> int:
        return self.sample_calls + self.query_calls + self.norm_calls


class _PrefixSumTree:
    """Flat binary tree of cumulative weights; leaves hold |x_i|^2.

    Layout is the classic implicit heap: node i has children 2i and 2i+1,
    leaves occupy arr[m:2m]. Sampling descends from the root, so one draw
    costs log2(d) comparisons. A single draw walks the heap in scalars;
    batched draws vectorize the descent.
    """

    def __init__(self, weights: np.ndarray):
        m = len(weights)  # 2^n: the tree is only built from a DenseVector's entries
        arr = np.zeros(2 * m, dtype=np.float64)
        arr[m:] = weights
        size = m
        while size > 1:
            half = size // 2
            level = arr[size : 2 * size]
            arr[half:size] = level[0::2] + level[1::2]
            size = half
        self.arr = arr
        self.m = m
        self.depth = m.bit_length() - 1

    @property
    def leaf_weights(self) -> np.ndarray:
        return self.arr[self.m :]

    def draw(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """Draw k leaf positions (0-based) proportional to leaf weight."""
        u = rng.random(k) * self.arr[1]
        idx = np.ones(k, dtype=np.int64)
        for _ in range(self.depth):
            idx <<= 1
            left = self.arr[idx]
            go_right = u >= left
            u -= np.where(go_right, left, 0.0)
            idx += go_right
        leaf = idx - self.m
        # subtraction roundoff can, at boundary values of u, land on a
        # zero-weight leaf; those draws are invalid and are redrawn
        bad = self.arr[idx] == 0.0
        if np.any(bad):
            leaf[bad] = self.draw(int(np.count_nonzero(bad)), rng)
        return leaf

    def draw_one(self, rng: np.random.Generator) -> int:
        """One leaf position (0-based), drawn exactly as `draw(1, rng)` draws it."""
        arr = self.arr
        while True:
            u = rng.random() * arr[1]
            idx = 1
            for _ in range(self.depth):
                idx <<= 1
                left = arr[idx]
                if u >= left:
                    u -= left
                    idx += 1
            if arr[idx] != 0.0:  # a zero-weight leaf is redrawn, as in `draw`
                return idx - self.m


@dataclass(frozen=True)
class DenseVector:
    """Explicitly stored complex vector with its squared 2-norm cached."""

    entries: np.ndarray
    squared_norm: float

    @classmethod
    def from_values(cls, values: Sequence[complex] | np.ndarray) -> "DenseVector":
        arr = np.asarray(values, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("dense vector must be a nonempty 1-d sequence")
        if arr.size & (arr.size - 1):
            raise ValueError(f"length {arr.size} is not a power of two")
        with np.errstate(over="ignore"):  # an overflow is reported below
            sq = float(np.sum(arr.real**2 + arr.imag**2))
        if not math.isfinite(sq):
            raise ValueError(f"squared norm {sq} is not finite (non-finite or overflowing entries)")
        if sq == 0.0:
            raise ValueError("zero vector: sampling distribution undefined")
        return cls(entries=arr, squared_norm=sq)

    @property
    def dim(self) -> int:
        return self.entries.size

    @property
    def n(self) -> int:
        return self.dim.bit_length() - 1

    def norm(self) -> float:
        return math.sqrt(self.squared_norm)

    @functools.cached_property
    def prefix_tree(self) -> _PrefixSumTree:
        """Sampling tree over |x_i|^2, built on first use and shared by every handle."""
        return _PrefixSumTree(self.entries.real**2 + self.entries.imag**2)


@dataclass(frozen=True)
class ImplicitVector:
    """Closed-form vector over 2^n indices, evaluated per component in O(poly n).

    Kinds:
      all-plus              x_i = scale for every i
      minus-at-index        x_i = -scale at one 1-based index, scale elsewhere
      sign-pattern-product  x_i = scale * (-1)^popcount((i-1) & sign_mask)

    All three kinds have constant magnitude, so the induced sampling
    distribution is uniform over {1, ..., 2^n}.
    """

    kind: str
    n: int
    scale: float
    minus_index: int | None = None
    sign_mask: int | None = None

    def __post_init__(self):
        if self.kind not in _IMPLICIT_KINDS:
            raise ValueError(f"unsupported implicit kind {self.kind!r}")
        if not 1 <= self.n <= MAX_IMPLICIT_N:
            raise ValueError(f"n must be in [1, {MAX_IMPLICIT_N}], got {self.n}")
        if not self.scale > 0:
            raise ValueError("scale must be positive")
        if self.kind == KIND_MINUS_AT_INDEX:
            if self.minus_index is None or not 1 <= self.minus_index <= self.dim:
                raise ValueError("minus-at-index requires a valid 1-based index")
        if self.kind == KIND_SIGN_PRODUCT:
            if self.sign_mask is None or not 0 <= self.sign_mask < self.dim:
                raise ValueError("sign-pattern-product requires a mask below 2^n")

    @property
    def dim(self) -> int:
        return 1 << self.n

    def component(self, i: int) -> complex:
        """Exact value of x_i for a 1-based index i."""
        if self.kind == KIND_ALL_PLUS:
            return complex(self.scale)
        if self.kind == KIND_MINUS_AT_INDEX:
            return complex(-self.scale if i == self.minus_index else self.scale)
        parity = ((i - 1) & self.sign_mask).bit_count() & 1
        return complex(-self.scale if parity else self.scale)

    def norm(self) -> float:
        # every component has magnitude `scale`
        return self.scale * math.sqrt(self.dim)


class SqHandle:
    """Capability-gated SQ oracle over a dense or implicit backing vector.

    The backing is immutable; only the call counters mutate, and they do so
    under a lock so concurrent use from several threads stays exact.
    """

    def __init__(
        self,
        backing: DenseVector | ImplicitVector,
        capabilities: frozenset[Capability] = ALL_CAPABILITIES,
    ):
        self.backing = backing
        self.capabilities = frozenset(capabilities)
        self._lock = threading.Lock()
        self._sample_calls = 0
        self._query_calls = 0
        self._norm_calls = 0

    @property
    def dim(self) -> int:
        return self.backing.dim

    @property
    def n(self) -> int:
        return self.dim.bit_length() - 1

    def _require(self, cap: Capability) -> None:
        if cap not in self.capabilities:
            raise CapabilityError(f"{cap.value} not in capability set")

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one 1-based index with probability |x_i|^2 / ||x||^2.

        Consumes `rng` exactly as `sample_many(1, rng)` does and returns its draw.
        """
        self._require(Capability.SAMPLE)
        if isinstance(self.backing, DenseVector):
            idx = self.backing.prefix_tree.draw_one(rng) + 1
        else:
            idx = int(rng.integers(1, self.dim + 1, dtype=np.int64))
        with self._lock:
            self._sample_calls += 1
        return idx

    def sample_many(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """Draw k indices at once; counts as k Sample calls."""
        self._require(Capability.SAMPLE)
        if k < 0:
            raise ValueError("sample count must be nonnegative")
        if isinstance(self.backing, DenseVector):
            idx = self.backing.prefix_tree.draw(k, rng) + 1
        else:
            # all implicit kinds have uniform squared magnitudes
            idx = rng.integers(1, self.dim + 1, size=k, dtype=np.int64)
        with self._lock:
            self._sample_calls += k
        return idx

    def query(self, i: int) -> complex:
        """Exact component x_i for a 1-based index i."""
        self._require(Capability.QUERY)
        if not 1 <= i <= self.dim:
            raise ValueError(f"index {i} out of range [1, {self.dim}]")
        if isinstance(self.backing, DenseVector):
            value = complex(self.backing.entries[i - 1])
        else:
            value = self.backing.component(i)
        with self._lock:
            self._query_calls += 1
        return value

    def query_norm(self) -> float:
        """The 2-norm of the backing vector."""
        self._require(Capability.QUERY_NORM)
        value = self.backing.norm()
        with self._lock:
            self._norm_calls += 1
        return value

    def restrict(self, capabilities: Iterable[Capability]) -> "SqHandle":
        """New handle over the same backing, gated to a capability subset.

        Counters of the child start at zero and are independent of the parent.
        """
        requested = frozenset(capabilities)
        missing = requested - self.capabilities
        if missing:
            names = ", ".join(sorted(c.value for c in missing))
            raise CapabilityError(f"cannot grant capabilities not held: {names}")
        return SqHandle(self.backing, requested)

    def stats(self) -> OracleStats:
        with self._lock:
            return OracleStats(self._sample_calls, self._query_calls, self._norm_calls)


def build_dense(values: Sequence[complex] | np.ndarray) -> SqHandle:
    """Full-capability handle over an explicit vector; build cost is O(d)."""
    return SqHandle(DenseVector.from_values(values))


def build_implicit(spec: ImplicitVector) -> SqHandle:
    """Full-capability handle over an implicit vector; per-call cost O(poly n)."""
    return SqHandle(spec)


def materialize(backing: DenseVector | ImplicitVector | SqHandle) -> np.ndarray:
    """Dense copy of a vector; refuses implicit backings larger than 2^DENSE_BUDGET_N."""
    if isinstance(backing, SqHandle):
        backing = backing.backing
    if isinstance(backing, DenseVector):
        return backing.entries.copy()
    if backing.n > DENSE_BUDGET_N:
        raise ValueError(f"refusing to materialize 2^{backing.n} entries (max_n={DENSE_BUDGET_N})")
    d = backing.dim
    out = np.full(d, backing.scale, dtype=np.complex128)
    if backing.kind == KIND_MINUS_AT_INDEX:
        out[backing.minus_index - 1] = -backing.scale
    elif backing.kind == KIND_SIGN_PRODUCT:
        masked = np.arange(d, dtype=np.uint64) & np.uint64(backing.sign_mask)
        parity = np.bitwise_count(masked) & 1
        out[parity == 1] *= -1
    return out


def content_lines(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """1-based `(lineno, tokens)` of each line that is not blank and not a comment.

    Every sqlab text format splits lines on whitespace, and a line whose first
    token starts with `#` is a comment.
    """
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if tokens and not tokens[0].startswith("#"):
            yield lineno, tokens


def load_dense_vector(path: str | Path) -> np.ndarray:
    """Parse the dense vector text format: one `<re> <im>` pair per content line."""
    values = []
    with open(path) as fh:
        for lineno, tokens in content_lines(fh):
            try:
                re_part, im_part = map(float, tokens)  # a wrong count is a ValueError too
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected `<re> <im>`, got {' '.join(tokens)!r}") from None
            values.append(complex(re_part, im_part))
    if not values:
        raise ValueError(f"{path}: no components found")
    return np.asarray(values, dtype=np.complex128)
