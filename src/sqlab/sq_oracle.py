"""Sample-and-query (SQ) oracles over dense and implicit power-of-two-length vectors.

An SQ handle wraps a complex vector x of length d = 2^n and serves three
operations: Sample draws an index with probability |x_i|^2 / sum_j |x_j|^2,
Query returns a component exactly, and QueryN returns the 2-norm. Each
operation is gated behind an explicit capability set and counted exactly, so
experiments can account oracle cost separately from wall-clock time. A handle
is used from one thread at a time; its counters are plain integers.

Dense backings carry the running sums of the squared magnitudes, built on the
first Sample in O(d); a draw is the first running sum above a uniform point.
A batch of at least d/4 draws also builds a guide table over the sums, in
O(d) once, and finds each draw by stepping forward from the guide entry of
its point's bucket, O(1) steps expected; a smaller batch binary-searches the
sums for its points in sorted order. Backings that are only queried build
neither. Implicit backings evaluate components from a closed form in
O(poly n) without materializing 2^n entries: `ImplicitVector.component` is
the one definition of each implicit kind.

Indices are 1-based at the oracle boundary and 0-based internally.
"""

from __future__ import annotations

import enum
import functools
import math
import re
import sys
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

# Dense vectors read from files, real-search instances, minus-sign pure pairs and
# counts are capped at 2^DENSE_BUDGET_N entries; implicit vectors are never
# materialized.
DENSE_BUDGET_N = 24


# Entries per slice of the sampler's build and draws per slice of a batch: bounds
# their temporaries at a few MB whatever d or k.
_CHUNK = 1 << 16

# An estimated guide edge is within a bucket or two of the exact one.
_GUIDE_FIXUP_ROUNDS = 4

# Steps a batch walks forward from its guide entries; the few draws still
# walking are then binary-searched, so a crowded bucket costs O(log d) per draw.
_WALK_ROUNDS = 8

# A batch of k draws builds and walks the guide table only if d <= 4k: below
# that, its O(d) build costs more than sorting the batch's points saves.
_ENTRIES_PER_GUIDED_DRAW = 4


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
        sq = 0.0  # summed over slices of `_CHUNK`, as `cdf` squares them, so the temporaries stay small
        with np.errstate(over="ignore"):  # an overflow is reported below
            for start in range(0, arr.size, _CHUNK):
                part = arr[start : start + _CHUNK]
                sq += float(np.sum(part.real**2 + part.imag**2))
        if not math.isfinite(sq):
            raise ValueError(f"squared norm {sq} is not finite (non-finite or overflowing entries)")
        if sq == 0.0:
            raise ValueError("zero vector: sampling distribution undefined")
        if sq < np.finfo(np.float64).tiny:  # a subnormal total can round a draw's point onto it
            raise ValueError(f"squared norm {sq:.3g} is subnormal: too small to sample from")
        return cls(entries=arr, squared_norm=sq)

    @property
    def dim(self) -> int:
        return self.entries.size

    def norm(self) -> float:
        return math.sqrt(self.squared_norm)

    @functools.cached_property
    def cdf(self) -> np.ndarray:
        """Running sums of |x_i|^2, built on first use and shared by every handle.

        A draw is the first index whose running sum is above the draw's point;
        in a large batch `guide` says where to start looking. The weights are
        squared in slices of `_CHUNK`, so the build holds 8 B per entry plus
        one slice.
        """
        weights = np.empty(self.dim)
        for start in range(0, self.dim, _CHUNK):
            part = self.entries[start : start + _CHUNK]
            weights[start : start + _CHUNK] = part.real**2 + part.imag**2
        return np.cumsum(weights, out=weights)

    @functools.cached_property
    def guide(self) -> np.ndarray:
        """Guide table over `cdf`, built in O(d) by the first batch of at least d/4 draws and shared.

        With M = 2d buckets and edges e_j = (j/M)*cdf[-1] rounded as a draw
        rounds its point, `guide[j]` is #{i : cdf[i] <= e_j} for j = 0..M, as
        int32. Each running sum's first edge at or above it is estimated from
        the ratio (cdf/total)*M, which cannot overflow at a total near the
        smallest normal as cdf*(M/total) can, then fixed up against the edges
        themselves. The sums go through in slices of `_CHUNK`, so the build's
        temporaries stay small beside the table's 8 B per entry.
        """
        cdf = self.cdf
        total, buckets = cdf[-1], 2 * cdf.size
        width = 1.0 / buckets  # exact, so first * width is the exact j/M a draw's r is compared with
        guide = np.zeros(buckets + 1, dtype=np.int32)
        with np.errstate(under="ignore"):  # subnormal ratios and edges are fixed up like any other
            for start in range(0, cdf.size, _CHUNK):
                sums = cdf[start : start + _CHUNK]
                first = np.ceil(sums / total * buckets)  # whole numbers, held as floats
                for _ in range(_GUIDE_FIXUP_ROUNDS):
                    up = first * width * total < sums
                    down = (first - 1) * width * total >= sums
                    if not (up.any() or down.any()):
                        break
                    first += up
                    first -= down
                else:
                    raise RuntimeError(f"guide table edges did not settle in {_GUIDE_FIXUP_ROUNDS} rounds")
                # `first` is non-decreasing: the last sum on each edge sets that edge's count
                first = first.astype(np.intp)
                last = (first[1:] != first[:-1]).nonzero()[0]
                guide[first[last]] = start + last + 1
                guide[first[-1]] = start + first.size
        return np.maximum.accumulate(guide, out=guide)


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
            raise ValueError(f"unsupported implicit kind {quoted(self.kind)}")
        if not 1 <= self.n <= MAX_IMPLICIT_N:
            raise ValueError(f"n must be in [1, {MAX_IMPLICIT_N}], got {quoted(self.n)}")
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale!r}")
        if math.isinf(self.norm()):
            raise ValueError(f"the norm scale*sqrt(2^n) overflows at scale={self.scale!r}, n={self.n}")
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


def _invert(vec: DenseVector, k: int, rng: np.random.Generator) -> np.ndarray:
    """k 1-based draws, each `searchsorted(cdf, U(0,1)*cdf[-1], side="right") + 1` bit for bit.

    The uniforms come in slices of `_CHUNK`, which read the generator's stream
    exactly as one call would. A batch of fewer than d/4 draws runs that
    binary search itself, over each slice's points in sorted order; a larger
    one walks the guide table (`_walk`).
    """
    cdf = vec.cdf
    guide = vec.guide if k * _ENTRIES_PER_GUIDED_DRAW >= cdf.size else None
    out = np.empty(k, dtype=np.int64)
    for start in range(0, k, _CHUNK):
        r = rng.random(min(_CHUNK, k - start))
        u = r * cdf[-1]
        draws = out[start : start + r.size]
        if guide is None:  # sorted points keep each search near the last one's end, in cache
            order = np.argsort(u)
            draws[order] = np.searchsorted(cdf, u[order], side="right") + 1
        else:
            _walk(cdf, guide, r, u, draws)
    return out


def _walk(cdf: np.ndarray, guide: np.ndarray, r: np.ndarray, u: np.ndarray, draws: np.ndarray) -> None:
    """Writes the 1-based draws of the points u = r*cdf[-1] into `draws`, from the guide table.

    A uniform r lies in bucket j = floor(r*M), exact because M is a power of
    two. Rounding is monotone, so u lies between the edges e_j and e_{j+1},
    and the 0-based draw lies between guide[j] and guide[j+1]: it steps
    forward from guide[j] while cdf[i] <= u, and stops before d because
    u < cdf[-1].
    """
    i = guide[(r * (guide.size - 1)).astype(np.intp)]
    live = (cdf[i] <= u).nonzero()[0]  # draws that step past i
    draws[...] = i + 1
    for _ in range(_WALK_ROUNDS):
        if not live.size:
            return
        i = draws[live]  # 1-based, so cdf[i] is the next running sum
        draws[live] = i + 1
        live = live[cdf[i] <= u[live]]
    draws[live] = np.searchsorted(cdf, u[live], side="right") + 1


class SqHandle:
    """Capability-gated SQ oracle over a dense or implicit backing vector.

    The backing is immutable; only the call counters mutate. A handle is used
    from one thread at a time, so they are plain increments: no program path
    shares a handle between threads, and the sweep's thread pool runs Haar and
    copies cells, which build no handle.
    """

    def __init__(
        self,
        backing: DenseVector | ImplicitVector,
        capabilities: frozenset[Capability] = ALL_CAPABILITIES,
    ):
        self.backing = backing
        self.capabilities = frozenset(capabilities)
        self._sample_calls = 0
        self._query_calls = 0
        self._norm_calls = 0

    @property
    def dim(self) -> int:
        return self.backing.dim

    def _require(self, cap: Capability) -> None:
        if cap not in self.capabilities:
            raise CapabilityError(f"{cap.value} not in capability set")

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one 1-based index with probability |x_i|^2 / ||x||^2; the draw of `sample_many(1, rng)`."""
        return int(self.sample_many(1, rng)[0])

    def sample_many(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """Draw k indices at once; counts as k Sample calls.

        `check_count` refuses a k outside [0, 2^DENSE_BUDGET_N], the
        array-length budget, before anything is drawn or counted. A dense
        draw is the index i whose interval [cdf[i-1], cdf[i]) holds
        u = U(0,1)*cdf[-1]: a zero weight has an empty interval and is never
        drawn, and u < cdf[-1] because the total is not subnormal. A batch of
        at least d/4 points finds each by stepping forward from the
        guide-table entry of its bucket; a smaller one, `sample()` among
        them, binary-searches the running sums in sorted order (`_invert`).
        A batch holds the result's 8 B per draw plus one slice of `_CHUNK`
        draws.
        """
        self._require(Capability.SAMPLE)
        check_count("sample count", k, 0)
        if isinstance(self.backing, DenseVector):
            idx = _invert(self.backing, k, rng)
        else:
            # all implicit kinds have uniform squared magnitudes
            idx = rng.integers(1, self.dim + 1, size=k, dtype=np.int64)
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
        self._query_calls += 1
        return value

    def query_norm(self) -> float:
        """The 2-norm of the backing vector."""
        self._require(Capability.QUERY_NORM)
        value = self.backing.norm()
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
        return OracleStats(self._sample_calls, self._query_calls, self._norm_calls)


def build_dense(values: Sequence[complex] | np.ndarray) -> SqHandle:
    """Full-capability handle over an explicit vector; build cost is O(d)."""
    return SqHandle(DenseVector.from_values(values))


def build_implicit(spec: ImplicitVector) -> SqHandle:
    """Full-capability handle over an implicit vector; per-call cost O(poly n)."""
    return SqHandle(spec)


def content_lines(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """1-based `(lineno, tokens)` of each line that is not blank and not a comment.

    Every sqlab text format splits lines on whitespace, and a line whose first
    token starts with `#` is a comment.
    """
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if tokens and not tokens[0].startswith("#"):
            yield lineno, tokens


# Characters of an input line or token that a refusal quotes; the rest is elided.
_QUOTED_CHARS = 40


def quoted(value: str | int) -> str:
    """How a refusal quotes an input token or an integer parsed or computed from one.

    `repr(value)` when `str(value)` has at most `_QUOTED_CHARS` characters;
    otherwise the repr of its first `_QUOTED_CHARS` characters and its length.
    A long integer's text is cut arithmetically, never formed in full, because
    `str()` refuses integers past Python's integer-string digit limit.
    """
    if isinstance(value, int):
        sign, magnitude = "-" * (value < 0), abs(value)
        # a lower bound from bit_length, then exact: the least k with magnitude < 10^k
        digits = max(1, int((magnitude.bit_length() - 1) * math.log10(2)))
        while magnitude >= 10**digits:
            digits += 1
        length = len(sign) + digits
        if length > _QUOTED_CHARS:
            head = sign + str(magnitude // 10 ** (length - _QUOTED_CHARS))
            return f"{head!r}... ({length} characters)"
    text = str(value)
    if len(text) <= _QUOTED_CHARS:
        return repr(value)
    return f"{text[:_QUOTED_CHARS]!r}... ({len(text)} characters)"


# The integer literals `int()` accepts in base 10.
_INT_LITERAL = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def parse_int(token: str) -> int:
    """`int(token)`, refused in sqlab's words, also past Python's integer-string digit limit."""
    try:
        return int(token)
    except ValueError:
        if _INT_LITERAL.fullmatch(token):  # a well-formed literal is refused only for its length
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"integer {quoted(token)} is longer than {limit} digits") from None
        raise ValueError(f"expected an integer, got {quoted(token)}") from None


def check_count(name: str, value: int, low: int, high: int | None = 1 << DENSE_BUDGET_N) -> None:
    """Refuse a count `name` outside [low, high], a power of two, or below `low` when `high` is None.

    The one rule for counts; accepting costs two comparisons and builds no string.
    """
    if low <= value and (high is None or value <= high):
        return
    span = f"at least {low}" if high is None else f"in [{low}, 2^{high.bit_length() - 1}]"
    raise ValueError(f"{name} must be {span}, got {quoted(value)}")


def load_npy(path: str | Path, ndim: int, max_entries: int) -> np.ndarray:
    """The `ndim`-d numeric array in the `.npy` file at `path`, copied as complex128.

    A file that does not begin with the `.npy` magic string (text, a pickle or
    an `.npz` archive) is refused before numpy reads it. The array is
    memory-mapped, so its shape, dtype and size are checked from its header
    before any entry is read, and one of more than `max_entries` entries is
    never copied. A file that cannot be opened raises the OSError; every other
    refusal is a ValueError naming the file.
    """
    with open(path, "rb") as fh:
        if fh.read(len(np.lib.format.MAGIC_PREFIX)) != np.lib.format.MAGIC_PREFIX:
            raise ValueError(f"{path}: not a .npy file (it does not begin with the .npy magic string)")
    try:
        with np.errstate(over="ignore"):  # a shape whose product overflows is refused as a ValueError
            arr = np.load(path, mmap_mode="r", allow_pickle=False)
    except (EOFError, OverflowError, ValueError) as exc:
        raise ValueError(f"{path}: not a readable .npy array ({exc})") from exc
    if arr.ndim != ndim or arr.dtype.kind not in "iufc":
        raise ValueError(f"{path}: expected a {ndim}-d numeric array, got shape {arr.shape} of {arr.dtype}")
    if arr.size > max_entries:
        raise ValueError(f"{path}: {arr.size} entries exceed the cap of {max_entries}")
    return np.array(arr, dtype=np.complex128)
