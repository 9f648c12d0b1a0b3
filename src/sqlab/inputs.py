"""Input rules: how sqlab reads its files and flags, and how it refuses them.

A served input is parsed here, and a refused one is one `ValueError` of one
short line that quotes the input in bounded length (`quoted`) and names its
source (`refusals_from`). This module imports no other sqlab module.
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "DENSE_BUDGET_N",
    "check_count",
    "content_lines",
    "load_npy",
    "open_npy",
    "parse_float",
    "parse_int",
    "quoted",
    "read_text",
    "refusals_from",
]

# Dense vectors read from files, real-search instances, minus-sign pure pairs and
# counts are capped at 2^DENSE_BUDGET_N entries; implicit vectors are never
# materialized.
DENSE_BUDGET_N = 24


class refusals_from:
    """Context that re-raises a ValueError as `<source>: <message>`, formatting the source only then.

    The source is `name`, or, once a loop sets `line` (`for at.line, tokens in content_lines(...)`),
    `name:<line>`, or `line <line>` for a text with no name; a served line costs one attribute store.
    """

    def __init__(self, name: str | Path | None = None):
        self.name, self.line = name, None

    def __enter__(self) -> "refusals_from":
        return self

    def __exit__(self, kind, exc, traceback) -> None:
        if kind is not None and issubclass(kind, ValueError):
            where = self.name
            if self.line is not None:
                where = f"line {self.line}" if self.name is None else f"{self.name}:{self.line}"
            raise ValueError(f"{where}: {exc}") from None


def read_text(path: str | Path) -> str:
    """The text of the file at `path`; bytes that do not decode are refused with the file's name."""
    with refusals_from(path):
        return Path(path).read_text()


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


def parse_float(token: str) -> float:
    """`float(token)`, refused in sqlab's words."""
    try:
        return float(token)
    except ValueError:  # float()'s message quotes the whole token
        raise ValueError(f"expected a number, got {quoted(token)}") from None


def check_count(name: str, value: int, low: int, high: int | None = 1 << DENSE_BUDGET_N) -> None:
    """Refuse a count `name` outside [low, high], a power of two, or below `low` when `high` is None.

    The one rule for counts; accepting costs two comparisons and builds no string.
    """
    if low <= value and (high is None or value <= high):
        return
    span = f"at least {low}" if high is None else f"in [{low}, 2^{high.bit_length() - 1}]"
    raise ValueError(f"{name} must be {span}, got {quoted(value)}")


def open_npy(path: str | Path, ndim: int, max_entries: int) -> np.ndarray:
    """The `ndim`-d numeric array in the `.npy` file at `path`, as a checked read-only memory map.

    A file that does not begin with the `.npy` magic string (text, a pickle or
    an `.npz` archive) is refused before numpy reads it. The shape, dtype and
    size are checked from the header, and no entry is read, so one of more
    than `max_entries` entries is never copied. A file that cannot be opened
    raises the OSError; every other refusal is a ValueError naming the file.
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
    return arr


def load_npy(path: str | Path, ndim: int, max_entries: int) -> np.ndarray:
    """The array `open_npy` maps, copied as complex128 once its header has passed every check."""
    return np.array(open_npy(path, ndim, max_entries), dtype=np.complex128)
