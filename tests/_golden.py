"""The golden-output corpus: every `sqlab` subcommand and every script, with its recorded exit code and output hash.

Each entry of `CORPUS` holds a name, an argv, the expected exit code and the
sha256 of what the command printed on stdout followed by every file it wrote
(`_digest`). An argv that starts with `sqlab` goes to `sqlab.cli.main`; one
that starts with a file name under `scripts/` runs that script's `main` with
the rest as its arguments. The entries run in this process, in order, in one
scratch directory that holds the seeded fixture files of `_write_fixtures`, so
every path in an argv is relative and an entry may read what an earlier one
wrote.

Wall-clock fields are the only bytes left out of a hash, and `_stable` is the
one place that lists them.

Run from the root of the checkout as

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src python tests/_golden.py

It prints one JSON object that maps each entry's name to its [exit code,
sha256]; `test_golden.py` runs it so and compares the result with the table.
A change that alters an output on purpose re-records the entry from that
object and says so.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np

from _fixtures import random_circuit, random_density_operator
from sqlab import cli

ROOT = Path(__file__).resolve().parents[1]


class Golden(NamedTuple):
    name: str
    argv: str  # split on whitespace
    code: int
    sha256: str


CORPUS = [
    # the benchmark's cli_session commands, at its full sizes
    Golden("gen-instance real-search", "sqlab --seed 1 gen-instance --kind real-search --n 16 --C 4 --dir rs", 0,
           "eec5d0bf5ae32a92039180f7b3434b2af2a4071bdb7fc49e031c8dc579f92151"),
    Golden("gen-instance minus-sign", "sqlab --seed 1 gen-instance --kind minus-sign --n 62 --C 4 --dir ms", 0,
           "b89eccd321d5e583fed07c7fcf14b5d189cb8919ef68e25c5fac1e17113e51b0"),
    Golden("solve minus-sign", "sqlab solve minus-sign --instance ms", 0,
           "46a0c8ac847d745363354860b5026ecf7ff3afc5cba8840832612b416785352e"),
    Golden("solve real-search", "sqlab solve real-search --instance rs", 0,
           "1442596da162b71e7aa2f5d564fc0a328a35e8f2fd75ef76db7e65548f1d3210"),
    Golden("solve sample-only", "sqlab --seed 1 solve sample-only --instance ms --budget 10000", 0,
           "08310a775449b9f2ab46ac100f5ea76d18951e7579c841876802af35e27ea628"),
    Golden("sample-test dim", "sqlab --seed 1 sample-test --dim 4096", 0,
           "7b83d8b8e180d42a57dc25ca40b9bc18fcc79feb11efee3d1135fdc21626fbea"),
    Golden("discriminate family", "sqlab --seed 1 discriminate --family minus-sign --d 4 --copies 2", 0,
           "54f5ffab3fcf2f284b5847cceeace41ba81617d893d60432a3bea090d0129331"),
    Golden("copies-sweep", "sqlab copies-sweep --d 64,128,256,512,1024,2048,4096", 0,
           "878a5e089cc2a7fe12aaa5c32d264a6f5ff3b761862e8de840791d83c58a165e"),
    Golden("sharp-p", "sqlab sharp-p --circuit circuit.txt", 0,
           "f25425ac1aaf0d069f2caa88b1478795d209d1035a360343ff0f03732aa554fb"),
    Golden("encoding-demo", "sqlab --seed 1 encoding-demo --n 10 --trials 1000", 0,
           "38f2f773f25186e20d9a8c66eaee02b06dc8cc8592d46a88282e5270060477f0"),
    Golden("haar-gap session", "sqlab --seed 1 haar-gap --d 2,4,8 --N 1,2,3 --mc-samples 2000", 0,
           "196130530f421f756c826ccbeb2d48ee8fb33df3926696ffd35a635a889cc53e"),
    # acceptance criterion 9's two sweeps
    Golden("haar-gap criterion 9", "sqlab --seed 9 haar-gap --d 2,4,8 --N 1,2 --mc-samples 20000", 0,
           "ad8ec028d9dbfe2bd37753b471b89b47d9c66b333fd4f47ea6f16d99d113e6c1"),
    Golden("copies-sweep criterion 9", "sqlab --seed 9 --format json-lines copies-sweep --d 64,256,1024", 0,
           "e9852def6f35ce1631de5acd9a88c2bba585434f58f93007c820f36aab01c572"),
    # large admitted Haar cells; (17,4), (22,4), (9,6) and (7,8) print other bytes under two BLAS threads
    Golden("haar-gap 16,4", "sqlab haar-gap --d 16 --N 4", 0,
           "bc713fbd34f05a067f887be86f6d7e591e027ca232eaf1538d1ffd2d39660cd3"),
    Golden("haar-gap 17,4", "sqlab haar-gap --d 17 --N 4", 0,
           "4cbfcdd5de51b3a96949c00157df36fd6b27e87aba951858d72c6aa0ed107b2b"),
    Golden("haar-gap 22,4", "sqlab haar-gap --d 22 --N 4", 0,
           "fc282492ddb40d5f2eeafe8a09321c9c8b18b8244486580e44eb5f14f61d1a15"),
    Golden("haar-gap 9,6", "sqlab haar-gap --d 9 --N 6", 0,
           "c953224f42f5f5f6e055e7553a60bd015ca5fef062f566073f30eb99d7592b60"),
    Golden("haar-gap 7,8", "sqlab haar-gap --d 7 --N 8", 0,
           "006be0231db490143e068ff64deeda49a8d6791cecfc4729cde93861525a55fe"),
    Golden("haar-gap 199,2", "sqlab haar-gap --d 199 --N 2", 0,
           "e85bd77509c0fdb1e87bc0068b47ae2617137dc58c54b73befd2adc0a7cdcdc4"),
    Golden("haar-gap budget record", "sqlab haar-gap --d 1,64 --N 4,9", 0,
           "275a9eb8dbb47088bac85445abe186d97e5514887162908ddb5f3a68c2c88460"),
    Golden("haar-gap to a file", "sqlab --out gap.jsonl --format json-lines haar-gap --d 1,3 --N 1,2", 0,
           "1802ae7fea93778be1425e08a1b5f90f6b905969a2b9a3c7c7c7bd3fe326e6bc"),
    Golden("haar-gap refused", "sqlab haar-gap --d 0 --N 1", 1,
           "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # the other sources and solvers
    Golden("gen-instance unnormalized-minus",
           "sqlab --seed 2 gen-instance --kind unnormalized-minus --n 12 --C 3 --dir um --reveal", 0,
           "56b857bb73b0f15f654dc5fae43f056a5fbc8e358a5f33d04ae55dabb85e7454"),
    Golden("solve unnormalized-minus", "sqlab solve minus-sign --instance um", 0,
           "33e0748556c439fd4b554e0f7192f2cc4c2dd516c26cb3be8e232e391cf248bd"),
    Golden("sample-test n", "sqlab --seed 3 sample-test --n 20 --draws 20000", 0,
           "34c635c3cb7b0f420703b56fc2a8242941d5761df85f780f28d9abbc68e34f95"),
    Golden("sample-test vector", "sqlab --seed 4 sample-test --vector vector.npy --draws 20000", 0,
           "81f4ce1194e19d8a8c67af13ea3537cd00774f950d87eb236b095cb2a5115814"),
    Golden("discriminate files", "sqlab --seed 5 discriminate --a a.npy --b b.npy --trials 2000", 0,
           "a9967369b807c1a3c72734e05ca00a7dbb23cba4eb0b1ed879fbaef2bc9c8154"),
    # the scripts at their defaults; bench_layers.py prints timings, so only its refusal is recorded
    Golden("run_haar_gap_grid.py", "run_haar_gap_grid.py", 0,
           "a149b9e7e4feef3ed5da809968e4257c3229faeb3d107a4db76dc8f4564f11e9"),
    Golden("run_copies_scaling.py", "run_copies_scaling.py", 0,
           "9197953e71b2e08578dd875b120423ca307932b7f1d0a24d861f3e90b4a29db3"),
    Golden("run_separation_demo.py", "run_separation_demo.py", 0,
           "ec648c63a4869743d54ac03d50173f97aa07bae9314d6f12fa5a19d89cb9fb38"),
    Golden("bench_layers.py refused", "bench_layers.py --out .", 1,
           "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]

_CLOCK_TEXT = re.compile(rb"elapsed=[0-9.]+us")


def _stable(data: bytes) -> bytes:
    """`data` without its wall-clock fields.

    These are `elapsed_ns` in a line that holds one JSON object (`solve` and
    `sharp-p`), and its text form `elapsed=<us>us` (run_separation_demo.py).
    """
    lines = data.split(b"\n")
    for k, line in enumerate(lines):
        if line.startswith(b"{"):
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and "elapsed_ns" in record:
                del record["elapsed_ns"]
                lines[k] = json.dumps(record, separators=(",", ":")).encode()
    return _CLOCK_TEXT.sub(b"elapsed=", b"\n".join(lines))


def _digest(stdout: bytes, written: dict[str, bytes]) -> str:
    h = hashlib.sha256(_stable(stdout))
    for path in sorted(written):
        h.update(b"\0" + path.encode() + b"\0" + _stable(written[path]))
    return h.hexdigest()


def _write_fixtures(directory: Path) -> None:
    """The seeded input files: a 16-qubit, 200-gate circuit, a dense vector and two 16 x 16 density operators."""
    rng = np.random.default_rng(10)
    circuit = random_circuit(16, 200, rng)
    lines = [f"qubits {circuit.n}"] + [" ".join([g.name, *map(str, g.qubits)]) for g in circuit.gates]
    (directory / "circuit.txt").write_text("\n".join(lines) + "\n")
    np.save(directory / "vector.npy", rng.standard_normal(64) + 1j * rng.standard_normal(64))
    for name in ("a.npy", "b.npy"):
        np.save(directory / name, random_density_operator(16, rng).matrix)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.relative_to(directory).as_posix(): p.read_bytes() for p in directory.rglob("*") if p.is_file()}


def _call(argv: list[str]) -> int:
    if argv[0] == "sqlab":
        return cli.main(argv[1:])
    path = ROOT / "scripts" / argv[0]
    spec = importlib.util.spec_from_file_location(path.stem, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    with mock.patch.object(sys, "argv", [str(path), *argv[1:]]):
        return script.main()


def run_corpus() -> dict[str, tuple[int, str]]:
    """Every entry's [exit code, sha256], run in order in one scratch directory."""
    results = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        directory = Path(work)
        _write_fixtures(directory)
        os.chdir(directory)
        try:
            for entry in CORPUS:
                before = _files(directory)
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = _call(entry.argv.split())
                after = _files(directory)
                written = {path: data for path, data in after.items() if before.get(path) != data}
                results[entry.name] = (code, _digest(out.getvalue().encode(), written))
        finally:
            os.chdir(home)
    return results


if __name__ == "__main__":
    print(json.dumps(run_corpus(), indent=1))
