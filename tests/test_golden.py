"""The golden-output corpus (`_golden.py`): every entry's exit code and output hash, as recorded."""

import argparse
import json
import os
import subprocess
import sys

import pytest

from _golden import CORPUS, ROOT
from sqlab import cli


@pytest.fixture(scope="module")
def corpus_results():
    """The corpus, run once in a fresh interpreter with one BLAS thread from before numpy is imported."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "_golden.py")], capture_output=True, text=True, env=env, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("entry", CORPUS, ids=[entry.name for entry in CORPUS])
def test_corpus_entry_matches_its_recorded_output(corpus_results, entry):
    code, digest = corpus_results[entry.name]
    assert (code, digest) == (entry.code, entry.sha256), (
        f"{entry.name}: exit {code}, sha256 {digest}; recorded exit {entry.code}, sha256 {entry.sha256}"
    )


def test_every_subcommand_and_script_has_a_corpus_entry():
    names = [entry.name for entry in CORPUS]
    assert len(set(names)) == len(names)
    argvs = [entry.argv.split() for entry in CORPUS]
    (subparsers,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    subcommands = {next(word for word in argv if word in subparsers.choices) for argv in argvs if argv[0] == "sqlab"}
    assert subcommands == set(subparsers.choices)
    scripts = {path.name for path in (ROOT / "scripts").glob("*.py")}
    assert scripts == {argv[0] for argv in argvs if argv[0] != "sqlab"}
