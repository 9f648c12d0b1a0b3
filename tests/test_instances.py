"""Instance-generator tests: distributions, determinism, dump/load round trips."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from sqlab.instances import (
    MINUS_SIGN,
    ProblemInstance,
    dump_instance,
    gen_minus_sign,
    gen_real_vector_search,
    gen_unnormalized_minus,
    haar_unit_vector,
    load_instance,
)
from sqlab.sq_oracle import ImplicitVector

from _fixtures import materialize, sparse_npy


def test_haar_real_d1_is_sign():
    rng = np.random.default_rng(0)
    values = [complex(haar_unit_vector(1, "real", rng)[0]) for _ in range(20)]
    assert all(abs(abs(v) - 1.0) < 1e-12 and v.imag == 0.0 for v in values)
    assert {v.real > 0 for v in values} == {True, False}


def test_haar_unit_norm_and_field_tags():
    rng = np.random.default_rng(1)
    real = haar_unit_vector(1 << 10, "real", rng)
    cplx = haar_unit_vector(1 << 10, "complex", rng)
    assert abs(np.linalg.norm(real) - 1.0) < 1e-12
    assert abs(np.linalg.norm(cplx) - 1.0) < 1e-12
    assert np.all(real.imag == 0.0)
    with pytest.raises(ValueError):
        haar_unit_vector(0, "real", rng)
    with pytest.raises(ValueError):
        haar_unit_vector(4, "quaternionic", rng)


def test_haar_mean_squared_first_component():
    # E[v_1^2] = 1/d by symmetry; check the empirical mean within 3 sigma
    d = 1 << 10
    rng = np.random.default_rng(2)
    sq = np.array([haar_unit_vector(d, "real", rng)[0].real ** 2 for _ in range(10_000)])
    sigma = sq.std(ddof=1) / math.sqrt(sq.size)
    assert abs(sq.mean() - 1.0 / d) < 3 * sigma


def test_haar_complex_imag_parts_never_exactly_zero():
    # an exact zero is a logged anomaly, not a failure
    rng = np.random.default_rng(3)
    zeros = 0
    components = 0
    for _ in range(1000):
        v = haar_unit_vector(1 << 10, "complex", rng)
        zeros += int(np.count_nonzero(v.imag == 0.0))
        components += v.size
    assert components >= 10**6
    if zeros:
        warnings.warn(f"observed {zeros} exactly-zero imaginary parts in {components} components")
    assert zeros == 0


# sha256 of each handle's entries in gen_real_vector_search(16, 4, seed), recorded
# with the norm taken by numpy's pairwise sum (the same under every BLAS thread
# count); the real vector is j = 3, 0, 2
_PINNED_REAL_SEARCH = {
    0: [
        "7297fb66d51a9ba7b98a06601d73d61cc18cbfdd29d8926554f733a4b738fb61",
        "f665bb9171fb3e3b9452e4c2d2072742a67b0926173366ad6afd0a3c05190b79",
        "e0335f6b05ad66a2fbccee44d1d817b239da1695093f157550c9262317d9684e",
        "e7a93d9a6385a3d601cc9d587d9e319db0919b4969090957cb28e3e2c563748b",
    ],
    1: [
        "5ba58d6aa0a148268e871a30309100b6859b9317b2cdb3842ad3e7fcf44ef3a9",
        "01bcdb9b5e21c8a66f83b85daf8976bd125ce8314b72089cf7c73aa35452b67d",
        "a013eb58710e755c47cad7973ec91bb661c29d8b5970cd55a45e925c3a5f9c75",
        "9098aae551311b8409eb94b70c952507d440d13a722fab977a457d1ec244f858",
    ],
    3: [
        "1e18d2af6fd2e6b2a154e86da0b194468b71c19a0e618d472f5d4ac5bf6f9bd1",
        "36ec638e2cdcaa0ce4bf6c885556bc2910efdc4826b5f2fabd11c231423ac640",
        "77d5d9c1cfde0ff348fd0d75fe4aa0353791483aaafccf9642e5c8cea2ac81ea",
        "97133520287e23c05e9d8085cbd60e76787d020271aab55eb0a9caccd7255368",
    ],
}


@pytest.mark.parametrize("seed", sorted(_PINNED_REAL_SEARCH))
def test_real_search_vector_bytes_are_pinned(seed):
    handles = gen_real_vector_search(16, 4, seed).handles
    assert [hashlib.sha256(h.backing.entries.tobytes()).hexdigest() for h in handles] == _PINNED_REAL_SEARCH[seed]
    assert [bool(np.all(h.backing.entries.imag == 0.0)) for h in handles].count(True) == 1


@pytest.mark.parametrize("gen_threads,solve_threads", [("2", "1"), ("1", "2")])
def test_real_search_instance_solves_under_another_blas_thread_count(tmp_path, gen_threads, solve_threads):
    # `solve` regenerates the instance from its seed to check the dumped
    # vectors, so their bytes must not depend on the BLAS thread count
    def sqlab(threads, *argv):
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
        }
        return subprocess.run(
            [sys.executable, "-m", "sqlab.cli", *argv], capture_output=True, text=True, env=env, timeout=120
        )

    inst = tmp_path / "inst"
    generated = sqlab(gen_threads, "--seed", "5", "gen-instance", "--kind", "real-search", "--n", "16", "--C", "4",
                      "--dir", str(inst))
    assert generated.returncode == 0, generated.stderr
    solved = sqlab(solve_threads, "solve", "real-search", "--instance", str(inst))
    assert solved.returncode == 0, solved.stderr
    assert json.loads(solved.stdout)["correct"] is True


def test_gen_minus_sign_small_case_values():
    instance = gen_minus_sign(1, 2, seed=4)
    firsts = [h.query(1) for h in instance.handles]
    s = 1 / math.sqrt(2)
    assert sorted(z.real for z in firsts) == pytest.approx([-s, s])
    negatives = [k for k, z in enumerate(firsts, start=1) if z.real < 0]
    assert len(negatives) == 1
    assert instance.verify_answer(negatives[0])


def test_gen_minus_sign_large_n_stays_implicit():
    instance = gen_minus_sign(50, 4, seed=5)
    assert all(isinstance(h.backing, ImplicitVector) for h in instance.handles)
    negatives = [k for k in range(1, 5) if instance.handles[k - 1].query(1).real < 0]
    assert len(negatives) == 1


def test_gen_unnormalized_minus_values():
    instance = gen_unnormalized_minus(3, 2, seed=6)
    for handle in instance.handles:
        assert handle.query_norm() == pytest.approx(math.sqrt(8))
    star = [k for k in (1, 2) if instance.verify_answer(k)][0]
    assert instance.handles[star - 1].query(1) == -1.0
    big = gen_unnormalized_minus(40, 2, seed=7)
    assert all(isinstance(h.backing, ImplicitVector) for h in big.handles)


def test_gen_real_vector_search_structure():
    instance = gen_real_vector_search(2, 2, seed=8)
    imag_free = [
        k
        for k, h in enumerate(instance.handles, start=1)
        if np.all(h.backing.entries.imag == 0.0)
    ]
    assert len(imag_free) == 1
    assert instance.verify_answer(imag_free[0])
    for h in instance.handles:
        assert abs(h.backing.norm() - 1.0) < 1e-12


def test_gen_real_vector_search_budget():
    with pytest.raises(ValueError, match="budget"):
        gen_real_vector_search(25, 2, seed=0)
    gen_real_vector_search(12, 2, seed=0)


def test_generation_is_deterministic():
    a = gen_real_vector_search(6, 3, seed=9)
    b = gen_real_vector_search(6, 3, seed=9)
    assert a._k_star == b._k_star
    for ha, hb in zip(a.handles, b.handles):
        assert np.array_equal(ha.backing.entries, hb.backing.entries)
    c = gen_minus_sign(20, 4, seed=10)
    d = gen_minus_sign(20, 4, seed=10)
    assert [h.backing for h in c.handles] == [h.backing for h in d.handles]


def _pairwise_distances(instance):
    vectors = [h.backing.entries for h in instance.handles]
    return [float(np.linalg.norm(a - b)) for i, a in enumerate(vectors) for b in vectors[i + 1 :]]


def test_real_search_pairwise_distances_concentrate():
    # E||x - y||^2 = 2 for independent unit vectors; 0.5 is a safe floor at d=1024
    seeds = range(100)
    minimum = math.inf
    for seed in seeds:
        instance = gen_real_vector_search(10, 4, seed=seed)
        minimum = min(minimum, min(_pairwise_distances(instance)))
    assert minimum >= 0.5


def test_real_search_distances_near_sqrt_two():
    distances = _pairwise_distances(gen_real_vector_search(10, 4, seed=11))
    assert len(distances) == 6 and all(abs(dist - math.sqrt(2)) < 0.2 for dist in distances)


def test_verify_answer_bounds_and_purity():
    instance = gen_minus_sign(4, 3, seed=14)
    star = [k for k in (1, 2, 3) if instance.verify_answer(k)]
    assert len(star) == 1
    assert instance.verify_answer(star[0])  # repeated call, same result
    assert not instance.verify_answer(star[0] % 3 + 1)
    with pytest.raises(ValueError):
        instance.verify_answer(0)
    with pytest.raises(ValueError):
        instance.verify_answer(4)


def test_repr_does_not_leak_answer():
    instance = gen_minus_sign(4, 3, seed=15)
    assert repr(instance) == "ProblemInstance(kind='minus-sign', n=4, C=3, seed=15)"


def test_dump_load_round_trip_implicit(tmp_path):
    instance = gen_minus_sign(30, 4, seed=16)
    dump_instance(instance, tmp_path / "inst")
    manifest = (tmp_path / "inst" / "manifest.txt").read_text()
    assert "k_star" not in manifest
    loaded = load_instance(tmp_path / "inst")
    assert loaded.kind == MINUS_SIGN and loaded.num_vectors == 4
    assert loaded._k_star == instance._k_star
    for a, b in zip(loaded.handles, instance.handles):
        assert a.backing == b.backing


def test_dump_load_round_trip_dense(tmp_path):
    instance = gen_real_vector_search(6, 3, seed=17)
    dump_instance(instance, tmp_path / "inst")
    loaded = load_instance(tmp_path / "inst")
    assert loaded._k_star == instance._k_star
    for a, b in zip(loaded.handles, instance.handles):
        assert np.array_equal(a.backing.entries, b.backing.entries)


def test_dump_reveal_writes_answer(tmp_path):
    instance = gen_real_vector_search(4, 2, seed=18)
    dump_instance(instance, tmp_path / "inst", reveal=True)
    manifest = (tmp_path / "inst" / "manifest.txt").read_text()
    assert f"k_star {instance._k_star}" in manifest
    assert load_instance(tmp_path / "inst")._k_star == instance._k_star


def test_dump_writes_new_files_instead_of_rewriting_in_place(tmp_path):
    first, second = gen_real_vector_search(4, 2, seed=28), gen_real_vector_search(4, 2, seed=29)
    dump_instance(first, tmp_path / "inst")
    for name in ("vector_1.npy", "manifest.txt"):  # hard links keep whatever file is there now
        (tmp_path / name).hardlink_to(tmp_path / "inst" / name)
    before = (tmp_path / "manifest.txt").read_text()
    dump_instance(second, tmp_path / "inst")
    assert np.load(tmp_path / "vector_1.npy").tobytes() == first.handles[0].backing.entries.tobytes()
    assert (tmp_path / "manifest.txt").read_text() == before
    assert load_instance(tmp_path / "inst").seed == 29


def test_load_detects_tampering(tmp_path):
    instance = gen_real_vector_search(4, 2, seed=19)
    dump_instance(instance, tmp_path / "inst")
    victim = tmp_path / "inst" / "vector_1.npy"
    values = np.load(victim)
    values[0] = 0.5 + 0.5j
    np.save(victim, values)
    with pytest.raises(ValueError, match="does not match"):
        load_instance(tmp_path / "inst")


@pytest.mark.parametrize(
    "make,line,rewrite",
    [
        # the closed form's exact entries, written as a file: an `npy` line never matches an implicit vector
        (lambda: gen_minus_sign(4, 3, seed=19), "vector 1 implicit", "vector 1 npy vector_1.npy"),
        (lambda: gen_real_vector_search(4, 2, seed=19), "vector 1 npy", "vector 1 implicit all-plus n=4 scale=0.25"),
    ],
    ids=["npy-for-implicit", "implicit-for-dense"],
)
def test_load_refuses_a_vector_dumped_with_the_other_backing(tmp_path, make, line, rewrite):
    instance = make()
    dump_instance(instance, tmp_path / "inst")
    np.save(tmp_path / "inst" / "vector_1.npy", materialize(instance.handles[0]))
    manifest = tmp_path / "inst" / "manifest.txt"
    lines = [rewrite if entry.startswith(line) else entry for entry in manifest.read_text().splitlines()]
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(manifest))}: dumped instance does not match its seed$"):
        load_instance(tmp_path / "inst")


@pytest.mark.parametrize("generator", [gen_minus_sign, gen_unnormalized_minus])
@pytest.mark.parametrize("n", [0, 63, 1024, 10**9])
def test_minus_families_refuse_n_before_forming_two_to_the_n(generator, n):
    # 1 / sqrt(1 << n) raised OverflowError from n = 1024, after building a 125 MB integer at n = 10^9
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^n must be in \[1, 62\], got {n}$"):
            generator(n, 2, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_minus_sign_scale_is_one_over_sqrt_d_up_to_n_62():
    for n in range(1, 63):
        assert gen_minus_sign(n, 2, seed=0).handles[0].backing.scale == 1.0 / math.sqrt(1 << n)


def test_load_checks_vector_length_against_manifest(tmp_path):
    # revealed, so no regeneration would catch the short vectors
    dump_instance(gen_real_vector_search(4, 2, seed=24), tmp_path / "inst", reveal=True)
    short = np.array([0.6, 0.8j])
    for j in (1, 2):
        np.save(tmp_path / "inst" / f"vector_{j}.npy", short)
    with pytest.raises(ValueError, match=r"vector_1\.npy: 2 entries, the manifest's n=4 needs 16"):
        load_instance(tmp_path / "inst")


def test_load_refuses_an_oversize_vector_from_its_header(tmp_path):
    # revealed, so nothing regenerates the instance; the file holds 2^22 entries (64 MB) for n=4
    dump_instance(gen_real_vector_search(4, 2, seed=24), tmp_path / "inst", reveal=True)
    victim = tmp_path / "inst" / "vector_1.npy"
    sparse_npy(victim, (1 << 22,), np.complex128)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^{re.escape(str(victim))}: 4194304 entries exceed the cap of 16$"):
            load_instance(tmp_path / "inst")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_load_names_the_vector_file_it_refuses(tmp_path):
    dump_instance(gen_real_vector_search(4, 2, seed=24), tmp_path / "inst", reveal=True)
    np.save(tmp_path / "inst" / "vector_1.npy", np.full(16, np.nan))
    with pytest.raises(ValueError, match=r"vector_1\.npy: squared norm nan is not finite"):
        load_instance(tmp_path / "inst")


def test_load_refuses_a_text_vector_line(tmp_path):
    # dense vectors are read from `.npy` files only; `dense` is an unknown backing
    instance = gen_real_vector_search(4, 2, seed=23)
    dump_instance(instance, tmp_path / "inst")
    assert sorted(p.name for p in (tmp_path / "inst").iterdir()) == ["manifest.txt", "vector_1.npy", "vector_2.npy"]
    manifest = tmp_path / "inst" / "manifest.txt"
    assert "vector 1 npy vector_1.npy\n" in manifest.read_text()
    (tmp_path / "inst" / "vector_1.txt").write_text(
        "".join(f"{z.real!r} {z.imag!r}\n" for z in instance.handles[0].backing.entries)
    )
    manifest.write_text(manifest.read_text().replace("vector 1 npy vector_1.npy", "vector 1 dense vector_1.txt"))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(manifest))}: unknown backing 'dense'$"):
        load_instance(tmp_path / "inst")


@pytest.mark.parametrize(
    "n,num_vectors,refusal",
    [
        (20, 80, r"C\*2\^n = 83886080 entries exceed the real-search cap \(2\^26\)"),
        (25, 2, r"n=25 exceeds the dense materialization budget \(24\)"),
        (4, 65537, r"C must be in \[2, 2\^16\], got 65537"),
    ],
    ids=["entries", "n", "vector-count"],
)
def test_load_applies_the_dense_caps_before_opening_any_vector_file(tmp_path, n, num_vectors, refusal):
    # every vector line names one file, which does not exist: a cap must refuse first
    lines = ["kind real-search", f"n {n}", f"C {num_vectors}", "seed 0", "k_star 1"]
    lines += [f"vector {j} npy missing.npy" for j in range(1, num_vectors + 1)]
    (tmp_path / "manifest.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(tmp_path / 'manifest.txt'))}: {refusal}$"):
        load_instance(tmp_path)


@pytest.mark.parametrize(
    "seed,k_star,refusal",
    [
        (-5, None, "seed must be at least 0, got -5"),
        (-5, 1, "seed must be at least 0, got -5"),
        (0, 0, r"k_star must be in \[1, C=2\], got 0"),
        (0, 9, r"k_star must be in \[1, C=2\], got 9"),
    ],
    ids=["negative-seed", "revealed-negative-seed", "k-star-0", "k-star-past-C"],
)
def test_load_refuses_a_manifest_seed_or_k_star_before_opening_any_vector_file(tmp_path, seed, k_star, refusal):
    lines = ["kind real-search", "n 2", "C 2", f"seed {seed}", *([f"k_star {k_star}"] if k_star is not None else [])]
    lines += [f"vector {j} npy missing.npy" for j in (1, 2)]
    (tmp_path / "manifest.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(tmp_path / 'manifest.txt'))}: {refusal}$"):
        load_instance(tmp_path)


def test_load_checks_implicit_n_against_manifest(tmp_path):
    dump_instance(gen_minus_sign(4, 2, seed=25), tmp_path / "inst", reveal=True)
    manifest = tmp_path / "inst" / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("n 4\n", "n 5\n"))
    with pytest.raises(ValueError, match="vector 1 has n=4, the manifest n=5"):
        load_instance(tmp_path / "inst")


@pytest.mark.parametrize(
    "descriptor",
    ["all-plus scale=0.25", "all-plus n=4 scale=x", "all-plus n=4 scale=0.25 colour=red", "all-plus n=4 scale=0"],
)
def test_load_rejects_a_malformed_implicit_descriptor(tmp_path, descriptor):
    dump_instance(gen_minus_sign(4, 2, seed=25), tmp_path / "inst", reveal=True)
    manifest = tmp_path / "inst" / "manifest.txt"
    lines = manifest.read_text().splitlines()
    lines = [f"vector 2 implicit {descriptor}" if line.startswith("vector 2 ") else line for line in lines]
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="manifest.txt: vector 2: "):
        load_instance(tmp_path / "inst")


def test_instance_validation():
    handles = gen_minus_sign(3, 2, seed=20).handles
    with pytest.raises(ValueError, match="kind"):
        ProblemInstance("mystery", 3, 0, handles, 1)
    with pytest.raises(ValueError, match="at least two"):
        ProblemInstance(MINUS_SIGN, 3, 0, handles[:1], 1)
    with pytest.raises(ValueError, match="range"):
        ProblemInstance(MINUS_SIGN, 3, 0, handles, 3)
