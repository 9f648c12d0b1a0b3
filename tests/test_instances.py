"""Instance-generator tests: distributions, determinism, dump/load round trips."""

import math
import warnings

import numpy as np
import pytest

from sqlab.instances import (
    MINUS_SIGN,
    ProblemInstance,
    REAL_SEARCH,
    dump_instance,
    gen_minus_sign,
    gen_real_vector_search,
    gen_unnormalized_minus,
    haar_unit_vector,
    load_instance,
    pairwise_distance_report,
)
from sqlab.learners import solve_real_search
from sqlab.sq_oracle import ImplicitVector, build_dense, materialize
from test_sq_oracle import write_legacy_dense_vector


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


def test_real_search_pairwise_distances_concentrate():
    # E||x - y||^2 = 2 for independent unit vectors; 0.5 is a safe floor at d=1024
    seeds = range(100)
    minimum = math.inf
    for seed in seeds:
        instance = gen_real_vector_search(10, 4, seed=seed)
        minimum = min(minimum, min(pairwise_distance_report(instance)))
    assert minimum >= 0.5


def test_real_search_distances_near_sqrt_two():
    distances = pairwise_distance_report(gen_real_vector_search(10, 4, seed=11))
    assert all(abs(dist - math.sqrt(2)) < 0.2 for dist in distances)


def test_pairwise_distance_identical_and_minus_pair():
    vec = haar_unit_vector(8, "complex", np.random.default_rng(12))
    twin = ProblemInstance(REAL_SEARCH, 3, 0, (build_dense(vec), build_dense(vec)), 1)
    assert pairwise_distance_report(twin) == [0.0]

    # dense small materialization of the sign-flip pair at d=4: distance 2/sqrt(d) = 1
    dense_pair = ProblemInstance(
        MINUS_SIGN,
        2,
        0,
        (
            build_dense(materialize(ImplicitVector(kind="minus-at-index", n=2, scale=0.5, minus_index=1))),
            build_dense(materialize(ImplicitVector(kind="all-plus", n=2, scale=0.5))),
        ),
        1,
    )
    assert pairwise_distance_report(dense_pair) == pytest.approx([1.0])


def test_pairwise_distance_rejects_implicit():
    with pytest.raises(ValueError, match="closed form"):
        pairwise_distance_report(gen_minus_sign(5, 2, seed=13))


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


def copy_as_legacy_directory(src, dst):
    """Copy an instance directory, rewriting each `npy` vector as a legacy `dense` text file."""
    dst.mkdir()
    lines = []
    for line in (src / "manifest.txt").read_text().splitlines():
        tokens = line.split()
        if tokens[0] == "vector" and tokens[2] == "npy":
            name = tokens[3].replace(".npy", ".txt")
            write_legacy_dense_vector(dst / name, np.load(src / tokens[3]))
            line = f"vector {tokens[1]} dense {name}"
        lines.append(line)
    (dst / "manifest.txt").write_text("\n".join(lines) + "\n")


def test_legacy_dense_manifest_loads_and_solves_the_same(tmp_path):
    instance = gen_real_vector_search(6, 3, seed=23)
    dump_instance(instance, tmp_path / "npy")
    copy_as_legacy_directory(tmp_path / "npy", tmp_path / "legacy")
    assert "vector 1 dense vector_1.txt" in (tmp_path / "legacy" / "manifest.txt").read_text()
    reports = []
    for name in ("npy", "legacy"):
        loaded = load_instance(tmp_path / name)  # regenerates from the seed, so also checks the data
        assert loaded._k_star == instance._k_star
        for a, b in zip(loaded.handles, instance.handles):
            assert a.backing.entries.tobytes() == b.backing.entries.tobytes()
        reports.append(solve_real_search(loaded.handles))
    assert reports[0].answer == reports[1].answer == instance._k_star
    assert reports[0].per_handle_stats == reports[1].per_handle_stats


@pytest.mark.parametrize("legacy", [False, True])
def test_load_checks_vector_length_against_manifest(tmp_path, legacy):
    # revealed, so no regeneration would catch the short vectors
    dump_instance(gen_real_vector_search(4, 2, seed=24), tmp_path / "inst", reveal=True)
    short = np.array([0.6, 0.8j])
    for j in (1, 2):
        np.save(tmp_path / "inst" / f"vector_{j}.npy", short)
    directory = tmp_path / "inst"
    if legacy:
        copy_as_legacy_directory(tmp_path / "inst", tmp_path / "legacy")
        directory = tmp_path / "legacy"
    with pytest.raises(ValueError, match=r"vector_1\.(npy|txt): 2 entries, the manifest's n=4 needs 16"):
        load_instance(directory)


def test_load_checks_implicit_n_against_manifest(tmp_path):
    dump_instance(gen_minus_sign(4, 2, seed=25), tmp_path / "inst", reveal=True)
    manifest = tmp_path / "inst" / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("n 4\n", "n 5\n"))
    with pytest.raises(ValueError, match="vector 1 has n=4, the manifest n=5"):
        load_instance(tmp_path / "inst")


@pytest.mark.parametrize("descriptor", ["all-plus scale=0.25", "all-plus n=4 scale=x", "all-plus n=4 scale=0.25 colour=red"])
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
