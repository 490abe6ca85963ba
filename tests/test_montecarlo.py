import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from stickfrag import (
    FixedProportions,
    MEASURE_LENGTH,
    MEASURE_UNIFORM,
    ExponentSpec,
    ProportionVector,
    RandomProportions,
    ResourceLimitError,
    SamplerConfig,
    exact_distribution,
    ks_distance,
    make_model,
    proportions_from_exponents,
    sample_leaf_residues,
)
from stickfrag import enumeration, montecarlo
from stickfrag.enumeration import _CSV_BLOCK_ROWS, _frac
from stickfrag.montecarlo import _SAMPLE_BYTES, _sample_chunk, write_metadata_json, write_samples_csv
from stickfrag.oracle import brute_force_leaves, write_leaves_csv


def fixed(model, seed=1234, samples=1000, measure=MEASURE_UNIFORM):
    return SamplerConfig(seed=seed, samples=samples, mode=FixedProportions(model), measure=measure)


class TestFixedSampling:
    def test_half_model_single_residue(self):
        # oracle: every path multiplies five halves, residue frac(-5 log10 2)
        expected = (-5.0 * math.log10(2.0)) % 1.0
        res, dist = sample_leaf_residues(fixed(make_model([0.5]), samples=500), 5)
        assert np.allclose(res, expected, atol=1e-12)
        assert dist.atoms == 1
        assert expected == pytest.approx(0.4948500216800211, abs=1e-12)

    def test_n0_all_zero(self):
        res, dist = sample_leaf_residues(fixed(make_model([0.3, 0.3]), samples=200), 0)
        assert np.all(res == 0.0)
        assert dist.atoms == 1 and dist.residues[0] == 0.0

    def test_deterministic_given_seed(self):
        cfg = fixed(make_model([0.3, 0.2]), seed=99, samples=5000)
        a, _ = sample_leaf_residues(cfg, 30)
        b, _ = sample_leaf_residues(cfg, 30)
        assert np.array_equal(a, b)

    def test_seed_changes_stream(self):
        a, _ = sample_leaf_residues(fixed(make_model([0.3, 0.2]), seed=1, samples=5000), 30)
        b, _ = sample_leaf_residues(fixed(make_model([0.3, 0.2]), seed=2, samples=5000), 30)
        assert not np.array_equal(a, b)

    def test_task_count_does_not_change_stream(self):
        cfg = fixed(make_model([0.3, 0.2]), seed=7, samples=200_000)
        a, _ = sample_leaf_residues(cfg, 20, tasks=1)
        b, _ = sample_leaf_residues(cfg, 20, tasks=4)
        assert np.array_equal(a, b)

    def test_uniform_estimator_consistency(self):
        # DKW-style bound: 1e6 samples within 5e-3 of the exact CDF
        model = make_model([0.3])
        cfg = fixed(model, seed=2024, samples=10**6)
        _, sampled = sample_leaf_residues(cfg, 50)
        exact = exact_distribution(model, 50, measure=MEASURE_UNIFORM)
        assert ks_distance(sampled, exact) <= 5e-3

    def test_length_estimator_consistency(self):
        model = make_model([0.2, 0.5])
        cfg = fixed(model, seed=2025, samples=500_000, measure=MEASURE_LENGTH)
        _, sampled = sample_leaf_residues(cfg, 25)
        exact = exact_distribution(model, 25, measure=MEASURE_LENGTH)
        assert ks_distance(sampled, exact) <= 5e-3

    def test_irrational_config_deep_n_nearly_uniform(self):
        # y = (-1/2, -sqrt2) at N=1000: sampled residues equidistribute
        import math
        from fractions import Fraction

        from stickfrag import ExponentSpec, ks_to_uniform, proportions_from_exponents

        model = proportions_from_exponents(
            ExponentSpec((Fraction(-1, 2), -math.sqrt(2)))
        )
        cfg = fixed(model, seed=314159, samples=10**6)
        _, sampled = sample_leaf_residues(cfg, 1000)
        assert ks_to_uniform(sampled) < 0.02

    def test_label_exchangeability_uniform(self):
        # permuting the proportions relabels leaves; uniform sampling sees the
        # same residue distribution
        model = make_model([0.2, 0.5])
        _, a = sample_leaf_residues(fixed(model, seed=5, samples=300_000), 15)
        _, b = sample_leaf_residues(
            fixed(model.permuted((2, 0, 1)), seed=55, samples=300_000), 15
        )
        assert ks_distance(a, b) <= 5e-3

    @pytest.mark.parametrize("base", [10, 7])
    @pytest.mark.parametrize("measure", [MEASURE_UNIFORM, MEASURE_LENGTH])
    def test_samples_are_enumerated_atoms_bit_for_bit(self, base, measure):
        # sampler and engine share the scalar logs and the summation order, so
        # every sampled residue is one of the enumerated atoms exactly; with no
        # two compositions merged, each atom is its composition's own residue
        model = ProportionVector((0.2, 0.45, 0.35))
        exact = exact_distribution(model, 20, base, measure)
        assert exact.atoms == 231
        res, _ = sample_leaf_residues(fixed(model, seed=8, samples=20_000, measure=measure), 20, base)
        assert np.isin(res, exact.residues).all()


def reference_dirichlet_chunk(config, N, base, chunk_index, n):
    """The Dirichlet branch of _sample_chunk with a 2-d fancy index per stage."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, chunk_index)))
    m = config.m
    alpha = np.array(config.mode.concentration)
    total = np.zeros(n)
    for _ in range(N):
        P = rng.dirichlet(alpha, size=n)
        if config.measure == MEASURE_UNIFORM:
            idx = rng.integers(0, m, size=n)
        else:
            u = rng.random(n)
            idx = np.minimum((P.cumsum(axis=1) < u[:, None]).sum(axis=1), m - 1)
        chosen = P[np.arange(n), idx]
        total += np.log10(chosen) if base == 10 else np.log(chosen) / math.log(base)
    return _frac(total)


def beta_moment(a, b, s):
    """E[X^s] of X ~ Beta(a, b) for integer b: prod_{k<b} (a+k)/(a+s+k)."""
    v = 1.0
    for k in range(b):
        v *= (a + k) / (a + s + k)
    return v


def dirichlet_stage_coefficient(alpha, measure, base, h):
    """phi(h) = E[exp(-2 pi i h log_base P)] of one stage's chosen coordinate P.

    Coordinate j of Dirichlet(alpha) is Beta(alpha_j, alpha_0 - alpha_j).  The
    uniform measure picks j with probability 1/m; the length measure picks it
    with probability P_j, which tilts Beta(a, b) to Beta(a + 1, b).
    """
    s = -2j * math.pi * h / math.log(base)
    a0 = sum(alpha)
    if measure == MEASURE_UNIFORM:
        return sum(beta_moment(a, a0 - a, s) for a in alpha) / len(alpha)
    return sum(a / a0 * beta_moment(a + 1, a0 - a, s) for a in alpha)


class TestRandomProportions:
    def test_runs_and_is_deterministic(self):
        cfg = SamplerConfig(
            seed=42, samples=2000, mode=RandomProportions(3, (1.0, 1.0, 1.0))
        )
        a, dist = sample_leaf_residues(cfg, 12)
        b, _ = sample_leaf_residues(cfg, 12)
        assert np.array_equal(a, b)
        assert np.all((a >= 0.0) & (a < 1.0))
        assert abs(dist.total_mass() - 1.0) <= 1e-10

    def test_length_measure_mode(self):
        cfg = SamplerConfig(
            seed=43, samples=2000, mode=RandomProportions(2, (2.0, 3.0)), measure=MEASURE_LENGTH
        )
        a, _ = sample_leaf_residues(cfg, 10)
        assert len(a) == 2000

    @pytest.mark.parametrize("N", [0, 1, 25])
    @pytest.mark.parametrize("base", [10, 7])
    @pytest.mark.parametrize("measure", [MEASURE_UNIFORM, MEASURE_LENGTH])
    @pytest.mark.parametrize("alpha", [(1.0, 1.0, 1.0), (2.0, 3.0)], ids=["m3", "m2"])
    def test_stream_matches_reference(self, alpha, measure, base, N):
        cfg = SamplerConfig(seed=11, samples=1, mode=RandomProportions(len(alpha), alpha), measure=measure)
        got = _sample_chunk(cfg, N, base, 2, 3000)
        ref = reference_dirichlet_chunk(cfg, N, base, 2, 3000)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("N", [1, 3])
    @pytest.mark.parametrize("base", [10, 7])
    @pytest.mark.parametrize("measure", [MEASURE_UNIFORM, MEASURE_LENGTH])
    @pytest.mark.parametrize("alpha", [(1, 1, 1), (2, 3), (1, 2, 4)], ids=["111", "23", "124"])
    def test_fourier_coefficients(self, alpha, measure, base, N):
        # stages are independent, so E[exp(-2 pi i h R)] = phi(h)^N; the
        # empirical mean of a unit-modulus variable errs by about 1/sqrt(n)
        n = 2**16
        cfg = SamplerConfig(seed=N, samples=n, mode=RandomProportions(len(alpha), alpha), measure=measure)
        res, _ = sample_leaf_residues(cfg, N, base)
        for h in (1, 2, 3):
            empirical = np.exp(-2j * np.pi * h * res).mean()
            exact = dirichlet_stage_coefficient(alpha, measure, base, h) ** N
            assert abs(empirical - exact) <= 5 / math.sqrt(n)

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomProportions(1, (1.0,))
        with pytest.raises(ValueError):
            RandomProportions(2, (1.0,))
        with pytest.raises(ValueError):
            RandomProportions(2, (1.0, -1.0))

    @pytest.mark.parametrize("c", [math.inf, math.nan])
    def test_non_finite_concentration_refused(self, c):
        # inf used to pass and fail only after a full sampling run
        with pytest.raises(ValueError, match="finite and positive"):
            RandomProportions(2, (1.0, c))


class TestConfigValidation:
    def test_bad_samples(self):
        with pytest.raises(ValueError):
            SamplerConfig(seed=1, samples=0, mode=FixedProportions(make_model([0.5])))

    def test_bad_seed(self):
        with pytest.raises(ValueError):
            SamplerConfig(seed=-1, samples=10, mode=FixedProportions(make_model([0.5])))

    @pytest.mark.parametrize(
        "field,value",
        [("samples", True), ("samples", 10.0), ("seed", 1.5), ("seed", False), ("seed", np.bool_(True))],
    )
    def test_non_integer_seed_or_samples_refused(self, field, value):
        # samples=True used to sample one path; seed=1.5 failed inside numpy
        kwargs = {"seed": 1, "samples": 10, field: value}
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            SamplerConfig(mode=FixedProportions(make_model([0.5])), **kwargs)

    def test_numpy_integers_accepted(self):
        cfg = SamplerConfig(seed=np.uint64(7), samples=np.int32(100), mode=FixedProportions(make_model([0.5])))
        a, _ = sample_leaf_residues(cfg, 3)
        b, _ = sample_leaf_residues(fixed(make_model([0.5]), seed=7, samples=100), 3)
        assert np.array_equal(a, b)

    def test_bad_measure(self):
        with pytest.raises(ValueError):
            SamplerConfig(
                seed=1, samples=10, mode=FixedProportions(make_model([0.5])), measure="bogus"
            )


class TestByteGuard:
    def test_refuses_before_sampling(self, monkeypatch):
        config = fixed(make_model([0.3, 0.3]), samples=1000)
        monkeypatch.setattr(enumeration, "_BYTE_LIMIT", 80_000)  # 1000 samples at 80 B fit exactly
        assert len(sample_leaf_residues(config, 10)[0]) == 1000

        def no_sampling(*args):
            raise AssertionError("the guard should refuse before any chunk is sampled")

        monkeypatch.setattr(enumeration, "_BYTE_LIMIT", 80_000 - 1)
        monkeypatch.setattr(montecarlo, "_sample_chunk", no_sampling)
        with pytest.raises(ResourceLimitError,
                           match="1000 samples need an estimated 80000 bytes, above the limit of 79999 bytes"):
            sample_leaf_residues(config, 10)

    @pytest.mark.parametrize(
        "mode,N",
        [
            (FixedProportions(proportions_from_exponents(ExponentSpec((-math.sqrt(2), -math.sqrt(3))))), 10**7),
            (RandomProportions(3, (1.0, 1.0, 1.0)), 5),
        ],
        ids=["fixed", "dirichlet"],
    )
    def test_per_sample_bound_holds(self, mode, N, traced_peak):
        # 2^18 samples, (almost) every residue distinct, so nothing merges
        n = 2**18
        config = SamplerConfig(seed=1, samples=n, mode=mode)
        assert traced_peak(lambda: sample_leaf_residues(config, N)) <= n * _SAMPLE_BYTES


@pytest.mark.parametrize(
    "call,exc,fragment",
    [
        (lambda: sample_leaf_residues(fixed(make_model([0.5])), -1), ValueError, "need N >= 0"),
        (lambda: sample_leaf_residues(fixed(make_model([0.5])), 3, tasks=0), ValueError, "tasks must be >= 1"),
        (lambda: SamplerConfig(seed=1, samples=10, mode=make_model([0.5])), TypeError, "mode must be"),
    ],
    ids=["negative-n", "tasks", "foreign-mode"],
)
def test_argument_checks(call, exc, fragment):
    with pytest.raises(exc, match=fragment):
        call()


class TestDumps:
    def test_samples_csv(self, tmp_path):
        res, _ = sample_leaf_residues(fixed(make_model([0.3]), samples=50), 5)
        path = tmp_path / "samples.csv"
        write_samples_csv(res, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "sample_index,residue"
        assert len(lines) == 51
        rows = [line.split(",") for line in lines[1:]]
        assert [int(i) for i, _ in rows] == list(range(50))
        # 17 significant digits round-trip every double exactly
        assert [float(r) for _, r in rows] == res.tolist()

    def test_metadata_json(self, tmp_path):
        cfg = fixed(make_model([0.3]), samples=50)
        path = tmp_path / "meta.json"
        write_metadata_json(cfg, 5, 10, {"proportions": [0.3]}, path)
        import json

        meta = json.loads(path.read_text())
        assert meta["generator"] == "numpy.random.PCG64"
        assert meta["seed"] == 1234
        assert meta["config"] == {"proportions": [0.3]}


def reference_indexed_csv(header, values, path):
    """The per-row writer the block writer replaced: one %.17g per row."""
    with open(path, "w") as f:
        f.write(header + "\n")
        f.writelines(f"{i},{v:.17g}\n" for i, v in enumerate(values.tolist()))


ROW_WRITERS = {
    "samples": ("sample_index,residue", write_samples_csv),
    "leaves": ("leaf_index,length", lambda v, path: write_leaves_csv(SimpleNamespace(lengths=v), path)),
}
EDGE_VALUES = [0.0, -0.0, 5e-324, 1e-05, 1 - 2**-53, 1.0]
B = _CSV_BLOCK_ROWS


class TestRowWriterBytes:
    def assert_same_bytes(self, tmp_path, kind, values):
        header, write = ROW_WRITERS[kind]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write(values, got)
        reference_indexed_csv(header, values, want)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("kind", ROW_WRITERS)
    @pytest.mark.parametrize("measure", [MEASURE_UNIFORM, MEASURE_LENGTH])
    def test_fixed_model_samples(self, tmp_path, kind, measure):
        # fig7 at N=1000: a few hundred distinct residues in 2^17 rows
        model = proportions_from_exponents(ExponentSpec((Fraction(-1, 2), -math.sqrt(2))))
        res, dist = sample_leaf_residues(fixed(model, seed=3, samples=1 << 17, measure=measure), 1000)
        assert dist.atoms < 1000
        self.assert_same_bytes(tmp_path, kind, res)

    @pytest.mark.parametrize("kind", ROW_WRITERS)
    def test_all_distinct_values(self, tmp_path, kind):
        values = np.random.default_rng(11).random(3 * B + 17)
        assert len(np.unique(values)) == len(values)
        self.assert_same_bytes(tmp_path, kind, values)

    @pytest.mark.parametrize("kind", ROW_WRITERS)
    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 3])
    def test_edge_values_and_block_lengths(self, tmp_path, kind, n):
        # edge values cycle through every block, so each block holds both
        # zeros; a value-based dedupe would write one of them wrongly
        values = np.resize(np.array(EDGE_VALUES), n)
        self.assert_same_bytes(tmp_path, kind, values)

    def test_brute_force_leaves(self, tmp_path):
        # 3^9 read-only leaf lengths over three blocks
        self.assert_same_bytes(tmp_path, "leaves", brute_force_leaves(make_model([0.3, 0.2]), 9).lengths)
