import json
import math
from fractions import Fraction
from pathlib import Path
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
    benford_expected,
    benford_report,
    exact_distribution,
    exact_residue_distribution,
    exact_residues_rational,
    ks_distance,
    make_model,
    proportions_from_exponents,
    sample_leaf_residues,
    write_distribution_csv,
)
from stickfrag import enumeration, montecarlo
from stickfrag.benford import write_digits_csv
from stickfrag.enumeration import _CSV_BLOCK_ROWS, _frac
from stickfrag.montecarlo import _peak_sample_bytes, _sample_chunk, write_metadata_json, write_samples_csv
from stickfrag.oracle import brute_force_leaves, write_exact_residues_csv, write_leaves_csv


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
    @pytest.mark.parametrize(
        "alpha", [(1.0, 1.0, 1.0), (2.0, 3.0), (0.5, 1.0, 2.0, 3.0, 0.7)], ids=["m3", "m2", "m5"]
    )
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

    def test_numpy_base_gives_the_int_base_bits(self):
        config = fixed(make_model([0.3, 0.3]), samples=1000)
        assert np.array_equal(sample_leaf_residues(config, 20, np.int64(7))[0], sample_leaf_residues(config, 20, 7)[0])

    def test_numpy_integers_written_as_json_ints(self, tmp_path):
        # the config keeps the Python ints it judged, which json can write
        mode = RandomProportions(np.int64(3), (1.0, 1.0, 1.0))
        cfg = SamplerConfig(seed=np.int64(5), samples=np.int32(10), mode=mode)
        path = tmp_path / "metadata.json"
        write_metadata_json(cfg, 5, 10, {}, path)
        meta = json.loads(path.read_text())
        assert (meta["seed"], meta["samples"], meta["mode"]["random_proportions"]["m"]) == (5, 10, 3)

    def test_bad_measure(self):
        with pytest.raises(ValueError):
            SamplerConfig(
                seed=1, samples=10, mode=FixedProportions(make_model([0.5])), measure="bogus"
            )


class TestByteGuard:
    def test_refuses_before_sampling(self, monkeypatch):
        config = fixed(make_model([0.3, 0.3]), samples=1000)
        # 1000 samples at m=3 fit exactly: 80 B each and 17*3 + 40 B a chunk row
        monkeypatch.setattr(enumeration, "_BYTE_LIMIT", 171_000)
        assert len(sample_leaf_residues(config, 10)[0]) == 1000

        def no_sampling(*args):
            raise AssertionError("the guard should refuse before any chunk is sampled")

        monkeypatch.setattr(enumeration, "_BYTE_LIMIT", 171_000 - 1)
        monkeypatch.setattr(montecarlo, "_sample_chunk", no_sampling)
        with pytest.raises(ResourceLimitError,
                           match="1000 samples need an estimated 171000 bytes, above the limit of 170999 bytes"):
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
        # (almost) every residue distinct, so nothing merges.  Up to one
        # chunk its buffers set the peak (Dirichlet `length`: 66 B a
        # sample); at 2^18 samples the residues and the merge take 48-51 B a
        # sample, where the chunk list kept beside them made that 72-75
        for n in (2**15, 2**16, 2**18):
            for measure in (MEASURE_UNIFORM, MEASURE_LENGTH):
                config = SamplerConfig(seed=1, samples=n, mode=mode, measure=measure)
                peak = traced_peak(lambda: sample_leaf_residues(config, N))
                assert peak <= _peak_sample_bytes(n, config.m, tasks=1), (n, measure)
                if n == 2**18:
                    assert peak <= n * 70, measure

    def test_bound_counts_each_chunk_in_flight(self, traced_peak):
        # two tasks sample two chunks at once; at m=8 the Dirichlet `length`
        # chunk buffers take 106 B a row
        n = 2**17
        config = SamplerConfig(seed=1, samples=n, mode=RandomProportions(8, (1.0,) * 8), measure=MEASURE_LENGTH)
        peak = traced_peak(lambda: sample_leaf_residues(config, 5, tasks=2))
        assert peak <= _peak_sample_bytes(n, 8, tasks=2)

    @pytest.mark.parametrize("m", [3, 8])
    def test_dirichlet_chunk_holds_one_draw(self, m, traced_peak):
        # a stage's (n, m) draw is released before the next one is made, so
        # a `uniform` chunk holds one draw, 8m B a row, beside five arrays
        # of n: the running total, the row offsets, the picks, the picked
        # values and their logs.  Holding the previous draw made it 16m + 32
        n = 2**16
        config = SamplerConfig(seed=1, samples=n, mode=RandomProportions(m, (1.0,) * m))
        _sample_chunk(config, 1, 10, 0, 1)  # numpy's one-time allocations
        peak = traced_peak(lambda: _sample_chunk(config, 5, 10, 0, n))
        assert peak <= (8 * m + 40) * n + 4096


@pytest.mark.parametrize(
    "call,exc,fragment",
    [
        (lambda: sample_leaf_residues(fixed(make_model([0.5])), -1), ValueError, "need N >= 0"),
        (lambda: sample_leaf_residues(fixed(make_model([0.5])), 3, tasks=0), ValueError, "need tasks >= 1"),
        (lambda: SamplerConfig(seed=1, samples=10, mode=make_model([0.5])), TypeError, "mode must be"),
        (lambda: sample_leaf_residues(fixed(make_model([0.5])), 2.5), TypeError, "N must be an integer"),
        (lambda: sample_leaf_residues(fixed(make_model([0.5])), True), TypeError, "N must be an integer"),
        (lambda: sample_leaf_residues(fixed(make_model([0.5])), 3, 1), ValueError, "base must be an integer >= 2"),
        (lambda: sample_leaf_residues(fixed(make_model([0.5])), 3, 0), ValueError, "base must be an integer >= 2"),
        (lambda: sample_leaf_residues(fixed(make_model([0.5])), 3, 2.5), ValueError, "base must be an integer >= 2"),
        (lambda: sample_leaf_residues(fixed(make_model([0.5])), 3, True), ValueError, "base must be an integer >= 2"),
        # a numpy integer N passes the count rule and reaches the base rule
        (lambda: sample_leaf_residues(fixed(make_model([0.5])), np.int64(3), 2.5), ValueError,
         "base must be an integer >= 2"),
        (lambda: RandomProportions(2.0, (1.0, 1.0)), TypeError, "m must be an integer"),
        (lambda: sample_leaf_residues(fixed(make_model([0.5])), 3, tasks=2.5), TypeError, "tasks must be an integer"),
        (lambda: sample_leaf_residues(fixed(make_model([0.5])), 3, tasks=True), TypeError, "tasks must be an integer"),
    ],
    ids=[
        "negative-n", "tasks", "foreign-mode", "float-n", "bool-n", "base-1", "base-0", "base-float", "base-bool",
        "int64-n", "dirichlet-float-m", "float-tasks", "bool-tasks",
    ],
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


def reference_indexed_csv(header):
    """The per-row writer the block writer replaced for samples and leaves: one %.17g per row."""

    def write(values, path):
        with open(path, "w") as f:
            f.write(header + "\n")
            f.writelines(f"{i},{v:.17g}\n" for i, v in enumerate(values.tolist()))

    return write


def reference_distribution_csv(dist, path):
    """write_distribution_csv before the block writer: both columns as Python floats, one row at a time."""
    with open(path, "w") as f:
        f.write("residue,mass\n")
        f.writelines(f"{r:.17g},{w:.17g}\n" for r, w in zip(dist.residues.tolist(), dist.masses.tolist()))


def reference_digits_csv(freqs, base, path):
    """write_digits_csv before the block writer."""
    lines = ["digit,frequency,benford_expected"]
    for d, (f, e) in enumerate(zip(freqs, benford_expected(base)), start=1):
        lines.append(f"{d},{f:.17g},{e:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def reference_exact_residues_csv(rows, lcm, path):
    """write_exact_residues_csv before the block writer."""
    lines = ["numerator,denominator_lcm,mass"]
    for frac_val, mass in rows:
        lines.append(f"{frac_val.numerator * (lcm // frac_val.denominator)},{lcm},{mass:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


# kind -> (public writer, the writer it replaced), both called as write(data, path)
ROW_WRITERS = {
    "samples": (write_samples_csv, reference_indexed_csv("sample_index,residue")),
    "leaves": (
        lambda v, path: write_leaves_csv(SimpleNamespace(lengths=v), path),
        reference_indexed_csv("leaf_index,length"),
    ),
    "distribution": (write_distribution_csv, reference_distribution_csv),
    "digits": (
        lambda data, path: write_digits_csv(*data, path),
        lambda data, path: reference_digits_csv(*data, path),
    ),
    "exact_residues": (
        lambda data, path: write_exact_residues_csv(*data, path),
        lambda data, path: reference_exact_residues_csv(*data, path),
    ),
}
INDEXED = ("samples", "leaves")  # the writers of one float array
EDGE_VALUES = [0.0, -0.0, 5e-324, 1e-05, 1 - 2**-53, 1.0]
B = _CSV_BLOCK_ROWS
ALL_IRRATIONAL = proportions_from_exponents(ExponentSpec((-math.sqrt(2), -math.sqrt(3))))
FIG7 = proportions_from_exponents(ExponentSpec((Fraction(-1, 2), -math.sqrt(2))))
RATIONAL_FIGURES = {
    "fig3": (Fraction(-1, 3), Fraction(-1, 2)),
    "fig4": (Fraction(-1, 4), Fraction(-1, 6)),
    "fig5": (Fraction(-1, 2), Fraction(-1, 3), Fraction(-1, 4)),
    "fig6": (Fraction(-1, 4), Fraction(-1, 2), Fraction(-1, 6)),
}


class TestRowWriterBytes:
    def assert_same_bytes(self, tmp_path, kind, data):
        write, reference = ROW_WRITERS[kind]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write(data, got)
        reference(data, want)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("kind", INDEXED)
    @pytest.mark.parametrize("measure", [MEASURE_UNIFORM, MEASURE_LENGTH])
    def test_fixed_model_samples(self, tmp_path, kind, measure):
        # fig7 at N=1000: a few hundred distinct residues in 2^17 rows
        res, dist = sample_leaf_residues(fixed(FIG7, seed=3, samples=1 << 17, measure=measure), 1000)
        assert dist.atoms < 1000
        self.assert_same_bytes(tmp_path, kind, res)

    @pytest.mark.parametrize("kind", INDEXED)
    def test_all_distinct_values(self, tmp_path, kind):
        values = np.random.default_rng(11).random(3 * B + 17)
        assert len(np.unique(values)) == len(values)
        self.assert_same_bytes(tmp_path, kind, values)

    @pytest.mark.parametrize("kind", INDEXED)
    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 3])
    def test_edge_values_and_block_lengths(self, tmp_path, kind, n):
        # edge values cycle through every block, so each block holds both
        # zeros; a value-based dedupe would write one of them wrongly
        values = np.resize(np.array(EDGE_VALUES), n)
        self.assert_same_bytes(tmp_path, kind, values)

    def test_brute_force_leaves(self, tmp_path):
        # 3^9 read-only leaf lengths over three blocks
        self.assert_same_bytes(tmp_path, "leaves", brute_force_leaves(make_model([0.3, 0.2]), 9).lengths)

    @pytest.mark.parametrize("measure", [MEASURE_UNIFORM, MEASURE_LENGTH])
    @pytest.mark.parametrize("model", [FIG7, ALL_IRRATIONAL], ids=["fig7", "all-irrational"])
    def test_distribution(self, tmp_path, model, measure):
        # N=200: 401 atoms on fig7, 20,301 (three blocks) all-irrational
        self.assert_same_bytes(tmp_path, "distribution", exact_distribution(model, 200, measure=measure))

    def test_distribution_edge_values(self, tmp_path):
        # residue and mass columns share values, and one block holds both zeros
        values = np.resize(np.array(EDGE_VALUES), B + 5)
        dist = SimpleNamespace(residues=values, masses=values[::-1].copy())
        self.assert_same_bytes(tmp_path, "distribution", dist)

    @pytest.mark.parametrize("base", [10, 7])
    def test_digits(self, tmp_path, base):
        dist = exact_distribution(FIG7, 100, base=base, measure=MEASURE_LENGTH)
        self.assert_same_bytes(tmp_path, "digits", (benford_report(dist, base).leading_digit_freqs, base))

    @pytest.mark.parametrize("measure", [MEASURE_UNIFORM, MEASURE_LENGTH])
    @pytest.mark.parametrize("figure", RATIONAL_FIGURES)
    def test_exact_residues(self, tmp_path, figure, measure):
        y = RATIONAL_FIGURES[figure]
        model = proportions_from_exponents(ExponentSpec(y))
        rows = exact_residue_distribution(y, 1000, model, measure)
        self.assert_same_bytes(tmp_path, "exact_residues", (rows, exact_residues_rational(y, 1000).lcm))

    def test_exact_residues_beyond_int64(self, tmp_path):
        # numerators and the common denominator past 2^63, over two blocks
        lcm = 3**50
        rows = [(Fraction(k, lcm), 1.0 / (k + 1)) for k in range(lcm - B - 5, lcm)]
        self.assert_same_bytes(tmp_path, "exact_residues", (rows, lcm))
