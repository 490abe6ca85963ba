import math
import os
import stat
import timeit
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from stickfrag import (
    FixedProportions,
    MEASURE_LENGTH,
    MEASURE_UNIFORM,
    ProportionVector,
    RandomProportions,
    ResourceLimitError,
    SamplerConfig,
    WeightedMod1Distribution,
    atom_for,
    composition_count,
    compositions,
    distribution_from_residues,
    exact_distribution,
    log_multinomial,
    ExponentSpec,
    make_model,
    proportions_from_exponents,
    rotate_distribution,
    sample_leaf_residues,
    write_distribution_csv,
)
from stickfrag import enumeration
from stickfrag.enumeration import (
    MEASURES,
    MERGE_TOL,
    _CHUNK_ROWS,
    _RADIX_BUCKETS,
    _RUN_ROWS,
    _cluster_starts,
    _count_text,
    _frac,
    _lgamma_sums,
    _log_masses,
    _merge_atoms,
    _peak_bytes,
    _residues,
    _stable_order,
    composition_array,
)
from stickfrag.montecarlo import write_metadata_json, write_samples_csv
from stickfrag.oracle import brute_force_leaves, distribution_from_leaves

FIG7 = proportions_from_exponents(ExponentSpec((Fraction(-1, 2), -math.sqrt(2))))
FIG9 = proportions_from_exponents(ExponentSpec((-math.sqrt(2), Fraction(-1, 3), Fraction(-1, 4))))


def exact_multinomial(N, k):
    """Independent oracle: integer factorial arithmetic."""
    v = math.factorial(N)
    for kj in k:
        v //= math.factorial(kj)
    return v


def reference_merge(residues, weights, loop_max=4096):
    """_merge_atoms with its former per-cluster loop: two slice sums per cluster.

    Up to loop_max clusters it sums each cluster's 1-d slice, above that it
    uses bincount, as _merge_atoms does at loop_max=4096.
    """
    order = np.argsort(residues, kind="stable")
    r = residues[order]
    w = weights[order]
    boundary = np.empty(len(r), dtype=bool)
    boundary[0] = True
    np.greater(np.diff(r), MERGE_TOL, out=boundary[1:])
    cid = np.cumsum(boundary) - 1
    n_clusters = int(cid[-1]) + 1
    if n_clusters <= loop_max:
        starts = np.flatnonzero(boundary)
        ends = np.append(starts[1:], len(r))
        mass = np.array([w[a:b].sum() for a, b in zip(starts, ends)])
        rep = np.array([r[a:b].sum() for a, b in zip(starts, ends)]) / (ends - starts)
    else:
        mass = np.bincount(cid, weights=w, minlength=n_clusters)
        counts = np.bincount(cid, minlength=n_clusters)
        rep = np.bincount(cid, weights=r, minlength=n_clusters) / counts
    return rep, mass


def clustered_atoms(lens, seed):
    """Shuffled atoms in len(lens) clusters; cluster i holds lens[i] atoms
    jittered well inside the merge tolerance, clusters far apart."""
    rng = np.random.default_rng(seed)
    lens = np.asarray(lens)
    centers = (np.arange(len(lens)) + 0.5) / len(lens)
    residues = np.repeat(centers, lens) + rng.uniform(-0.4 * MERGE_TOL, 0.4 * MERGE_TOL, lens.sum())
    weights = rng.random(lens.sum())
    perm = rng.permutation(lens.sum())
    return residues[perm], weights[perm]


def bits(a):
    return a.view(np.int64)


class TestCompositions:
    def test_order_n2_m3(self):
        # frozen stream order (first part descending)
        assert [c.k for c in compositions(2, 3)] == [
            (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
        ]

    def test_n0(self):
        assert [c.k for c in compositions(0, 2)] == [(0, 0)]

    def test_errors(self):
        with pytest.raises(ValueError):
            list(compositions(2, 1))
        with pytest.raises(ValueError):
            list(compositions(-1, 2))

    @pytest.mark.parametrize(
        "N,m",
        [(50, 2), (50, 3), (30, 4), (15, 5), (10, 6), (0, 4), (1, 6)],
    )
    def test_count_matches_binomial(self, N, m):
        comps = list(compositions(N, m))
        assert len(comps) == composition_count(N, m) == math.comb(N + m - 1, m - 1)
        seen = set(c.k for c in comps)
        assert len(seen) == len(comps)
        assert all(sum(c.k) == N for c in comps)

    def test_count_example_n1000_m3(self):
        assert composition_count(1000, 3) == math.comb(1002, 2) == 501501

    @pytest.mark.parametrize(
        "N,m",
        [(6, 2), (5, 3), (4, 4), (3, 5), (0, 3),
         (0, 2), (1, 2), (37, 2),  # m=2: no middle level
         (0, 4), (0, 5), (0, 6), (10, 6),
         (200, 3), (40, 4),  # the benchmark's shapes
         (3, 8), (0, 10), (4, 10)],
    )
    def test_array_matches_stream(self, N, m):
        arr = composition_array(N, m)
        assert arr.tolist() == [list(c.k) for c in compositions(N, m)]

    @pytest.mark.parametrize("N,m", [(1000, 3), (100, 4), (12, 8)])
    def test_array_properties_at_scale(self, N, m):
        # every row a composition of N, rows strictly descending
        # lexicographically, and as many rows as compositions: together these
        # pin down the compositions() order without streaming it
        arr = composition_array(N, m)
        assert arr.dtype == np.int64 and arr.flags.c_contiguous
        assert arr.shape == (composition_count(N, m), m)
        assert arr.min() >= 0
        assert np.all(arr.sum(axis=1) == N)
        diff = arr[:-1] - arr[1:]
        nonzero = diff != 0
        first = np.argmax(nonzero, axis=1)
        assert np.all(nonzero.any(axis=1))
        assert np.all(diff[np.arange(len(diff)), first] > 0)

    @pytest.mark.parametrize("m,N", [(3, 1000), (8, 22), (10, 15)])
    def test_array_working_set(self, m, N, traced_peak):
        # a middle level holds the new table beside the previous level, its
        # counts and starts; filling the remainder column then adds 8 B a row
        rows, prev = composition_count(N, m), composition_count(N, m - 1)
        bound = max(8 * m * rows + (8 * m + 16) * prev, (8 * m + 8) * rows + 16 * prev)
        assert traced_peak(lambda: composition_array(N, m)) <= bound + 64 * 1024


class TestLogMultinomial:
    def test_examples(self):
        assert math.isclose(log_multinomial(4, (2, 1, 1)), math.log(12), rel_tol=1e-12)
        assert log_multinomial(5, (5, 0, 0)) == 0.0
        assert math.isclose(log_multinomial(2, (1, 1)), math.log(2), rel_tol=1e-12)

    def test_against_integer_factorials(self):
        for N in range(0, 21, 4):
            for c in compositions(N, 3):
                expected = math.log(exact_multinomial(N, c.k))
                got = log_multinomial(N, c)
                assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("N,m", [(200, 3), (12, 4), (6, 8), (5, 10)])
    def test_bit_identical_to_engine_rows(self, N, m):
        # the engine's lgt[N] - _lgamma_sums on every row; subtracting the
        # parts' terms one by one differed on 13,433 of the 20,301 rows at (200, 3)
        K = composition_array(N, m)
        lgt = np.array([math.lgamma(i + 1) for i in range(N + 1)])
        engine = lgt[N] - _lgamma_sums(lgt, K)
        mine = np.array([log_multinomial(N, row) for row in K.tolist()])
        assert np.array_equal(mine.view(np.int64), engine.view(np.int64))

    def test_rejects_non_composition(self):
        with pytest.raises(ValueError):
            log_multinomial(4, (2, 1))
        with pytest.raises(ValueError):
            log_multinomial(4, (-1, 5))


class TestAtomFor:
    def test_half_model_single_cut(self):
        r, lu, ll = atom_for(make_model([0.5]), (1, 0))
        # oracle: frac(log10 0.5) evaluated directly
        assert r == pytest.approx(math.log10(0.5) + 1.0, abs=1e-15)
        assert r == pytest.approx(0.6989700043360188, abs=1e-12)

    def test_zero_composition(self):
        r, lu, ll = atom_for(make_model([0.3, 0.3]), (0, 0, 0))
        assert (r, lu, ll) == (0.0, 0.0, 0.0)

    def test_length_mass_example(self):
        _, _, ll = atom_for(make_model([0.3, 0.3]), (1, 1, 0))
        assert ll == pytest.approx(math.log(2) + math.log(0.09), abs=1e-12)

    def test_mismatched_m(self):
        with pytest.raises(ValueError):
            atom_for(make_model([0.5]), (1, 0, 0))

    def test_rejects_negative_part(self):
        # a negative part would otherwise index the lgamma table from its end
        with pytest.raises(ValueError):
            atom_for(make_model([0.5]), (-1, 2))

    def test_large_n(self):
        # only the parts' own lgamma values are needed, not a table of N + 1
        N = 10**6
        k = (N - 2, 1, 1)
        model = make_model([0.2, 0.45])
        r, lu, ll = atom_for(model, k)
        assert r == pytest.approx(sum(kj * math.log10(p) for kj, p in zip(k, model.p)) % 1.0, abs=1e-7)
        assert lu == pytest.approx(log_multinomial(N, k) - N * math.log(3), rel=1e-12)
        assert ll == pytest.approx(
            log_multinomial(N, k) + sum(kj * math.log(p) for kj, p in zip(k, model.p)), rel=1e-12
        )

    def test_bit_identical_to_table_rows(self):
        # the rows as exact_distribution builds them, from its lgamma table of
        # N + 1 values and numpy's row sum, which TestRowSums holds
        # _lgamma_sums to (its column adds at m=3 and m=5, numpy's at m=8)
        for p, N in (([0.17, 0.52], 300), ([0.17, 0.22, 0.08, 0.31], 30),
                     ([0.17, 0.05, 0.22, 0.08, 0.11, 0.09, 0.13], 12)):
            model = make_model(p)
            K = composition_array(N, model.m)
            lgt = np.array([math.lgamma(i + 1) for i in range(N + 1)])
            for base in (10, 7):
                logmult = lgt[N] - lgt[K].sum(axis=1)
                residues = _residues(K, model.p, base)
                lu, ll = (_log_masses(K, logmult, model, x, np.empty(len(K))) for x in MEASURES)
                for i in np.random.default_rng(3).choice(len(K), 200, replace=False).tolist() + [0, len(K) - 1]:
                    got = np.array(atom_for(model, K[i].tolist(), base))
                    assert np.array_equal(got.view(np.int64), np.array([residues[i], lu[i], ll[i]]).view(np.int64))

    def test_factorization_identity(self):
        # sum k_j log p_j == k1 log(p1/p2) + (k1+k2) log(p2/p3) + ... + N log pm
        rng = np.random.default_rng(5)
        for _ in range(25):
            m = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(m))
            model = ProportionVector(tuple(p))
            N = int(rng.integers(0, 40))
            k = rng.multinomial(N, np.ones(m) / m)
            direct = sum(int(kj) * math.log10(pj) for kj, pj in zip(k, model.p))
            partial = np.cumsum(k)[:-1]
            tele = sum(
                s * math.log10(model.p[i] / model.p[i + 1]) for i, s in enumerate(partial)
            ) + N * math.log10(model.p[-1])
            assert direct == pytest.approx(tele, abs=1e-9)


class TestRowSums:
    @pytest.fixture(params=range(2, 13), ids=lambda m: f"m{m}")
    def tables(self, request):
        m = request.param
        rng = np.random.default_rng(m)
        lgt = np.array([math.lgamma(i + 1) for i in range(5001)])
        # (lgt, K): random indices into an lgamma table (+0.0 at 0 and 1),
        # the compositions of 6, and positive doubles with full-precision
        # bits over twenty decades in place of the lgamma table
        return [
            (lgt, rng.integers(0, len(lgt), size=(4000, m))),
            (lgt, composition_array(6, m)),
            (rng.random(5001) * 10.0 ** rng.uniform(-10, 10, size=5001), rng.integers(0, 5001, size=(4000, m))),
        ]

    def test_bit_identical_to_numpy_row_sum(self, tables):
        for lgt, K in tables:
            assert np.array_equal(bits(_lgamma_sums(lgt, K)), bits(lgt[K].sum(axis=1)))

    def test_adds_in_place(self, tables, traced_peak):
        # below 8 columns each column's gather is added in place into the
        # sums, so one gather is live beside them; from 8 the (rows, m)
        # gather is reduced into a new row of sums
        for lgt, K in tables:
            rows, m = K.shape
            bound = 16 * rows if m < 8 else (8 * m + 8) * rows
            assert traced_peak(lambda: _lgamma_sums(lgt, K)) <= bound + 1024


class TestExactDistribution:
    def test_half_model_one_stage(self):
        d = exact_distribution(make_model([0.5]), 1)
        assert d.atoms == 1
        assert d.residues[0] == pytest.approx(0.6989700043360188, abs=1e-12)
        assert d.masses[0] == pytest.approx(1.0, abs=1e-15)

    def test_n0_single_atom(self):
        d = exact_distribution(make_model([0.3, 0.3]), 0)
        assert d.atoms == 1 and d.residues[0] == 0.0 and d.masses[0] == 1.0

    @pytest.mark.parametrize("measure", [MEASURE_UNIFORM, MEASURE_LENGTH])
    def test_mass_normalization(self, measure):
        rng = np.random.default_rng(17)
        for _ in range(8):
            m = int(rng.integers(2, 5))
            N = int(rng.integers(0, 201 if m < 4 else 101))
            model = ProportionVector(tuple(rng.dirichlet(np.ones(m))))
            d = exact_distribution(model, N, measure=measure)
            assert abs(d.total_mass() - 1.0) <= 1e-10

    def test_binomial_weights_m2(self):
        # uniform measure reproduces C(N,k)/2^N; oracle is exact integer comb
        N = 50
        model = make_model([0.3])
        d = exact_distribution(model, N, measure=MEASURE_UNIFORM)
        logp = [math.log10(p) for p in model.p]
        expected = sorted(
            ((k * logp[0] + (N - k) * logp[1]) % 1.0, math.comb(N, k) / 2.0**N)
            for k in range(N + 1)
        )
        assert d.atoms == N + 1
        for (r_exp, m_exp), r_got, m_got in zip(expected, d.residues, d.masses):
            assert r_got == pytest.approx(r_exp, abs=1e-9)
            assert m_got == pytest.approx(m_exp, rel=1e-10)

    def test_length_measure_is_multinomial_probability(self):
        # oracle: exact integer multinomial times p^k per composition
        model = make_model([0.2, 0.5])
        N = 9
        d = exact_distribution(model, N, measure=MEASURE_LENGTH)
        acc = {}
        for c in compositions(N, 3):
            r, _, _ = atom_for(model, c)
            w = exact_multinomial(N, c.k) * math.prod(p**kj for p, kj in zip(model.p, c.k))
            key = round(r, 9)
            acc[key] = acc.get(key, 0.0) + w
        expected = sorted(acc.items())
        assert d.atoms == len(expected)
        for (r_exp, m_exp), r_got, m_got in zip(expected, d.residues, d.masses):
            assert r_got == pytest.approx(r_exp, abs=1e-9)
            assert m_got == pytest.approx(m_exp, rel=1e-10)

    def test_permutation_leaves_atoms_unchanged(self):
        rng = np.random.default_rng(23)
        model = ProportionVector(tuple(rng.dirichlet(np.ones(3))))
        d1 = exact_distribution(model, 12)
        d2 = exact_distribution(model.permuted((2, 0, 1)), 12)
        assert d1.atoms == d2.atoms
        assert np.allclose(d1.residues, d2.residues, atol=1e-9)
        assert np.allclose(d1.masses, d2.masses, atol=1e-12)

    def test_resource_cap(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_BYTE_LIMIT", 1000)
        with pytest.raises(ResourceLimitError, match=r"C\(102,2\) = 5151 compositions need an estimated "
                           r"\d+ bytes, above the limit of 1000 bytes"):
            exact_distribution(make_model([0.3, 0.3]), 100)

    @pytest.mark.parametrize("m,N", [(3, 14_000), (10, 27), (4, 2000)], ids=["m3-N14000", "m10-N27", "fig5-N2000"])
    def test_refusal_allocates_nothing(self, m, N, monkeypatch, traced_peak):
        # 7.1, 9.8 and 96 GB by the estimate; the refusal is closed-form arithmetic before any array
        def no_table(N, m):
            raise AssertionError("the guard should refuse before the composition table")

        monkeypatch.setattr(enumeration, "composition_array", no_table)
        model = ProportionVector(tuple(np.full(m, 1.0 / m)))

        def refuse():
            with pytest.raises(ResourceLimitError, match="above the limit of 4294967296 bytes"):
                exact_distribution(model, N)

        assert traced_peak(refuse) < 64 * 1024
        assert min(timeit.repeat(refuse, number=1, repeat=5)) < 0.01

    @pytest.mark.parametrize(
        "model,N",
        [
            *((ProportionVector(tuple(np.random.default_rng(m).dirichlet(np.ones(m)))), N)
              for m, N in ((2, 300_000), (3, 774), (4, 120), (6, 30), (8, 17), (10, 12), (10, 15))),
            (FIG7, 774),
            (FIG9, 120),
        ],
        ids=["m2", "m3", "m4", "m6", "m8", "m10", "m10-N15", "fig7", "fig9"],
    )
    @pytest.mark.parametrize("measure", MEASURES)
    def test_peak_estimate_bounds_traced_peak(self, model, N, measure, traced_peak):
        # about 3e5 compositions each: every atom distinct on the random
        # models, merging on fig7 and fig9, whose peak is lower.  m10-N15
        # (1.3e6) is where the table's last level sets the peak
        peak = traced_peak(lambda: exact_distribution(model, N, measure=measure))
        assert peak <= _peak_bytes(N, model.m) <= 1.5 * peak

    def test_merging_tolerance(self):
        d = distribution_from_residues(
            np.array([0.5, 0.5 + 5e-13, 0.25, 0.5 - 4e-13]), MEASURE_UNIFORM, 1, 2
        )
        assert d.atoms == 2
        assert d.masses[1] == pytest.approx(0.75)

    def test_wrap_snap_near_one(self):
        d = distribution_from_residues(np.array([1.0 - 1e-13, 2e-13]), MEASURE_UNIFORM, 1, 2)
        assert d.atoms == 1
        assert d.residues[0] == pytest.approx(0.0, abs=1e-12)

    def test_threads_match_canonical(self):
        model = make_model([0.3, 0.2])
        d1 = exact_distribution(model, 120, threads=1)
        d2 = exact_distribution(model, 120, threads=3)
        assert np.array_equal(d1.residues, d2.residues)
        assert np.array_equal(d1.masses, d2.masses)

    def test_working_set_per_composition(self, traced_peak):
        # fig7 at N=1000: 501,501 compositions.  The composition table, the
        # atom table and the merge each hold about 40 B per composition and
        # die at their last use; holding them all at once took about 97 B.
        N = 1000
        peak = traced_peak(lambda: exact_distribution(FIG7, N, measure=MEASURE_LENGTH))
        assert peak <= 70 * composition_count(N, 3)

    def test_working_set_per_sample(self, traced_peak):
        # 2**17 fig7 samples: the residue copy, its sorted copy and the
        # cluster scan take about 25 B per row; a stable permutation and the
        # weights gathered by it made that 33
        n = 2**17
        residues, _ = sample_leaf_residues(SamplerConfig(seed=1, samples=n, mode=FixedProportions(FIG7)), 1000)
        peak = traced_peak(lambda: distribution_from_residues(residues, MEASURE_UNIFORM, 1000, 3))
        assert peak <= 28 * n

    def test_atoms_match_atom_for(self):
        model = make_model([0.25, 0.35])
        N = 7
        d = exact_distribution(model, N, measure=MEASURE_LENGTH)
        raw = [atom_for(model, c) for c in compositions(N, 3)]
        total = math.fsum(math.exp(ll) for _, _, ll in raw)
        assert total == pytest.approx(1.0, abs=1e-12)
        for r, _, ll in raw:
            i = int(np.argmin(np.abs(d.residues - r)))
            assert abs(d.residues[i] - r) < 1e-9


def test_count_text_bounds_large_counts():
    # exact up to 10^18, as the guards printed every count before
    assert _count_text(2, 30) == "1073741824"
    assert _count_text(10**18) == "1000000000000000000"
    assert _count_text(32 * 10**9, spec=".3g") == "3.2e+10"
    # above, the order of magnitude: 3**10^8 is never raised, and neither
    # str() of a 5001-digit int nor a float format of it is tried
    assert _count_text(10**19) == "about 10^19.0"
    assert _count_text(3, 10**8) == "about 10^47712125.5"
    assert _count_text(10**5000, spec=".3g") == "about 10^5000.0"
    # an exponent past float range: the digit count by its own order of
    # magnitude, from the logs of the ints alone
    assert _count_text(2, 10**400) == "about 10^(10^399.5)"


class TestDistributionValidation:
    @pytest.mark.parametrize(
        "residues,masses",
        [([0.1, np.nan], [0.5, 0.5]), ([0.1, 0.2], [0.5, np.nan])],
        ids=["nan-residue", "nan-mass"],
    )
    def test_nan_refused(self, residues, masses):
        # NaN compares False with everything, so no ordering or sum check sees it
        with pytest.raises(ValueError, match="finite"):
            WeightedMod1Distribution(np.array(residues), np.array(masses), MEASURE_UNIFORM, 1, 2)


MODEL3 = make_model([0.3, 0.3])


def atoms(residues, masses, measure=MEASURE_UNIFORM):
    return WeightedMod1Distribution(np.array(residues), np.array(masses), measure, 1, 2)


@pytest.mark.parametrize(
    "call,exc,fragment",
    [
        (lambda: exact_distribution(MODEL3, 3, 10, "lenght"), ValueError, "unknown measure"),
        (lambda: exact_distribution(MODEL3, -1), ValueError, "need N >= 0"),
        (lambda: exact_distribution(MODEL3, 3, threads=0), ValueError, "need threads >= 1"),
        (lambda: atoms([0.1, 0.2], [1.0]), ValueError, "equal-length"),
        (lambda: atoms([0.2, 0.1], [0.5, 0.5]), ValueError, "strictly ascending"),
        (lambda: atoms([0.1, 0.2], [1.5, -0.5]), ValueError, "nonnegative"),
        (lambda: atoms([0.1, 0.2], [0.5, 0.6]), ValueError, "not 1 within"),
        (lambda: atoms([0.1, 0.2], [0.5, 0.5], "lenght"), ValueError, "unknown measure"),
        (lambda: distribution_from_residues(np.array([]), MEASURE_UNIFORM, 1, 2), ValueError, "at least one residue"),
        # compositions() never ends on a non-integer N it lets through, so
        # one row is drawn through islice: a regression fails, not hangs
        (lambda: list(islice(compositions(2.5, 3), 1)), TypeError, "N must be an integer, got 2.5"),
        (lambda: list(islice(compositions(True, 3), 1)), TypeError, "N must be an integer, got True"),
        (lambda: composition_array(2.5, 3), TypeError, "N must be an integer"),
        (lambda: composition_array(True, 3), TypeError, "N must be an integer"),
        (lambda: exact_distribution(MODEL3, 2.5), TypeError, "N must be an integer"),
        (lambda: exact_distribution(MODEL3, True), TypeError, "N must be an integer"),
        (lambda: log_multinomial(2.5, (1, 1)), TypeError, "N must be an integer"),
        (lambda: log_multinomial(True, (1, 0)), TypeError, "N must be an integer"),
        (lambda: log_multinomial(2, (1.5, 0.5)), TypeError, "part must be an integer"),
        (lambda: atom_for(MODEL3, (1.5, 1.5, 0)), TypeError, "part must be an integer"),
        (lambda: exact_distribution(MODEL3, 3, 1), ValueError, "base must be an integer >= 2"),
        (lambda: exact_distribution(MODEL3, 3, 0), ValueError, "base must be an integer >= 2"),
        (lambda: exact_distribution(MODEL3, 3, 2.5), ValueError, "base must be an integer >= 2"),
        (lambda: exact_distribution(MODEL3, 3, True), ValueError, "base must be an integer >= 2"),
        (lambda: atom_for(MODEL3, (1, 1, 0), 1), ValueError, "base must be an integer >= 2"),
        (lambda: atom_for(MODEL3, (1, 1, 0), 0), ValueError, "base must be an integer >= 2"),
        (lambda: atom_for(MODEL3, (1, 1, 0), 2.5), ValueError, "base must be an integer >= 2"),
        (lambda: atom_for(MODEL3, (1, 1, 0), True), ValueError, "base must be an integer >= 2"),
        # a numpy integer N passes the count rule and reaches the base rule
        (lambda: exact_distribution(MODEL3, np.int64(3), 2.5), ValueError, "base must be an integer >= 2"),
        # a numpy N is judged as the Python int it stands for, so the guard's
        # arithmetic neither overflows nor wraps
        (lambda: exact_distribution(MODEL3, np.int64(2**63 - 1)), ResourceLimitError, "compositions need an estimated"),
        (lambda: exact_distribution(MODEL3, np.int64(2**62)), ResourceLimitError, "compositions need an estimated"),
        (lambda: exact_distribution(MODEL3, 3, threads=2.5), TypeError, "threads must be an integer"),
        (lambda: composition_count(2.5, 3), TypeError, "N must be an integer"),
    ],
    ids=[
        "exact-measure", "exact-negative-n", "exact-threads", "dist-shapes", "dist-unsorted",
        "dist-negative-mass", "dist-sum", "dist-measure", "residues-empty",
        "compositions-float-n", "compositions-bool-n", "array-float-n", "array-bool-n",
        "exact-float-n", "exact-bool-n", "multinomial-float-n", "multinomial-bool-n", "multinomial-float-part",
        "atom-float-part", "exact-base-1", "exact-base-0", "exact-base-float", "exact-base-bool",
        "atom-base-1", "atom-base-0", "atom-base-float", "atom-base-bool", "exact-int64-n",
        "exact-int64-n-max", "exact-int64-n-2-62", "exact-float-threads", "count-float-n",
    ],
)
def test_argument_checks(call, exc, fragment):
    with pytest.raises(exc, match=fragment):
        call()


def test_numpy_count_is_the_int_count():
    assert composition_count(np.int64(2**63 - 1), np.int64(3)) == composition_count(2**63 - 1, 3)


def test_numpy_base_gives_the_int_base_bits():
    a, b = exact_distribution(MODEL3, 12, np.int64(7)), exact_distribution(MODEL3, 12, 7)
    assert np.array_equal(a.residues, b.residues) and np.array_equal(a.masses, b.masses)


CLUSTER_LENS = [
    [7] * 300 + [3] * 200 + [40] * 50,  # many clusters share a length
    list(range(1, 300)),  # every length distinct
    [100_000],  # one big cluster
    [100_000, 100_000, 9],  # two big clusters of one length
    [1] * 2000,  # singletons
    # lengths on both sides of 1024, all summed as slices
    [1023] * 3 + [1024] * 3 + [1025] * 2 + [5] * 50,
    # every length that is padded to a width of 8 lengths, the first ones
    # summed at their own length, and both sides of 1024
    list(range(1, 131)) + [1023, 1024, 1025],
    # lengths on both sides of the bound from which clusters are summed as
    # slices rather than padded gathers
    [127] * 3 + [128] * 3 + [129] * 2 + [5] * 50,
]
CLUSTER_IDS = ["shared", "distinct", "big", "big-pair", "singletons", "slice-bound", "every-short", "pad-bound"]


def equal_weight_merge_matches_reference(residues, c):
    """_merge_atoms on one weight c broadcast against the stable-order
    reference on the same weight materialised; returns the merged atoms."""
    n = len(residues)
    rep, mass = _merge_atoms(residues.copy(), np.broadcast_to(c, n))
    ref_rep, ref_mass = reference_merge(residues, np.full(n, c))
    assert np.array_equal(bits(rep), bits(ref_rep))
    assert np.array_equal(bits(mass), bits(ref_mass))
    return rep, mass


class TestMergeAtoms:
    @pytest.mark.parametrize("lens", CLUSTER_LENS, ids=CLUSTER_IDS)
    def test_bit_identical_to_slice_loop(self, lens):
        residues, weights = clustered_atoms(lens, seed=len(lens))
        rep, mass = _merge_atoms(residues.copy(), weights)
        ref_rep, ref_mass = reference_merge(residues, weights)
        assert len(rep) == len(lens)
        assert np.array_equal(bits(rep), bits(ref_rep))
        assert np.array_equal(bits(mass), bits(ref_mass))

    @pytest.mark.parametrize("n_values", [50, 5000], ids=["pairwise", "bincount"])
    def test_exact_ties_keep_input_order(self, n_values):
        # residues drawn with repetition from n_values floats (0.0, the value
        # _frac snaps to, among them) tie exactly but carry distinct weights,
        # so a cluster's sum order is the tie order of the sort
        rng = np.random.default_rng(n_values)
        values = np.append(rng.random(n_values - 1), 0.0)
        residues = rng.choice(values, 20_000)
        weights = rng.random(20_000)
        rep, mass = _merge_atoms(residues.copy(), weights)
        ref_rep, ref_mass = reference_merge(residues, weights)
        assert len(rep) == len(np.unique(residues))
        assert np.array_equal(bits(rep), bits(ref_rep))
        assert np.array_equal(bits(mass), bits(ref_mass))

    @pytest.mark.parametrize("n_clusters,other_loop_max", [(4096, 4095), (4097, 4097)])
    def test_branch_boundary(self, n_clusters, other_loop_max):
        # 4096 clusters take the pairwise sums, 4097 take bincount; lengths
        # up to 40 make the two disagree, so a moved boundary shows
        lens = np.random.default_rng(n_clusters).integers(1, 41, n_clusters)
        residues, weights = clustered_atoms(lens, seed=n_clusters)
        rep, mass = _merge_atoms(residues.copy(), weights)
        ref_rep, ref_mass = reference_merge(residues, weights)
        assert np.array_equal(bits(rep), bits(ref_rep))
        assert np.array_equal(bits(mass), bits(ref_mass))
        other_rep, other_mass = reference_merge(residues, weights, loop_max=other_loop_max)
        assert not (np.array_equal(bits(other_rep), bits(rep)) and np.array_equal(bits(other_mass), bits(mass)))

    @pytest.mark.parametrize("equal", [False, True], ids=["weighted", "equal"])
    def test_sorts_residues_in_place(self, equal):
        # the merge overwrites its residues with their sorted values, which
        # are what the stable permutation gathers
        residues, weights = clustered_atoms(CLUSTER_LENS[0], seed=1)
        if equal:
            weights = np.broadcast_to(1.0 / len(residues), len(residues))
        given = residues.copy()
        _merge_atoms(given, weights)
        assert np.array_equal(bits(given), bits(residues[np.argsort(residues, kind="stable")]))

    @pytest.mark.parametrize("edge_step", [1e-6, 0.0], ids=["gap", "no-gap"])
    @pytest.mark.parametrize("n", [_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1])
    def test_cluster_starts_match_diff(self, n, edge_step):
        # gaps are taken a block of _CHUNK_ROWS at a time; a gap above the
        # tolerance (or none) sits on each side of every block edge, the
        # other steps straddle the tolerance.  Both kinds catch an edge
        # left unset in the uninitialised mask
        rng = np.random.default_rng(n)
        steps = rng.uniform(0.0, 2 * MERGE_TOL, n)
        edges = np.array([1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS, 2 * _CHUNK_ROWS + 1])
        edges = edges[edges < n]
        steps[edges] = edge_step
        points = np.cumsum(steps)
        want = np.concatenate([[True], np.diff(points) > MERGE_TOL])
        assert (want[edges] == (edge_step > 0)).all()
        assert np.array_equal(_cluster_starts(points, MERGE_TOL), want)

    @pytest.mark.parametrize("lens", CLUSTER_LENS, ids=CLUSTER_IDS)
    def test_equal_weight_clustered(self, lens):
        # one weight broadcast takes the value sort; its bits must be the
        # stable permutation's
        residues, _ = clustered_atoms(lens, seed=len(lens))
        rep, _ = equal_weight_merge_matches_reference(residues, 1.0 / len(residues))
        assert len(rep) == len(lens)

    @pytest.mark.parametrize("n_values", [50, 5000], ids=["pairwise", "bincount"])
    def test_equal_weight_exact_ties(self, n_values):
        rng = np.random.default_rng(n_values)
        values = np.append(rng.random(n_values - 1), 0.0)
        residues = rng.choice(values, 20_000)
        rep, _ = equal_weight_merge_matches_reference(residues, 1.0 / 20_000)
        assert len(rep) == len(np.unique(residues))

    @pytest.mark.parametrize("n_clusters,other_loop_max", [(4096, 4095), (4097, 4097)])
    def test_equal_weight_branch_boundary(self, n_clusters, other_loop_max):
        lens = np.random.default_rng(n_clusters).integers(1, 41, n_clusters)
        residues, _ = clustered_atoms(lens, seed=n_clusters)
        c = 1.0 / len(residues)
        rep, mass = equal_weight_merge_matches_reference(residues, c)
        other_rep, other_mass = reference_merge(residues, np.full(len(residues), c), loop_max=other_loop_max)
        assert not (np.array_equal(bits(other_rep), bits(rep)) and np.array_equal(bits(other_mass), bits(mass)))

    def test_equal_weight_brute_force_leaves(self):
        leaves = brute_force_leaves(ProportionVector((0.3, 0.7)), 15)
        residues = _frac(np.log10(leaves.lengths))
        equal_weight_merge_matches_reference(residues, 1.0 / len(residues))

    @pytest.mark.parametrize(
        "mode,N",
        [
            (FixedProportions(FIG7), 1000),
            (RandomProportions(3, (1.0, 1.0, 1.0)), 100),
        ],
        ids=["fig7", "dirichlet"],
    )
    def test_equal_weight_samples(self, mode, N):
        residues, _ = sample_leaf_residues(SamplerConfig(seed=3, samples=2**15, mode=mode), N)
        equal_weight_merge_matches_reference(residues, 1.0 / len(residues))


def numpy_order(residues):
    """The permutation _stable_order must return: numpy's stable argsort of the bit patterns."""
    return np.argsort(residues.view(np.int64), kind="stable")


def assert_numpy_order(residues):
    assert np.array_equal(_stable_order(residues), numpy_order(residues))


# the appendix figures' exponents, at the N the appendix benchmark runs them
APPENDIX_EXPONENTS = {
    "fig3": (Fraction(-1, 3), Fraction(-1, 2)),
    "fig4": (Fraction(-1, 4), Fraction(-1, 6)),
    "fig5": (Fraction(-1, 2), Fraction(-1, 3), Fraction(-1, 4)),
    "fig6": (Fraction(-1, 4), Fraction(-1, 2), Fraction(-1, 6)),
    "fig7": (Fraction(-1, 2), -math.sqrt(2)),
    "fig8": (Fraction(-1, 3), -math.sqrt(3)),
    "fig9": (-math.sqrt(2), Fraction(-1, 3), Fraction(-1, 4)),
    "fig10": (-math.sqrt(3), Fraction(-1, 10), Fraction(-1, 8)),
}
APPENDIX_N = {3: 200, 4: 40}
BRUTE_POINTS = [(ProportionVector((0.3, 0.7)), 19), (FIG7, 11), (FIG9, 9)]


class TestStableOrder:
    def test_exact_ties(self):
        rng = np.random.default_rng(1)
        assert_numpy_order(rng.choice(np.append(rng.random(300), 0.0), 50_000))

    def test_bucket_edges(self):
        # k / 2^16 is a bucket's first value and the ulp below it the last
        # of the bucket before; each appears many times, shuffled
        rng = np.random.default_rng(2)
        edges = np.append(rng.integers(1, _RADIX_BUCKETS, 500), [1, 2, _RADIX_BUCKETS - 1]) / _RADIX_BUCKETS
        values = np.concatenate([[0.0], edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
        residues = rng.choice(values, 40_000)
        assert np.array_equal(np.floor(edges * _RADIX_BUCKETS) - 1, np.floor(np.nextafter(edges, 0.0) * _RADIX_BUCKETS))
        assert_numpy_order(residues)

    def test_extreme_values(self):
        # +0.0, the smallest subnormal, the largest subnormal, the smallest
        # normal and the largest double below 1, which lands in the last bucket
        tiny = np.finfo(np.float64).smallest_normal
        values = np.array([0.0, 5e-324, np.nextafter(tiny, 0.0), tiny, 1.0 - 2.0**-53, 0.5])
        assert int(values[4] * _RADIX_BUCKETS) == _RADIX_BUCKETS - 1
        rng = np.random.default_rng(3)
        assert_numpy_order(rng.choice(values, 10_000))
        assert_numpy_order(values[::-1].copy())

    def test_two_patterns_alternating_in_one_bucket(self):
        # the ulp above 0.5 and 0.5 share a bucket and alternate row by row,
        # so every row of the run is out of order after the radix pass
        a = np.nextafter(0.5, 1.0)
        residues = np.tile([a, 0.5], 3 * _RUN_ROWS)
        assert_numpy_order(residues)
        assert_numpy_order(np.concatenate([np.linspace(0.0, 0.9, 1000), residues, np.linspace(0.9, 0.0, 1000)]))

    def test_run_longer_than_a_block(self):
        # one bucket holds 3 blocks' worth of shuffled values (ties among
        # them), between shorter runs on both sides
        rng = np.random.default_rng(4)
        k = 777
        long_run = (k + rng.integers(0, 1 << 20, 3 * _RUN_ROWS) / (1 << 20)) / _RADIX_BUCKETS
        residues = np.concatenate([rng.random(5000), long_run, rng.random(5000)])
        rng.shuffle(residues)
        assert (np.floor(long_run * _RADIX_BUCKETS) == k).all()
        assert_numpy_order(residues)

    @pytest.mark.parametrize("n", [1, 2, _RUN_ROWS, _RUN_ROWS + 1, 2 * _RUN_ROWS + 1])
    def test_sizes(self, n):
        # up to one block no block end is found and the input is sorted as
        # one block; from one row more the first block is cut at a run end
        rng = np.random.default_rng(n)
        assert_numpy_order(rng.choice(rng.random(n // 3 + 1), n))

    def test_random_residues(self):
        assert_numpy_order(np.random.default_rng(5).random(2**20))

    @pytest.mark.parametrize("model,N", BRUTE_POINTS, ids=["split30", "fig7", "fig9"])
    def test_brute_force_leaves(self, model, N, monkeypatch):
        leaves = brute_force_leaves(model, N)
        assert_numpy_order(_frac(np.log10(leaves.lengths)))
        got = [distribution_from_leaves(leaves, measure=x) for x in MEASURES]
        monkeypatch.setattr(enumeration, "_stable_order", numpy_order)
        for dist, want in zip(got, (distribution_from_leaves(leaves, measure=x) for x in MEASURES)):
            assert np.array_equal(bits(dist.residues), bits(want.residues))
            assert np.array_equal(bits(dist.masses), bits(want.masses))

    @pytest.mark.parametrize("fig", APPENDIX_EXPONENTS)
    def test_appendix_residue_tables(self, fig, monkeypatch):
        model = proportions_from_exponents(ExponentSpec(APPENDIX_EXPONENTS[fig]))
        N = APPENDIX_N[model.m]
        assert_numpy_order(_residues(composition_array(N, model.m), model.p, 10))
        got = [exact_distribution(model, N, measure=x) for x in MEASURES]
        monkeypatch.setattr(enumeration, "_stable_order", numpy_order)
        for dist, want in zip(got, (exact_distribution(model, N, measure=x) for x in MEASURES)):
            assert np.array_equal(bits(dist.residues), bits(want.residues))
            assert np.array_equal(bits(dist.masses), bits(want.masses))

    @pytest.mark.parametrize("n_clusters", [4096, 4097], ids=["pairwise", "bincount"])
    def test_merge_matches_numpy_order(self, n_clusters, monkeypatch):
        # both branches of the merge read the weights through the
        # permutation; long clusters make long runs, short ones share buckets
        lens = np.random.default_rng(n_clusters).integers(1, 41, n_clusters)
        lens[:3] = 3 * _RUN_ROWS
        residues, weights = clustered_atoms(lens, seed=n_clusters)
        got = _merge_atoms(residues.copy(), weights)
        monkeypatch.setattr(enumeration, "_stable_order", numpy_order)
        want = _merge_atoms(residues.copy(), weights)
        assert len(got[0]) == n_clusters
        for a, b in zip(got, want):
            assert np.array_equal(bits(a), bits(b))


class TestRotation:
    @pytest.fixture
    def dist(self):
        # residues with all 53 bits in use, unlike an exact distribution's,
        # whose fractional parts keep only the bits of |sum k_j log p_j|
        rng = np.random.default_rng(5)
        masses = rng.random(1000)
        return WeightedMod1Distribution(np.sort(rng.random(1000)), masses / masses.sum(), MEASURE_UNIFORM, 1, 2)

    @pytest.mark.parametrize("k", [1, 15, 308, -300])
    def test_whole_shift_keeps_bits(self, dist, k):
        r = rotate_distribution(dist, float(k))
        assert np.array_equal(r.residues, dist.residues)
        assert np.array_equal(r.masses, dist.masses)

    @pytest.mark.parametrize("shift", [math.log10(3e-300), math.log10(7.3e250), 15.3])
    def test_matches_exact_rotation(self, dist, shift):
        # the shift is reduced mod 1 exactly, so each residue is rounded at
        # most twice (the add, and the wrap into [0, 1)); adding the raw
        # shift rounded it to the ulp of the shift, 2.8e-14 at 308
        r = rotate_distribution(dist, shift)
        exact = [(Fraction(x) + Fraction(shift)) % 1 for x in dist.residues.tolist()]
        order = sorted(range(dist.atoms), key=exact.__getitem__)
        assert np.array_equal(r.masses, dist.masses[order])
        for got, i in zip(r.residues.tolist(), order):
            err = abs(Fraction(got) - exact[i])
            assert min(err, 1 - err) <= 1.2e-16

    def test_round_trip(self):
        d = exact_distribution(make_model([0.3, 0.2]), 20)
        r = rotate_distribution(rotate_distribution(d, 0.3), -0.3)
        assert np.allclose(r.residues, d.residues, atol=1e-12)
        assert np.allclose(r.masses, d.masses, atol=1e-15)

    def test_mass_conserved(self):
        d = exact_distribution(make_model([0.3, 0.2]), 20)
        r = rotate_distribution(d, math.pi / 10)
        assert abs(r.total_mass() - 1.0) <= 1e-10


class TestCsv:
    def test_format_and_determinism(self, tmp_path):
        d = exact_distribution(make_model([0.3]), 5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_distribution_csv(d, a)
        write_distribution_csv(d, b)
        text = a.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "residue,mass"
        assert len(lines) == d.atoms + 1
        assert text == b.read_text()
        # 17 significant digits round-trip
        r0 = float(lines[1].split(",")[0])
        assert r0 == d.residues[0]


class TestRewriteInPlace:
    # an output file is overwritten from offset 0 and then cut to the bytes
    # written, not truncated to zero first; to its reader the result must be
    # what open(path, "wb") would have left
    @pytest.fixture
    def dist_and_bytes(self, tmp_path):
        d = exact_distribution(make_model([0.3, 0.2]), 12)
        fresh = tmp_path / "fresh.csv"
        write_distribution_csv(d, fresh)
        return d, fresh.read_bytes()

    def test_public_writers_accept_dev_null(self):
        model = make_model([0.3])
        write_distribution_csv(exact_distribution(model, 5), os.devnull)
        write_samples_csv(np.array([0.25, 0.5]), os.devnull)
        write_metadata_json(SamplerConfig(seed=1, samples=2, mode=FixedProportions(model)), 5, 10, {}, os.devnull)

    def test_symlink_is_written_through(self, tmp_path, dist_and_bytes):
        d, fresh = dist_and_bytes
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"junk\n" * len(fresh))
        link.symlink_to(target)
        write_distribution_csv(d, link)
        assert link.is_symlink()
        assert target.read_bytes() == fresh

    def test_existing_file_keeps_inode_and_mode(self, tmp_path, dist_and_bytes):
        d, fresh = dist_and_bytes
        path = tmp_path / "out.csv"
        path.write_bytes(b"junk\n" * len(fresh))
        path.chmod(0o640)
        before = path.stat()
        write_distribution_csv(d, path)
        after = path.stat()
        assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)
        assert path.read_bytes() == fresh

    def test_new_file_gets_the_mode_of_open_wb(self, tmp_path, dist_and_bytes):
        d, fresh = dist_and_bytes
        with open(tmp_path / "reference", "wb"):
            pass
        write_distribution_csv(d, tmp_path / "new.csv")
        assert (tmp_path / "new.csv").stat().st_mode == (tmp_path / "reference").stat().st_mode
        assert (tmp_path / "new.csv").read_bytes() == fresh

    def test_writer_raising_midway_leaves_only_the_new_prefix(self, tmp_path):
        # the second block's float column cannot be converted; the first
        # block is already written, and nothing of the old file may follow it
        rows = enumeration._CSV_BLOCK_ROWS
        first = tmp_path / "first.csv"
        enumeration._write_csv(first, "x", [0.5] * rows)
        path = tmp_path / "out.csv"
        path.write_bytes(b"junk\n" * len(first.read_bytes()))
        with pytest.raises(ValueError):
            enumeration._write_csv(path, "x", [0.5] * rows + [1.5, "not a float"])
        assert path.read_bytes() == first.read_bytes()
