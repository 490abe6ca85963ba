import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import stickfrag.cli as cli
from stickfrag import enumeration
from stickfrag.oracle import CrossCheckReport

# subprocesses import the package from this checkout, installed or not
SRC = Path(__file__).resolve().parent.parent / "src"
REPORT_KEYS = {
    "ks", "star_discrepancy", "leading_digits", "chi2",
    "distinct_residues", "verdict", "ks_threshold",
}


def run_cli(*args, cwd=None, preexec_fn=None):
    proc = subprocess.run(
        [sys.executable, "-m", "stickfrag", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        preexec_fn=preexec_fn,
    )
    return proc


@pytest.fixture
def fig3_config(tmp_path):
    path = tmp_path / "fig3.json"
    path.write_text(json.dumps({"exponents": [{"rational": [-1, 3]}, {"rational": [-1, 2]}], "base": 10}))
    return path


@pytest.fixture
def fig7_config(tmp_path):
    path = tmp_path / "fig7.json"
    path.write_text(
        json.dumps({"exponents": [{"rational": [-1, 2]}, {"real": -math.sqrt(2)}], "base": 10})
    )
    return path


class TestClassify:
    def test_rational_config_predicts_non_benford(self, fig3_config):
        proc = run_cli("classify", "--config", str(fig3_config))
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["prediction"] == "NonBenford"
        assert [e["rational"] for e in out["exponents"]] == [[-1, 3], [-1, 2]]

    def test_mixed_config_predicts_benford(self, fig7_config):
        proc = run_cli("classify", "--config", str(fig7_config))
        out = json.loads(proc.stdout)
        assert out["prediction"] == "Benford"
        assert [e["verdict"] for e in out["exponents"]] == ["rational", "presumed_irrational"]

    def test_half_proportion_config(self, tmp_path):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"proportions": [0.5]}))
        out = json.loads(run_cli("classify", "--config", str(cfg)).stdout)
        assert out["prediction"] == "NonBenford"
        assert out["exponents"][0]["value"] == 0.0

    @pytest.mark.parametrize(
        "text",
        [
            '{"nope": 1}',
            '{"exponents": [{"rational": [true, 3]}]}',
            '{"exponents": [{"real": true}]}',
            '{"proportions": [0.3, true]}',
            '{"proportions": ["0.3"]}',
            '{"exponents": [{"real": 1%s}]}' % ("0" * 400),
            '{"proportions": [1%s]}' % ("0" * 400),
        ],
        ids=["no-model-key", "rational-bool", "real-bool", "proportion-bool",
             "proportion-string", "real-huge-int", "proportion-huge-int"],
    )
    def test_invalid_config_exits_2(self, tmp_path, text):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        proc = run_cli("classify", "--config", str(cfg))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "config error:" in proc.stderr and "Traceback" not in proc.stderr

    def test_overflowing_suffix_sum_exits_2(self, tmp_path):
        cfg = tmp_path / "overflow.json"
        cfg.write_text(json.dumps({"exponents": [{"real": 0.0}, {"real": 308.0}]}))
        proc = run_cli("classify", "--config", str(cfg))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "config error: bad exponents: exponents produce proportions outside double range\n"

    def test_missing_file_exits_2(self, tmp_path):
        assert run_cli("classify", "--config", str(tmp_path / "nope.json")).returncode == 2


class TestAnalyze:
    def test_outputs_and_stdout(self, fig3_config, tmp_path):
        out_dir = tmp_path / "run"
        proc = run_cli(
            "analyze", "--config", str(fig3_config), "--N", "50", "--out", str(out_dir)
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert set(report) == REPORT_KEYS
        assert proc.stdout == (out_dir / "report.json").read_text()
        assert report["distinct_residues"] == 6
        assert report["verdict"] == "Inconsistent"
        for name in ("report.json", "distribution.csv", "digits.csv", "manifest.json"):
            target = out_dir / name
            assert target.exists() and target.stat().st_size > 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"report.json", "distribution.csv", "digits.csv"}
        assert manifest["version"]
        digits = (out_dir / "digits.csv").read_text().strip().split("\n")
        assert digits[0] == "digit,frequency,benford_expected"
        assert len(digits) == 10

    def test_rerun_byte_identical(self, fig3_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("analyze", "--config", str(fig3_config), "--N", "40", "--out", str(a))
        run_cli("analyze", "--config", str(fig3_config), "--N", "40", "--out", str(b))
        for name in ("report.json", "distribution.csv", "digits.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_cap_exceeded_exits_3_and_suggests_simulate(self, fig3_config, tmp_path):
        proc = run_cli("analyze", "--config", str(fig3_config), "--N", "1000000", "--out", str(tmp_path / "x"))
        assert proc.returncode == 3
        assert "above the limit of 4294967296 bytes" in proc.stderr
        assert "simulate" in proc.stderr

    @pytest.mark.parametrize(
        "config,N",
        [
            ({"exponents": [{"real": -math.sqrt(2)}, {"real": -math.sqrt(3)}]}, 14_000),
            ({"proportions": [0.1] * 9}, 27),
        ],
        ids=["irrational-m3", "m10"],
    )
    def test_refused_fast_under_memory_limit(self, config, N, tmp_path):
        # 7.1 GB and 11 GB by the estimate; both fit the former 10^8 count cap
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        limit = 4 << 30

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        started = time.perf_counter()
        proc = run_cli("analyze", "--config", str(cfg), "--N", str(N), "--out", str(tmp_path / "x"),
                       preexec_fn=limit_memory)
        assert time.perf_counter() - started < 1.0
        assert proc.returncode == 3, proc.stderr
        assert "compositions need an estimated" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("measure", ["uniform", "length"])
    def test_two_part_model_at_n_1e5(self, measure, tmp_path):
        # the float lgamma terms drift the mass total past 1e-10 here
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"proportions": [0.3]}))
        proc = run_cli("analyze", "--config", str(cfg), "--N", "100000", "--measure", measure,
                       "--out", str(tmp_path / "x"))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["distinct_residues"] == 100_001

    def test_scale_flag_keeps_verdict_deterministic(self, fig3_config, tmp_path):
        out_dir = tmp_path / "scaled"
        proc = run_cli(
            "analyze", "--config", str(fig3_config), "--N", "40",
            "--out", str(out_dir), "--length", "7.25",
        )
        assert proc.returncode == 0
        assert "scale invariance check" in proc.stderr
        report = json.loads(proc.stdout)
        assert report["verdict"] == "Inconsistent"

    def test_base_flag_matches_config_base(self, tmp_path):
        plain, based = tmp_path / "plain.json", tmp_path / "based.json"
        plain.write_text(json.dumps({"proportions": [0.3, 0.3]}))
        based.write_text(json.dumps({"proportions": [0.3, 0.3], "base": 7}))
        a, b = tmp_path / "flag", tmp_path / "config"
        assert run_cli("analyze", "--config", str(plain), "--N", "40", "--out", str(a), "--base", "7").returncode == 0
        assert run_cli("analyze", "--config", str(based), "--N", "40", "--out", str(b)).returncode == 0
        for name in ("report.json", "distribution.csv", "digits.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert len((a / "digits.csv").read_text().splitlines()) == 7  # header + digits 1..6

    def test_config_base_wins_over_flag(self, tmp_path):
        cfg = tmp_path / "based.json"
        cfg.write_text(json.dumps({"proportions": [0.3, 0.3], "base": 7}))
        a, b = tmp_path / "noflag", tmp_path / "flag5"
        assert run_cli("analyze", "--config", str(cfg), "--N", "40", "--out", str(a)).returncode == 0
        assert run_cli("analyze", "--config", str(cfg), "--N", "40", "--out", str(b), "--base", "5").returncode == 0
        for name in ("report.json", "distribution.csv", "digits.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_threads_flag_canonical(self, fig7_config, tmp_path):
        a, b = tmp_path / "t1", tmp_path / "t2"
        run_cli("analyze", "--config", str(fig7_config), "--N", "60", "--out", str(a), "--threads", "1")
        run_cli("analyze", "--config", str(fig7_config), "--N", "60", "--out", str(b), "--threads", "3")
        assert (a / "distribution.csv").read_bytes() == (b / "distribution.csv").read_bytes()


class TestBrute:
    def test_pass_exits_0(self, tmp_path):
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"proportions": [0.3, 0.3]}))
        proc = run_cli("brute", "--config", str(cfg), "--N", "8")
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["passed"] is True and out["max_mass_deviation"] <= 1e-9
        assert out["leaves"] == 3**8

    def test_guard_exits_3(self, tmp_path):
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"proportions": [0.5]}))
        proc = run_cli("brute", "--config", str(cfg), "--N", "30")
        assert proc.returncode == 3
        assert "2**30 = 1073741824 leaves exceeds guard 10000000" in proc.stderr.splitlines()

    def test_failure_exits_4(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"proportions": [0.5]}))
        bad = CrossCheckReport(
            passed=False, max_mass_deviation=1.0, atoms_exact=1, atoms_brute=1,
            leaves=2, measure="uniform", N=1, m=2,
        )
        monkeypatch.setattr(cli, "cross_check", lambda *a, **kw: bad)
        code = cli.main(["brute", "--config", str(cfg), "--N", "1"])
        capsys.readouterr()
        assert code == 4


class TestSimulate:
    def test_outputs_and_determinism(self, fig7_config, tmp_path):
        a, b = tmp_path / "s1", tmp_path / "s2"
        args = [
            "simulate", "--config", str(fig7_config), "--N", "30",
            "--samples", "20000", "--seed", "99",
        ]
        proc = run_cli(*args, "--out", str(a))
        assert proc.returncode == 0
        assert set(json.loads(proc.stdout)) == REPORT_KEYS
        assert proc.stdout == (a / "report.json").read_text()
        run_cli(*args, "--out", str(b))
        for name in ("samples.csv", "report.json", "metadata.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        meta = json.loads((a / "metadata.json").read_text())
        assert meta["generator"] == "numpy.random.PCG64"
        assert meta["seed"] == 99

    def test_different_seed_changes_samples(self, fig7_config, tmp_path):
        a, b = tmp_path / "s1", tmp_path / "s2"
        common = ["simulate", "--config", str(fig7_config), "--N", "30", "--samples", "5000"]
        run_cli(*common, "--seed", "1", "--out", str(a))
        run_cli(*common, "--seed", "2", "--out", str(b))
        assert (a / "samples.csv").read_bytes() != (b / "samples.csv").read_bytes()

    def test_byte_guard_exits_3(self, fig7_config, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(enumeration, "_BYTE_LIMIT", 1000)
        code = cli.main(["simulate", "--config", str(fig7_config), "--N", "30", "--samples", "100",
                         "--seed", "1", "--out", str(tmp_path / "s")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "100 samples need an estimated 8000 bytes, above the limit of 1000 bytes" in captured.err
        assert not (tmp_path / "s").exists()


class TestBadFlags:
    # each is rejected by the parser (exit 2, nothing on stdout) before any
    # engine work; --N 1000000 would otherwise trip the byte guard (3)
    @pytest.mark.parametrize(
        "args",
        [
            ["classify", "--max-denominator", "0"],
            ["classify", "--tolerance", "-1"],
            ["classify", "--tolerance", "nan"],
            ["analyze", "--N", "5", "--threads", "0"],
            ["analyze", "--N", "-1"],
            ["analyze", "--N", "5", "--cap", "5"],
            ["analyze", "--N", "1000000", "--length", "0"],
            ["analyze", "--N", "1000000", "--length", "-3"],
            ["analyze", "--N", "1000000", "--length", "inf"],
            ["analyze", "--N", "1000000", "--length", "nan"],
            ["analyze", "--N", "1000000", "--ks-threshold", "-1"],
            ["analyze", "--N", "1000000", "--ks-threshold", "nan"],
            ["analyze", "--N", "1000000", "--ks-threshold", "inf"],
            ["analyze", "--N", "1000000", "--ks-threshold", "0"],
            ["brute", "--N", "-2"],
            ["simulate", "--N", "5", "--samples", "0", "--seed", "1"],
            ["simulate", "--N", "5", "--samples", "10", "--seed", "-1"],
            ["simulate", "--N", "5", "--samples", "10", "--seed", str(2**64)],
            ["simulate", "--N", "-1", "--samples", "10", "--seed", "1"],
            ["simulate", "--N", "5", "--samples", "10", "--seed", "1", "--threads", "0"],
            ["simulate", "--N", "5", "--samples", "10", "--seed", "1", "--ks-threshold", "-1"],
            ["simulate", "--N", "5", "--samples", "10", "--seed", "1", "--ks-threshold", "nan"],
            ["simulate", "--N", "5", "--samples", "10", "--seed", "1", "--ks-threshold", "inf"],
            ["simulate", "--N", "5", "--samples", "10", "--seed", "1", "--ks-threshold", "0"],
        ],
        ids=lambda a: " ".join(a),
    )
    def test_exits_2_with_empty_stdout(self, fig3_config, tmp_path, args):
        out = [] if args[0] in ("classify", "brute") else ["--out", str(tmp_path / "o")]
        proc = run_cli(*args, "--config", str(fig3_config), *out)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [
    ["analyze", "--N", "5"],
    ["simulate", "--N", "5", "--samples", "10", "--seed", "1"],
], ids=lambda command: command[0])
@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-file"])
def test_out_naming_a_file_exits_2(fig3_config, tmp_path, command, sub):
    # --out F or F/sub, where F is a file, is refused by the parser before any work
    blocker = tmp_path / "F"
    blocker.write_text("keep me\n")
    proc = run_cli(*command, "--config", str(fig3_config), "--out", str(blocker / sub))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert blocker.read_text() == "keep me\n"


def test_out_naming_a_dangling_link_exits_2(fig3_config, tmp_path):
    link = tmp_path / "L"
    link.symlink_to(tmp_path / "missing" / "x")
    proc = run_cli("analyze", "--N", "5", "--config", str(fig3_config), "--out", str(link))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert link.is_symlink() and not (tmp_path / "missing").exists()


def test_benchmark_tracing_hooks_attach():
    # the benchmark's tracer wraps names the CLI imports (cli.parse_config,
    # cli.exact_distribution, ...); a renamed or dropped import breaks every
    # traced run, so install it against the current package
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "perfbench")])}
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer('t'))"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


class TestVerdictAgreement:
    def test_prediction_matches_analysis_when_attainable(self, fig3_config, fig7_config, tmp_path):
        # end-to-end Theorem 1.1 restatement at desk scale: the rational
        # config must come out Inconsistent, the irrational one consistent
        # once N is large enough for the default threshold
        pred3 = json.loads(run_cli("classify", "--config", str(fig3_config)).stdout)["prediction"]
        rep3 = json.loads(
            run_cli("analyze", "--config", str(fig3_config), "--N", "1000", "--out", str(tmp_path / "r3")).stdout
        )
        assert pred3 == "NonBenford" and rep3["verdict"] == "Inconsistent"
        pred7 = json.loads(run_cli("classify", "--config", str(fig7_config)).stdout)["prediction"]
        rep7 = json.loads(
            run_cli("analyze", "--config", str(fig7_config), "--N", "1000", "--out", str(tmp_path / "r7")).stdout
        )
        assert pred7 == "Benford" and rep7["verdict"] == "ConsistentWithBenford"

    def test_stdout_is_pure_json(self, fig3_config, tmp_path):
        proc = run_cli(
            "analyze", "--config", str(fig3_config), "--N", "20", "--out", str(tmp_path / "r")
        )
        json.loads(proc.stdout)  # would raise if logs leaked to stdout
