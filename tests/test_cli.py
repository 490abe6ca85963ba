import hashlib
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import stickfrag.cli as cli
from stickfrag import enumeration, model
from stickfrag.oracle import CrossCheckReport

# subprocesses import the package from this checkout, installed or not
SRC = Path(__file__).resolve().parent.parent / "src"
REPORT_KEYS = {
    "ks", "star_discrepancy", "leading_digits", "chi2",
    "distinct_residues", "verdict", "ks_threshold",
}


def run_cli(*args, cwd=None, preexec_fn=None, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "stickfrag", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        preexec_fn=preexec_fn,
        timeout=timeout,
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


@pytest.mark.parametrize("command", [
    ["classify"],
    ["analyze", "--N", "5", "--out", "o"],
    ["brute", "--N", "5"],
    ["simulate", "--N", "5", "--samples", "10", "--seed", "1", "--out", "o"],
], ids=lambda command: command[0])
def test_non_utf8_config_exits_2(tmp_path, command):
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes(b'{"proportions": [0.3], "note": "\xff"}')
    proc = run_cli(*command, "--config", str(cfg), cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"config error: config {cfg} is not UTF-8: ")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


# json.loads refuses an integer of more than sys.get_int_max_str_digits()
# digits (4300 by default, from Python 3.11 and the 3.10 security releases)
INT_DIGITS_LIMITED = 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() <= 5000


@pytest.mark.parametrize("command", [
    ["classify"],
    ["analyze", "--N", "5", "--out", "o"],
], ids=lambda command: command[0])
@pytest.mark.parametrize("text,refused", [
    ("[" * 100000 + "]" * 100000, True),
    ('{"proportions": [1%s]}' % ("0" * 4999), INT_DIGITS_LIMITED),
], ids=["deep-nesting", "int-5000-digits"])
def test_json_the_decoder_refuses_exits_2(tmp_path, command, text, refused):
    # a RecursionError or an int() refusal inside json.loads is a config error
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    proc = run_cli(*command, "--config", str(cfg), cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    prefix = f"config error: config {cfg} is not valid JSON: " if refused else "config error: "
    assert proc.stderr.startswith(prefix), proc.stderr
    assert "Traceback" not in proc.stderr and len(proc.stderr.encode()) < 1000
    assert not (tmp_path / "o").exists()


def test_config_larger_than_the_cap_exits_2_fast():
    # /dev/zero has no end: read whole, it would fill the 1 GiB address space
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    started = time.perf_counter()
    proc = run_cli("classify", "--config", "/dev/zero", preexec_fn=limit_memory, timeout=60)
    assert time.perf_counter() - started < 1.0
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"config error: config /dev/zero is larger than {model._CONFIG_BYTES} bytes\n"


def test_config_at_the_cap_parses(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(model, "_CONFIG_BYTES", 100)
    text = '{"proportions": [0.5]}'
    at_cap, above = tmp_path / "at.json", tmp_path / "above.json"
    at_cap.write_text(text + " " * (100 - len(text)))
    above.write_text(text + " " * (101 - len(text)))
    assert cli.main(["classify", "--config", str(at_cap)]) == 0
    assert json.loads(capsys.readouterr().out)["prediction"] == "NonBenford"
    assert cli.main(["classify", "--config", str(above)]) == 2
    assert capsys.readouterr().err == f"config error: config {above} is larger than 100 bytes\n"


@pytest.mark.parametrize("command", [
    ["analyze", "--N", "3000"],
    ["simulate", "--N", "3000", "--samples", "10", "--seed", "1"],
], ids=lambda command: command[0])
def test_digit_tables_refused_before_the_engines(tmp_path, monkeypatch, capsys, command):
    def engine(*args, **kwargs):
        raise AssertionError("an engine ran before the digit-table guard")

    monkeypatch.setattr(cli, "exact_distribution", engine)
    monkeypatch.setattr(cli, "sample_leaf_residues", engine)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"exponents": [{"rational": [-1, 3]}, {"real": -0.41421356237309515}],
                               "base": 10**12}))
    code = cli.main([command[0], "--config", str(cfg), *command[1:], "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    # one line, with no pointer to simulate, which builds the same tables
    assert captured.err == ("the digit tables of base 1000000000000 need an estimated 160000000000000 bytes, "
                            "above the limit of 4294967296 bytes\n")
    assert not (tmp_path / "o").exists()


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

    def test_manifest_hashes_the_parsed_bytes(self, fig3_config, tmp_path, monkeypatch, capsys):
        # the config is edited while the engine runs; the manifest must name
        # the bytes that were analysed, not the file as it is afterwards
        parsed = fig3_config.read_bytes()
        engine = cli.exact_distribution

        def edit_then_run(*args, **kwargs):
            fig3_config.write_text(json.dumps({"proportions": [0.5]}))
            return engine(*args, **kwargs)

        monkeypatch.setattr(cli, "exact_distribution", edit_then_run)
        out_dir = tmp_path / "run"
        assert cli.main(["analyze", "--config", str(fig3_config), "--N", "10", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert fig3_config.read_bytes() != parsed
        assert manifest["config_sha256"] == hashlib.sha256(parsed).hexdigest()

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

    @pytest.mark.parametrize(
        "measure,length",
        [(measure, length) for length in ("1.0", "3.7") for measure in ("uniform", "length")],
        ids=["uniform", "length", "uniform-L3.7", "length-L3.7"],
    )
    def test_whole_run_within_peak_estimate(self, measure, length, tmp_path, traced_peak):
        # every atom distinct: 300,700 compositions.  The report, the
        # writers and the --length rotation run after the engine and must
        # stay under its estimate; a writer that held both CSV columns as
        # Python floats took 80.8 B a composition against 75.5, and so did
        # a rotation merged while the unrotated distribution was alive
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"exponents": [{"real": -math.sqrt(2)}, {"real": -math.sqrt(3)}]}))
        argv = ["analyze", "--config", str(cfg), "--N", "774", "--measure", measure, "--length", length,
                "--out", str(tmp_path / "x")]
        codes = []
        peak = traced_peak(lambda: codes.append(cli.main(argv)))
        assert codes == [0]
        assert peak <= enumeration._peak_bytes(774, 3)

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

    def test_scale_violation_exits_4_and_writes_nothing(self, fig7_config, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "SCALE_CHECK_TOL", -1.0)
        out = tmp_path / "x"
        code = cli.main(["analyze", "--config", str(fig7_config), "--N", "30", "--length", "2.5", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == "scale invariance violated"
        assert not (out / "report.json").exists()

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

    @pytest.mark.parametrize("length", ["10", "1e15"])
    def test_whole_power_length_keeps_default_bytes(self, length, fig7_config, tmp_path):
        # log10 L is a whole number, so the rotation is the identity
        plain, scaled = tmp_path / "plain", tmp_path / "scaled"
        argv = ["analyze", "--config", str(fig7_config), "--N", "60", "--measure", "length"]
        assert cli.main([*argv, "--out", str(plain)]) == 0
        assert cli.main([*argv, "--out", str(scaled), "--length", length]) == 0
        for name in ("report.json", "distribution.csv", "digits.csv"):
            assert (plain / name).read_bytes() == (scaled / name).read_bytes()

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


class TestHugeCounts:
    """Integer flags too large for the engines exit 2 at parse time or 3 at a
    guard, fast, with one line saying why and no traceback."""

    @staticmethod
    def refusal_lines(proc):
        # stderr without argparse's usage and the run's progress log line
        return [line for line in proc.stderr.splitlines()
                if not line.startswith(("usage:", " ", "analyzing ", "sampling "))]

    @pytest.mark.parametrize(
        "config,args,code,line",
        [
            ({"proportions": [0.3]}, ["brute", "--N", "20000"], 3,
             "2**20000 = about 10^6020.6 leaves exceeds guard 10000000"),
            (None, ["brute", "--N", "100000000"], 3,
             "3**100000000 = about 10^47712125.5 leaves exceeds guard 10000000"),
            (None, ["analyze", "--N", str(10**4000), "--out", "x"], 2,
             f"stickfrag analyze: error: argument --N: must be in [0, {2**63}), got about 10^4000.0"),
            # int() refuses more than sys.get_int_max_str_digits() digits
            # (4300 by default, from Python 3.11 and the 3.10 security
            # releases); where it reads them, the range check refuses the value
            (None, ["analyze", "--N", "1" + "0" * 5000, "--out", "x"], 2,
             "stickfrag analyze: error: argument --N: invalid integer value of 5001 characters"
             if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() <= 5000 else
             f"stickfrag analyze: error: argument --N: must be in [0, {2**63}), got about 10^5000.0"),
            ({"proportions": [1 / 300] * 299}, ["analyze", "--N", str(10**17), "--out", "x"], 3,
             "C(100000000000000299,299) = about 10^4471.0 compositions need an estimated about 10^4474.4 "
             "bytes, above the limit of 4294967296 bytes; consider `stickfrag simulate` for this size"),
            (None, ["simulate", "--N", str(10**19), "--samples", "10", "--seed", "1", "--out", "x"], 2,
             f"stickfrag simulate: error: argument --N: must be in [0, {2**63}), got about 10^19.0"),
            (None, ["simulate", "--N", "5", "--samples", str(10**4299), "--seed", "1", "--out", "x"], 3,
             "about 10^4299.0 samples need an estimated about 10^4300.9 bytes, above the limit of "
             "4294967296 bytes"),
            *[(base_config, [*command, "--out", "x"], 3, line)
              for command in (["analyze", "--N", "5"], ["simulate", "--N", "5", "--samples", "10", "--seed", "1"])
              for base_config, line in (
                  ({"exponents": [{"rational": [-1, 3]}], "base": 10**12},
                   "the digit tables of base 1000000000000 need an estimated 160000000000000 bytes, "
                   "above the limit of 4294967296 bytes"),
                  ({"exponents": [{"rational": [-1, 3]}], "base": 10**30},
                   "the digit tables of base about 10^30.0 need an estimated about 10^32.2 bytes, "
                   "above the limit of 4294967296 bytes"),
              )],
        ],
        ids=["brute-power-digits", "brute-power-time", "analyze-N", "analyze-N-digits", "analyze-count",
             "simulate-N", "simulate-samples", "analyze-base-1e12", "analyze-base-1e30", "simulate-base-1e12",
             "simulate-base-1e30"],
    )
    def test_refused_in_one_line(self, config, args, code, line, fig7_config, tmp_path):
        cfg = fig7_config
        if config is not None:
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps(config))
        proc = run_cli(args[0], "--config", str(cfg), *args[1:], cwd=tmp_path, timeout=10)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert self.refusal_lines(proc) == [line]
        # the usage text, and past parsing the progress line, state no count in full either
        assert len(proc.stderr.encode()) < 1000
        assert not (tmp_path / "x").exists()


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
        # above the 1,600 B of base 10's digit tables, which are checked first
        monkeypatch.setattr(enumeration, "_BYTE_LIMIT", 2000)
        code = cli.main(["simulate", "--config", str(fig7_config), "--N", "30", "--samples", "100",
                         "--seed", "1", "--out", str(tmp_path / "s")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "100 samples need an estimated 17100 bytes, above the limit of 2000 bytes" in captured.err
        assert not (tmp_path / "s").exists()


class TestReusedOut:
    # a rerun into an existing --out rewrites each declared file in place;
    # what it leaves must be byte for byte what a fresh --out gets, whatever
    # the files held before (the manifest's timestamp aside)
    @staticmethod
    def run(argv, cwd, monkeypatch, capsys) -> dict:
        """Run argv in cwd with --out run; every file it leaves in run/ by name."""
        cwd.mkdir(exist_ok=True)
        monkeypatch.chdir(cwd)
        assert cli.main([*argv, "--out", "run"]) == 0
        capsys.readouterr()
        files = {path.name: path.read_bytes() for path in (cwd / "run").iterdir()}
        files["manifest.json"] = re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": null', files["manifest.json"])
        return files

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_longer_old_outputs_end_as_fresh_ones(self, command, fig7_config, tmp_path, monkeypatch, capsys):
        argv = [command, "--config", str(fig7_config), "--N", "30", "--measure", "length"]
        if command == "simulate":
            argv += ["--samples", "3000", "--seed", "5"]
        fresh = self.run(argv, tmp_path / "fresh", monkeypatch, capsys)
        declared = json.loads(fresh["manifest.json"])["outputs"]
        assert set(fresh) == {*declared, "manifest.json"}
        (tmp_path / "reused" / "run").mkdir(parents=True)
        for name, data in fresh.items():
            (tmp_path / "reused" / "run" / name).write_bytes(b"junk,\n" * len(data))
        assert self.run(argv, tmp_path / "reused", monkeypatch, capsys) == fresh

    def test_smaller_rerun_leaves_no_stale_tail(self, fig7_config, tmp_path, monkeypatch, capsys):
        argv = ["analyze", "--config", str(fig7_config), "--N"]
        big = self.run([*argv, "200"], tmp_path / "reused", monkeypatch, capsys)
        small = self.run([*argv, "20"], tmp_path / "reused", monkeypatch, capsys)
        assert len(small["distribution.csv"]) < len(big["distribution.csv"])
        assert small == self.run([*argv, "20"], tmp_path / "fresh", monkeypatch, capsys)


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


@pytest.mark.parametrize("command,blocked,link", [
    (["analyze", "--N", "5"], "distribution.csv", False),
    (["simulate", "--N", "5", "--samples", "10", "--seed", "1"], "samples.csv", False),
    (["analyze", "--N", "5"], "report.json", True),
], ids=["analyze-dir", "simulate-dir", "analyze-dangling-link"])
def test_out_with_an_unwritable_output_exits_2(fig3_config, tmp_path, command, blocked, link):
    # --out passes the parser, but one declared output is a directory or a
    # dangling link, which open() refuses after the work
    out = tmp_path / "out"
    out.mkdir()
    if link:
        (out / blocked).symlink_to(tmp_path / "missing" / "x")
    else:
        (out / blocked).mkdir()
    proc = run_cli(*command, "--config", str(fig3_config), "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "cannot write the outputs: " in proc.stderr
    if link:
        assert (out / blocked).is_symlink() and not (tmp_path / "missing").exists()
    else:
        assert (out / blocked).is_dir()


@pytest.mark.parametrize("command,linked", [
    (["analyze", "--N", "5"], "distribution.csv"),
    (["simulate", "--N", "5", "--samples", "10", "--seed", "1"], "samples.csv"),
], ids=["analyze", "simulate"])
def test_out_with_a_link_to_dev_null_is_written_through(fig3_config, tmp_path, command, linked):
    # the link is opened and written like any target; a file that is not
    # regular holds nothing afterwards, and the run still succeeds
    out = tmp_path / "out"
    out.mkdir()
    (out / linked).symlink_to(os.devnull)
    proc = run_cli(*command, "--config", str(fig3_config), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.encode() == (out / "report.json").read_bytes()
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert sorted(path.name for path in out.iterdir()) == sorted([*outputs, "manifest.json"])
    for name in outputs:
        assert (out / name).is_symlink() if name == linked else (out / name).stat().st_size > 0
    assert os.readlink(out / linked) == os.devnull


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


class TestInProcessReuse:
    # cli.main builds its parser once per process; calls made one after
    # another in one process must each answer as a fresh interpreter would
    ARGVS = [
        ["classify", "--config", "fig3.json"],
        ["analyze", "--config", "fig3.json", "--N", "20", "--out", "a1"],
        ["analyze", "--N", "-1", "--config", "fig3.json", "--out", "bad"],
        ["--help"],
        ["brute", "--config", "fig7.json", "--N", "6", "--measure", "length"],
        ["simulate", "--config", "fig7.json", "--N", "10", "--samples", "100", "--seed", "3", "--out", "s1"],
        ["classify", "--help"],
        ["classify", "--config", "fig7.json", "--max-denominator", "1000"],
        ["analyze", "--bogus"],
        ["analyze", "--config", "fig7.json", "--N", "30", "--measure", "length", "--out", "a2"],
        ["simulate", "--help"],
        ["analyze", "--config", "fig3.json", "--N", "20", "--out", "a1"],
    ]

    @staticmethod
    def outputs(root: Path) -> dict:
        """Every file under root by relative path; a manifest without its timestamp."""
        files = {}
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            name = str(path.relative_to(root))
            if path.name == "manifest.json":
                files[name] = {**json.loads(path.read_text()), "timestamp": None}
            else:
                files[name] = path.read_bytes()
        return files

    def test_repeated_calls_match_fresh_runs(self, fig3_config, fig7_config, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
        inproc, fresh = tmp_path / "inproc", tmp_path / "fresh"
        for cwd in (inproc, fresh):
            cwd.mkdir()
            for cfg in (fig3_config, fig7_config):
                (cwd / cfg.name).write_bytes(cfg.read_bytes())
        monkeypatch.chdir(inproc)
        for argv in self.ARGVS:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            proc = run_cli(*argv, cwd=fresh)
            assert (code, captured.out, captured.err) == (proc.returncode, proc.stdout, proc.stderr), argv
            assert self.outputs(inproc) == self.outputs(fresh), argv

    def test_main_builds_the_parser_once(self, fig3_config, monkeypatch, capsys):
        built = []

        def counting():
            built.append(1)
            return build()

        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        for argv in (["classify", "--config", str(fig3_config)], ["brute", "--N", "-1"], ["--help"]) * 2:
            try:
                cli.main(argv)
            except SystemExit:
                pass
        capsys.readouterr()
        assert built == [1]

    def test_import_builds_no_parser(self):
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *a, **k):\n"
            "    built.append(1)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import stickfrag.cli\n"
            "assert built == [], built\n"
            "stickfrag.cli.build_parser()\n"
            "assert built, 'the count missed a parser'\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stderr

    def test_import_loads_only_declared_packages(self):
        # the set-up the benchmark times: every top-level module this adds is
        # the standard library's, numpy (the one declared dependency) or ours
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import stickfrag.cli\n"
            "stickfrag.cli.build_parser()\n"
            "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(sorted(added - set(sys.stdlib_module_names) - {'numpy', 'stickfrag'}))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()


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
