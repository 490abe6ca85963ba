import json
import math
from fractions import Fraction

import numpy as np
import pytest

from stickfrag import (
    BENFORD,
    NON_BENFORD,
    ConfigError,
    ExponentSpec,
    ExponentVerdict,
    ProportionVector,
    classify_rationality,
    exponents_from_proportions,
    make_model,
    parse_config,
    predict_benford,
    proportions_from_exponents,
)


class TestMakeModel:
    def test_single_free_proportion(self):
        assert make_model([0.5]).p == (0.5, 0.5)

    def test_two_free_proportions(self):
        assert make_model([0.3, 0.3]).p == (0.3, 0.3, 0.4)

    def test_sum_at_least_one_rejected(self):
        with pytest.raises(ValueError):
            make_model([0.5, 0.6])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_model([0.0])
        with pytest.raises(ValueError):
            make_model([1.0])
        with pytest.raises(ValueError):
            make_model([-0.2, 0.5])
        for bad in [[1.5], [math.nan], [math.inf]]:
            with pytest.raises(ValueError):
                make_model(bad)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_model([])


class TestProportionVector:
    def test_renormalizes_within_slack(self):
        v = ProportionVector((0.5, 0.5 + 5e-13))
        assert math.fsum(v.p) == 1.0

    def test_rejects_outside_slack(self):
        with pytest.raises(ValueError):
            ProportionVector((0.5, 0.51))

    def test_rejects_m_below_two(self):
        with pytest.raises(ValueError):
            ProportionVector((1.0,))


class TestExponents:
    def test_equal_proportions_give_zero(self):
        assert exponents_from_proportions(make_model([0.5]), 10).values() == (0.0,)

    def test_two_thirds_one_third(self):
        # oracle: p1/p2 = 2 up to one ulp of 1 - 2/3, so y = log10(2)
        (y,) = exponents_from_proportions(make_model([2 / 3]), 10).values()
        assert abs(y - math.log10(2.0)) < 1e-15
        assert abs(y - 0.3010299957) < 5e-11

    def test_quarter_quarter_half(self):
        y = exponents_from_proportions(ProportionVector((0.25, 0.25, 0.5)), 10).values()
        assert y[0] == 0.0
        assert abs(y[1] - (-math.log10(2.0))) < 1e-15

    def test_inverse_symmetry(self):
        assert proportions_from_exponents(ExponentSpec((0.0,))).p == (0.5, 0.5)
        thirds = proportions_from_exponents(ExponentSpec((0.0, 0.0))).p
        assert np.allclose(thirds, (1 / 3, 1 / 3, 1 / 3), atol=1e-15)

    def test_inverse_log2(self):
        p = proportions_from_exponents(ExponentSpec((math.log10(2.0),))).p
        assert np.allclose(p, (2 / 3, 1 / 3), atol=1e-15)

    def test_round_trip_random_models(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = int(rng.integers(2, 6))
            model = ProportionVector(tuple(rng.dirichlet(np.ones(m)))) if m > 2 else make_model(
                [float(rng.uniform(0.05, 0.95))]
            )
            spec = exponents_from_proportions(model, 10)
            back = proportions_from_exponents(spec)
            again = exponents_from_proportions(back, 10)
            for a, b in zip(spec.values(), again.values()):
                assert abs(a - b) <= 1e-12

    def test_overflowing_exponent_rejected(self):
        with pytest.raises(ValueError):
            ExponentSpec((400.0,))
        # each 10**200 fits a double, the suffix sum's 10**400 does not
        with pytest.raises(ValueError):
            proportions_from_exponents(ExponentSpec((200.0, 200.0)))

    def test_suffix_sum_overflowing_fsum_rejected(self):
        # 10**308 twice fits a double each, their sum does not: fsum raised
        # OverflowError("intermediate overflow in fsum") before
        with pytest.raises(ValueError, match="outside double range"):
            proportions_from_exponents(ExponentSpec((0.0, 308.0)))

    @pytest.mark.parametrize("base", [1, 0, 2.5])
    def test_bad_base_rejected_before_logs(self, base):
        with pytest.raises(ValueError):
            exponents_from_proportions(make_model([0.5]), base)

    def test_entry_forms(self):
        spec = ExponentSpec((Fraction(-1, 3), (-2, 4), 2, -0.5))
        assert spec.y == (Fraction(-1, 3), Fraction(-1, 2), 2.0, -0.5)
        assert [type(e) for e in spec.y] == [Fraction, Fraction, float, float]
        for bad in [True, (True, 3), (1.0, 2), "0.5", [1, 3]]:
            with pytest.raises(TypeError):
                ExponentSpec((bad,))
        for bad in [(1, 0), math.inf, math.nan]:
            with pytest.raises(ValueError):
                ExponentSpec((bad,))


class TestClassifyRationality:
    def test_exact_rational_entry(self):
        # Figure 3 caption exponents, entered exactly
        c = classify_rationality(ExponentSpec((Fraction(-1, 3), Fraction(-1, 2))))
        assert [(v.numerator, v.denominator) for v in c.verdicts] == [(-1, 3), (-1, 2)]
        assert c.all_rational

    def test_sqrt2_presumed_irrational_at_1e12(self):
        c = classify_rationality(ExponentSpec((-math.sqrt(2),)), 10**6, 1e-12)
        v = c.verdicts[0]
        assert not v.rational
        # witness must be the classic Pell convergent 665857/470832
        assert (abs(v.witness_numerator), v.witness_denominator) == (665857, 470832)
        assert 665857**2 - 2 * 470832**2 == 1  # Pell identity: error ~ 1/(2*sqrt2*q^2) > 1e-12
        assert v.witness_error > 1e-12

    def test_dyadic_float_is_rational(self):
        c = classify_rationality(ExponentSpec((0.25,)), 100, 1e-12)
        v = c.verdicts[0]
        assert v.rational and (v.numerator, v.denominator) == (1, 4)

    def test_float_of_small_rational_detected(self):
        c = classify_rationality(ExponentSpec((-1 / 3,)))
        v = c.verdicts[0]
        assert v.rational and (v.numerator, v.denominator) == (-1, 3)

    def test_defaults_on_appendix_irrationals(self):
        for x in (-math.sqrt(2), -math.sqrt(3)):
            c = classify_rationality(ExponentSpec((x,)))
            assert not c.verdicts[0].rational, x

    def test_zero_is_rational(self):
        c = classify_rationality(ExponentSpec((0.0,)))
        assert c.verdicts[0].rational
        assert (c.verdicts[0].numerator, c.verdicts[0].denominator) == (0, 1)

    def test_monotone_in_max_denominator(self):
        rng = np.random.default_rng(11)
        bounds = [10, 100, 10**4, 10**6]
        for _ in range(50):
            y = float(rng.uniform(-2, 2))
            previous = None
            for d in bounds:
                c = classify_rationality(ExponentSpec((y,)), d, 1e-6)
                v = c.verdicts[0]
                if previous is not None and previous.rational:
                    assert v.rational
                    assert (v.numerator, v.denominator) == (previous.numerator, previous.denominator)
                previous = v

    def test_becker_sign_symmetry(self):
        # m=2: y1 = -y and rationality is sign-invariant
        rng = np.random.default_rng(3)
        values = [float(rng.uniform(0.01, 2)) for _ in range(20)] + [math.sqrt(2), 0.75]
        for y in values:
            a = classify_rationality(ExponentSpec((y,))).verdicts[0]
            b = classify_rationality(ExponentSpec((-y,))).verdicts[0]
            assert a.rational == b.rational

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            classify_rationality(ExponentSpec((0.5,)), 0, 1e-10)
        with pytest.raises(ValueError):
            classify_rationality(ExponentSpec((0.5,)), 10, 0.0)


class TestPredictBenford:
    def test_all_rational_is_non_benford(self):
        c = classify_rationality(ExponentSpec((Fraction(-1, 3), Fraction(-1, 2))))
        assert predict_benford(c) == NON_BENFORD

    def test_one_irrational_is_benford(self):
        c = classify_rationality(ExponentSpec((Fraction(-1, 2), -math.sqrt(2))))
        assert predict_benford(c) == BENFORD

    def test_half_split_is_non_benford(self):
        c = classify_rationality(exponents_from_proportions(make_model([0.5])))
        assert predict_benford(c) == NON_BENFORD


class TestConfig:
    def test_proportions_config(self):
        model, spec = parse_config({"proportions": [0.5]})
        assert model.p == (0.5, 0.5)
        assert spec.values() == (0.0,)

    def test_exponents_config(self):
        model, spec = parse_config(
            {"exponents": [{"rational": [-1, 3]}, {"real": -0.5}], "base": 10}
        )
        assert spec.y[0] == Fraction(-1, 3)
        assert spec.y[1] == -0.5
        assert abs(sum(model.p) - 1.0) < 1e-12

    def test_exactly_one_key(self):
        with pytest.raises(ConfigError):
            parse_config({"proportions": [0.5], "exponents": [{"real": 0.1}]})
        with pytest.raises(ConfigError):
            parse_config({"base": 10})

    def test_bad_entries(self):
        with pytest.raises(ConfigError):
            parse_config({"proportions": [0.5, 0.6]})
        with pytest.raises(ConfigError):
            parse_config({"exponents": [{"rational": [1]}]})
        with pytest.raises(ConfigError):
            parse_config({"exponents": [{"weird": 1}]})
        with pytest.raises(ConfigError):
            parse_config({"exponents": [{"real": 0.1}], "base": 1})
        huge = 10**400  # an int beyond double range
        for bad in [
            {"exponents": [{"rational": [True, 3]}]},
            {"exponents": [{"real": True}]},
            {"proportions": [0.3, True]},
            {"proportions": ["0.3"]},
            {"exponents": [{"real": huge}]},
            {"proportions": [huge]},
            *({"proportions": [0.3], "base": base} for base in [1, 0, 10.0, True, "10"]),
            {"proportions": []},
            {"exponents": []},
            {"exponents": [{"real": 200.0}, {"real": 200.0}]},  # suffix sum 400 overflows
        ]:
            with pytest.raises(ConfigError):
                parse_config(bad)

    def test_json_round_trip(self, tmp_path):
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"proportions": [0.3, 0.3]}))
        from stickfrag import load_config

        model, _ = load_config(cfg)
        assert model.p == (0.3, 0.3, 0.4)

    def test_load_config_unreadable(self, tmp_path):
        from stickfrag import load_config

        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_load_config_not_utf8(self, tmp_path):
        from stickfrag import load_config

        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"proportions": [0.3], "note": "\xff"}')
        with pytest.raises(ConfigError, match="is not UTF-8"):
            load_config(bad)

    def test_json_error_position_as_in_text(self, tmp_path):
        # line ends are translated as a text-mode read translates them, so
        # the character position in the message is the text's
        from stickfrag.model import read_config

        bad = tmp_path / "crlf.json"
        bad.write_bytes(b'{\r\n"proportions": [0.3],\r\n}')
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(bad.read_text())
        with pytest.raises(ConfigError) as raised:
            read_config(bad)
        assert str(raised.value) == f"config {bad} is not valid JSON: {expected.value}"

    def test_read_config_returns_the_bytes_parsed(self, tmp_path):
        from stickfrag.model import read_config

        cfg = tmp_path / "m.json"
        cfg.write_bytes(b'{"proportions": [0.3]}\r\n')
        assert read_config(cfg) == ({"proportions": [0.3]}, b'{"proportions": [0.3]}\r\n')


def rational_verdict(numerator, denominator):
    return ExponentVerdict(True, numerator, denominator, numerator, max(denominator, 1), 0.0, 10, 1e-13)


@pytest.mark.parametrize(
    "call,exc,fragment",
    [
        (lambda: rational_verdict(1, 0), ValueError, "positive denominator"),
        (lambda: rational_verdict(2, 4), ValueError, "lowest terms"),
        (lambda: parse_config([{"proportions": [0.5]}]), ConfigError, "must be a JSON object"),
        (lambda: parse_config({"exponents": {"real": 0.5}}), ConfigError, '"exponents" must be a list'),
        (lambda: classify_rationality(ExponentSpec((0.5,)), max_denominator=2.5), TypeError,
         "max_denominator must be an integer"),
    ],
    ids=[
        "verdict-zero-denominator", "verdict-not-lowest", "config-not-object", "config-exponents-not-list",
        "float-max-denominator",
    ],
)
def test_argument_checks(call, exc, fragment):
    with pytest.raises(exc, match=fragment):
        call()
