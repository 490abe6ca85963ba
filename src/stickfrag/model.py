"""Fragmentation models: proportion vectors, log-ratio exponents, rationality.

A model is an ordered vector of split proportions (p1, ..., pm) summing to 1.
Its Benford behaviour is governed entirely by the exponents
y_i = log_base(p_i / p_{i+1}): the stick lengths converge to strong Benford's
law iff at least one y_i is irrational.  Since irrationality is undecidable
from a float, classification is heuristic: exact rational inputs are accepted
as rational, and float inputs are searched for a close convergent by
continued fractions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, islice
from pathlib import Path
from typing import Union

import numpy as np

from .errors import ConfigError

# Verdict strings used across the package.
BENFORD = "Benford"
NON_BENFORD = "NonBenford"

NORMALIZATION_SLACK = 1e-12
DEFAULT_MAX_DENOMINATOR = 10**6
DEFAULT_TOLERANCE = 1e-13  # see README: must sit below 1/max_denominator**2
MAX_CF_TERMS = 64  # partial quotients _convergents reads before giving up
# read_config refuses a larger file, so no config is read until memory runs
# out (/dev/zero has no end).  Reading and parsing peak at up to 46 B a byte
# (tracemalloc: lists nested 500 deep; [[],[],...] 24, [1e-9,...] 19), so at
# most 1.5 GB at this cap, about a third of the engines' 4 GiB byte limit.
_CONFIG_BYTES = 32 << 20

Exponent = Union[Fraction, float]


def exponent_entry(e) -> Exponent:
    """One exponent: a Fraction as is, an (a, b) pair of ints with b != 0 as
    Fraction(a, b), or a number as _check_real judges it finite, as a float."""
    if isinstance(e, Fraction):
        return e
    if isinstance(e, tuple) and len(e) == 2 and all(type(v) is int for v in e):  # never a bool
        if e[1] == 0:
            raise ValueError(f"rational pair {e!r} has a zero denominator")
        return Fraction(*e)
    return float(_check_real("exponent", e))


def _check_count(name: str, value, lo: int) -> int:
    """value as a Python int, judged a count >= lo: TypeError unless an int or
    a numpy integer (never a bool), ValueError below lo."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if (value := int(value)) < lo:
        raise ValueError(f"need {name} >= {lo}, got {value}")
    return value


def _check_real(name: str, value, lo: float = -math.inf, hi: float = math.inf, ends: str = "()") -> int | float:
    """value as a Python int (an int or numpy integer) or float (a float, numpy float or Fraction), judged
    finite and between lo and hi, each end open or closed as ends reads ("()", "[]", "(]" or "[)"):
    TypeError unless such a number (never a bool), ValueError otherwise; past double range is +-inf."""
    if type(value) is not float:  # a Python float, the common case, is judged as is
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating, Fraction)):
            raise TypeError(f"{name} must be a real number, got {value!r}")
        try:
            value = int(value) if isinstance(value, (int, np.integer)) else float(value)
            float(value)  # an int past double range overflows here, a Fraction one line up
        except OverflowError:
            value = math.inf if value > 0 else -math.inf
    if not (math.isfinite(value) and (lo < value or lo == value and ends[0] == "[")
            and (value < hi or value == hi and ends[1] == "]")):
        bounds = "" if (lo, hi) == (-math.inf, math.inf) else f" and in {ends[0]}{lo:g}, {hi:g}{ends[1]}"
        raise ValueError(f"{name} must be finite{bounds}, got {value!r}")
    return value


def _check_base(base) -> int:
    """base as a Python int, judged by _check_count >= 2; ValueError for any refusal."""
    try:
        return _check_count("base", base, 2)
    except (TypeError, ValueError):
        raise ValueError(f"base must be an integer >= 2, got {base!r}") from None


def _ratio(base: int, y: Exponent) -> float:
    """base**y as a float; ValueError when it overflows or underflows to 0."""
    try:
        ratio = math.pow(base, y)
    except OverflowError:
        ratio = math.inf
    if ratio == 0.0 or not math.isfinite(ratio):
        raise ValueError(f"ratio base**{y} leaves double range")
    return ratio


@dataclass(frozen=True)
class ProportionVector:
    """Fixed split proportions p1..pm, each in (0,1), summing to 1.

    Construction renormalizes by the sum when |sum - 1| <= 1e-12 and rejects
    anything further off.
    """

    p: tuple[float, ...]

    def __post_init__(self):
        p = tuple(_check_real("proportion", x, 0.0, 1.0) for x in self.p)  # floats: no int lies in (0, 1)
        if len(p) < 2:
            raise ValueError(f"need at least 2 proportions, got {len(p)}")
        total = math.fsum(p)
        if abs(total - 1.0) > NORMALIZATION_SLACK:
            raise ValueError(f"proportions sum to {total!r}, not 1 within {NORMALIZATION_SLACK}")
        if total != 1.0:
            p = tuple(x / total for x in p)
        object.__setattr__(self, "p", p)

    @property
    def m(self) -> int:
        return len(self.p)

    def permuted(self, order: tuple[int, ...]) -> "ProportionVector":
        return ProportionVector(tuple(self.p[i] for i in order))


@dataclass(frozen=True)
class ExponentSpec:
    """Exponents y_1..y_{m-1}, each an exact Fraction or a float, plus a base.

    Entries are read by exponent_entry (a Fraction, an (a, b) pair of ints or
    a finite number); rational ones stay exact, free of float ambiguity.
    """

    y: tuple[Exponent, ...]
    base: int = 10

    def __post_init__(self):
        object.__setattr__(self, "base", _check_base(self.base))
        if len(self.y) < 1:
            raise ValueError("need at least one exponent")
        y = tuple(exponent_entry(e) for e in self.y)
        for e in y:
            _ratio(self.base, e)  # raises when base**e leaves double range
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        return len(self.y) + 1

    def values(self) -> tuple[float, ...]:
        """Exponents as plain floats."""
        return tuple(float(e) for e in self.y)


@dataclass(frozen=True)
class ExponentVerdict:
    """Per-exponent rationality verdict with the evidence that produced it."""

    rational: bool
    numerator: int | None
    denominator: int | None
    witness_numerator: int
    witness_denominator: int
    witness_error: float
    max_denominator: int
    tolerance: float

    def __post_init__(self):
        if self.rational:
            if self.denominator is None or self.denominator < 1:
                raise ValueError("rational verdict needs a positive denominator")
            if math.gcd(abs(self.numerator), self.denominator) != 1:
                raise ValueError("rational verdict must be in lowest terms")


@dataclass(frozen=True)
class ExponentClassification:
    """Rationality verdicts for all m-1 exponents of a model."""

    verdicts: tuple[ExponentVerdict, ...]
    max_denominator: int
    tolerance: float

    @property
    def all_rational(self) -> bool:
        return all(v.rational for v in self.verdicts)


def make_model(p: list[float] | tuple[float, ...]) -> ProportionVector:
    """Build the full m-vector from the m-1 free proportions.

    The last proportion is forced: pm = 1 - sum(p).  This refuses an empty
    list, a non-finite entry (_check_real), a sum >= 1 and entries whose
    partial sums leave double range (each such sum has an entry of size
    above 1); ProportionVector refuses any entry outside (0, 1).
    """
    p = tuple(_check_real("free proportion", x) for x in p)
    if len(p) < 1:
        raise ValueError("need at least one free proportion")
    try:
        total = math.fsum(p)
    except OverflowError:
        raise ValueError("free proportions must each lie in (0, 1); their partial sums leave double range") from None
    if total >= 1.0:
        raise ValueError(f"free proportions sum to {total}, must be < 1")
    return ProportionVector(p + (1.0 - total,))


def log_base(x, base: int):
    """log_base(x) for a positive float or float array: log10 for base 10, else log(x)/log(base).

    Every log-length in the package goes through here, so sampled and enumerated
    atoms share their bits (numpy's array logs may round unlike math's), and
    every base is judged here by _check_base before a log is taken.
    """
    base = _check_base(base)
    if isinstance(x, np.ndarray):
        if base == 10:
            return np.log10(x)
        out = np.log(x)
        out /= math.log(base)  # in place: no second array of len(x)
        return out
    return math.log10(x) if base == 10 else math.log(x) / math.log(base)


def exponents_from_proportions(model: ProportionVector, base: int = 10) -> ExponentSpec:
    """y_i = log_base(p_i / p_{i+1}) for consecutive proportions."""
    y = [log_base(a / b, base) for a, b in zip(model.p, model.p[1:])]
    return ExponentSpec(tuple(y), base)


def proportions_from_exponents(spec: ExponentSpec) -> ProportionVector:
    """Invert exponents_from_proportions.

    With t_i = base**(y_i + ... + y_{m-1}), the unique normalized solution is
    pm = 1/(1 + sum t_i) and p_i = t_i * pm.
    """
    t = [_ratio(spec.base, suffix) for suffix in accumulate(reversed(spec.values()))][::-1]
    try:
        pm = 1.0 / (1.0 + math.fsum(t))  # >= 5.6e-309 whenever the sum is finite
    except OverflowError:
        raise ValueError("exponents produce proportions outside double range") from None
    return ProportionVector(tuple(ti * pm for ti in t) + (pm,))


def _convergents(x: float, max_denominator: int):
    """Yield continued-fraction convergents (p, q, |x - p/q|) with q <= bound.

    Terminates when the expansion is exhausted (float x is rational), the
    denominator bound is passed, or MAX_CF_TERMS partial quotients were consumed.
    """
    p0, q0 = 1, 0
    a = math.floor(x)
    p1, q1 = a, 1
    yield p1, q1, abs(x - p1)
    rem = x - a
    for _ in range(MAX_CF_TERMS):
        if rem == 0.0:
            return
        inv = 1.0 / rem
        a = math.floor(inv)
        rem = inv - a
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > max_denominator:
            return
        yield p1, q1, abs(x - p1 / q1)


def classify_rationality(
    spec: ExponentSpec,
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ExponentClassification:
    """Classify each exponent as Rational(a, b) or presumed irrational.

    Exact Fraction entries are rational by construction.  Float entries are
    expanded by continued fractions; the first convergent with denominator
    <= max_denominator and error <= tolerance wins.  If none qualifies the
    entry is presumed irrational and the best convergent found is kept as a
    witness.  Deterministic.
    """
    max_denominator = _check_count("max_denominator", max_denominator, 1)
    tolerance = _check_real("tolerance", tolerance, 0.0)
    verdicts = []
    for entry in spec.y:
        if isinstance(entry, Fraction):
            best = hit = (entry.numerator, entry.denominator, 0.0)
        else:
            best = hit = None
            for p, q, err in _convergents(float(entry), max_denominator):
                if best is None or err < best[2]:
                    best = (p, q, err)
                if err <= tolerance:
                    hit = (p, q, err)
                    break
        rational = hit is not None
        p, q, err = hit if rational else best
        verdicts.append(
            ExponentVerdict(
                rational=rational,
                numerator=p if rational else None,
                denominator=q if rational else None,
                witness_numerator=p,
                witness_denominator=q,
                witness_error=err,
                max_denominator=max_denominator,
                tolerance=tolerance,
            )
        )
    return ExponentClassification(tuple(verdicts), max_denominator, tolerance)


def predict_benford(classification: ExponentClassification) -> str:
    """Theorem-level prediction: Benford iff some exponent is irrational."""
    return NON_BENFORD if classification.all_rational else BENFORD


# ---------------------------------------------------------------------------
# Model configuration files

def parse_config(data: dict) -> tuple[ProportionVector, ExponentSpec]:
    """Parse a model configuration dict.

    Exactly one of "proportions" (the m-1 free proportions handed to
    make_model) or "exponents" (a list of {"rational": [a, b]} or
    {"real": x} entries, with optional "base") must be present.  [a, b] and x are
    exponent_entry's pair and number forms.

    Only the JSON shape is checked here.  The values are judged where they are
    used (make_model, ProportionVector, ExponentSpec, exponents_from_proportions
    and proportions_from_exponents), and a refusal there surfaces as ConfigError.
    """
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    has_p = "proportions" in data
    has_y = "exponents" in data
    if has_p == has_y:
        raise ConfigError('config must contain exactly one of "proportions" or "exponents"')
    base = data.get("base", 10)
    if has_p:
        raw = data["proportions"]
        if not isinstance(raw, list):
            raise ConfigError('"proportions" must be a list')
        try:
            model = make_model(raw)
            return model, exponents_from_proportions(model, base)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad proportions: {exc}") from exc
    raw = data["exponents"]
    if not isinstance(raw, list):
        raise ConfigError('"exponents" must be a list')
    entries = []
    for item in raw:
        if isinstance(item, dict) and set(item) == {"rational"} and isinstance(item["rational"], list):
            entries.append(tuple(item["rational"]))
        elif isinstance(item, dict) and set(item) == {"real"}:
            entries.append(item["real"])
        else:
            raise ConfigError(f"exponent entry must be {{'rational': [a, b]}} or {{'real': x}}, got {item!r}")
    try:
        spec = ExponentSpec(tuple(entries), base)
        model = proportions_from_exponents(spec)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad exponents: {exc}") from exc
    return model, spec


def read_config(path: str | Path) -> tuple[object, bytes]:
    """The decoded JSON of a configuration file, unparsed, and the bytes it was
    decoded from; ConfigError if unreadable, larger than _CONFIG_BYTES, not UTF-8
    JSON or holding NaN, +-Infinity or 1e400, which a config echo would write out as no JSON.

    Line ends are translated as a text-mode read (universal newlines) does,
    so a JSON error names the character position such a read would give.
    """
    try:
        with Path(path).open("rb") as f:
            # in 64 KiB blocks: read(n) would allocate all n bytes for a small file too
            data = b"".join(islice(iter(partial(f.read, 1 << 16), b""), (_CONFIG_BYTES >> 16) + 1))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if len(data) > _CONFIG_BYTES:
        raise ConfigError(f"config {path} is larger than {_CONFIG_BYTES} bytes")

    def number(text: str) -> float:  # a JSON float, or the constant NaN or +-Infinity
        return _check_real("a number", float(text))
    try:
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text, parse_float=number, parse_constant=number), data
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, an int of over 4300 digits, a deep nesting
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def load_config(path: str | Path) -> tuple[ProportionVector, ExponentSpec]:
    """Load and parse a JSON model configuration file."""
    return parse_config(read_config(path)[0])
