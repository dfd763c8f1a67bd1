"""Certified-slice values ≡ ``float`` of each token, bit for bit.

A certified slice's values are computed without ``float``: every field
is parsed as an integer (dot deleted, exponent split off) and each value
is one ``np.longdouble`` multiplication or division, re-read with
``float`` on a float64 midpoint, a zero, a saturated significand or
``|q| > 27`` (DESIGN §13).  Every test here compares
``_convert_slice``'s values with ``float(token)`` by their bits
(``-0.0`` and ``0.0`` differ), for tokens drawn to reach each of those
cases: ``repr`` of doubles in every binade, subnormals included; C
``%.16e``/``%.17g``/``%.15g`` renderings; integers; random digit
strings; exponents out to ±400; and decimals within 1e-19 of float64
midpoints.  The whole module runs twice: with the extended-precision
path as the platform has it, and with it forced off, when every value
is read with ``float``.
"""

from __future__ import annotations

import math
import platform
import sys
from decimal import Decimal

import numpy as np
import pytest

from repro.formats import io as mmio

#: Tokens per slice: enough lines that a slice spans many values.
BATCH = 500


@pytest.fixture(params=[True, False], ids=["extended", "float-only"])
def extended(request, monkeypatch):
    if request.param and not mmio._EXTENDED:
        pytest.skip("np.longdouble is not x87 extended precision here")
    monkeypatch.setattr(mmio, "_EXTENDED", request.param)
    return request.param


def slice_text(tokens: list[str]) -> str:
    return "".join(
        f"{i % 7 + 1} {i % 5 + 1} {tok}\n" for i, tok in enumerate(tokens)
    )


def assert_values_match(tokens: list[str], allow_nonfinite: bool = True):
    """Each batch of ``tokens`` certifies, with ``float``'s exact bits."""
    for lo in range(0, len(tokens), BATCH):
        batch = tokens[lo : lo + BATCH]
        block = mmio._convert_slice(
            slice_text(batch), 3, 7, 5, len(batch), allow_nonfinite
        )
        assert block is not None, batch
        expected = np.array([float(tok) for tok in batch])
        got = block.vals.view(np.uint64)
        bad = np.flatnonzero(got != expected.view(np.uint64))
        assert not bad.size, [
            (batch[i], block.vals[i], expected[i]) for i in bad[:5]
        ]
        assert block.rows.tolist() == [i % 7 for i in range(len(batch))]
        assert block.cols.tolist() == [i % 5 for i in range(len(batch))]


def random_doubles(rng: np.random.Generator, n: int) -> np.ndarray:
    """Finite doubles from uniformly random bit patterns: every binade,
    both signs, subnormals and zeros all turn up."""
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    vals = bits.view(np.float64)
    return vals[np.isfinite(vals)]


def test_repr_of_doubles_in_every_binade(extended):
    rng = np.random.default_rng(1)
    edges = [
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
        2.225073858507201e-308, 1.7976931348623157e308, 1.0, -1.0, 0.1,
    ]
    powers = [math.ldexp(1.0, e) for e in range(-1074, 1024, 7)]
    doubles = np.concatenate([edges, powers, random_doubles(rng, 3000)])
    assert_values_match([repr(float(v)) for v in doubles])


def test_repr_of_typical_entries(extended):
    """Values like the ones ``write_matrix_market`` emits for real data:
    mostly 16-17 digit decimals, now and then an exponent."""
    rng = np.random.default_rng(2)
    vals = np.concatenate([
        rng.standard_normal(2000),
        rng.standard_normal(500) * 1e-6,
        rng.integers(-1000, 1000, 300).astype(float),
    ])
    rng.shuffle(vals)
    assert_values_match([repr(float(v)) for v in vals])


@pytest.mark.parametrize("fmt", ["%.16e", "%.17g", "%.15g", "%.16E"])
def test_c_format_renderings(extended, fmt):
    rng = np.random.default_rng(3)
    doubles = np.concatenate([
        random_doubles(rng, 1500),
        rng.standard_normal(1000) * 10.0 ** rng.integers(-30, 30, 1000),
    ])
    assert_values_match([fmt % v for v in doubles])


def test_integer_tokens(extended):
    rng = np.random.default_rng(4)
    ints = [0, -0, 1, -1, 2**53 + 1, 2**63 - 1, 2**63, -(2**63), 2**64 + 7]
    ints += rng.integers(-(2**62), 2**62, 1000).tolist()
    ints += [int("".join(map(str, row))) for row in rng.integers(0, 10, (300, 21))]
    tokens = [str(i) for i in ints] + ["+7", "-0", "+0", "007", "-000"]
    assert_values_match(tokens)


def random_digit_tokens(rng: np.random.Generator, n: int) -> list[str]:
    """1-21 digits with leading zeros, an optional sign and the dot
    anywhere (also first or last)."""
    tokens = []
    for _ in range(n):
        k = int(rng.integers(1, 22))
        digits = "".join(map(str, rng.integers(0, 10, k)))
        if rng.random() < 0.3:
            digits = "0" * int(rng.integers(1, 6)) + digits
        dot = int(rng.integers(0, len(digits) + 2))
        if dot <= len(digits):
            digits = digits[:dot] + "." + digits[dot:]
        sign = rng.choice(["", "", "-", "+"])
        tokens.append(sign + digits)
    return tokens


def test_random_digit_strings(extended):
    assert_values_match(random_digit_tokens(np.random.default_rng(5), 4000))


def test_exponents_out_to_400(extended):
    rng = np.random.default_rng(6)
    mantissas = random_digit_tokens(rng, 3000)
    tokens = [
        f"{m}{rng.choice(['e', 'E'])}{rng.choice(['', '+', '-'])}"
        f"{int(rng.integers(0, 401)):0{int(rng.integers(1, 4))}d}"
        for m in mantissas
    ]
    tokens += ["1e400", "-1e400", "1e-400", "-0e-400", "9.9e307", "1e-320"]
    assert_values_match(tokens)


def test_overflow_to_inf_declines_when_nonfinite_is_refused(extended):
    for tokens in (["1.5", "1e400"], ["-2e308", "3"], ["0.1", "1" * 310]):
        text = slice_text(tokens)
        assert mmio._convert_slice(text, 3, 7, 5, 2, False) is None, tokens
        block = mmio._convert_slice(text, 3, 7, 5, 2, True)
        assert block is not None and np.isinf(block.vals).any()
    assert_values_match(["1e308", "-1.7976931348623157e308"], False)


def midpoint_tokens(rng: np.random.Generator, n: int) -> list[str]:
    """Decimals within 1e-19 (relative) of float64 midpoints, rounded to
    17-19 significant digits: most 19-digit ones lie within half a
    64-bit ulp of the midpoint, where only the re-read is right."""
    tokens = []
    for v in np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-8, 40, n):
        mid = (Decimal(float(v)) + Decimal(float(np.nextafter(v, np.inf)))) / 2
        for offset in (0, 1, -1):
            near = mid * (1 + offset * Decimal("1e-19"))
            digits = int(rng.choice([17, 18, 19, 19, 19]))
            token = f"{near:.{digits - 1}e}"
            if near.adjusted() < digits and rng.random() < 0.5:
                token = format(Decimal(token), "f")
            tokens.append(token)
    return tokens


def parse_token(token: str) -> tuple[int, int]:
    """The ``(w, q)`` of a value token, as the slice parse finds them."""
    mantissa, _, exp = token.lower().partition("e")
    whole, _, frac = mantissa.partition(".")
    return int(whole + frac), int(exp or 0) - len(frac)


def test_values_near_float64_midpoints(extended):
    tokens = midpoint_tokens(np.random.default_rng(7), 3000)
    assert_values_match(tokens)
    if extended:
        # The midpoint re-read really runs: many of these tokens land
        # exactly on a float64 midpoint in extended precision.
        w, q = np.array([
            (w, q) for w, q in map(parse_token, tokens)
            if abs(w) < 2**63 and abs(q) <= 27
        ]).T
        _, redo = mmio._decimal_values(w, q + 28)
        assert redo.size > w.size // 10, (redo.size, w.size)


def test_exponent_layouts_all_certify(extended):
    """A slice of plain values, one with an exponent on every line and one
    that mixes them each take their own path to the same bits."""
    rng = np.random.default_rng(8)
    vals = rng.standard_normal(300)
    plain = [f"{v:.17f}" for v in vals]
    every = [f"{v:.16e}" for v in vals]
    mixed = [p if i % 3 else e for i, (p, e) in enumerate(zip(plain, every))]
    for tokens in (plain, every, mixed, plain[:1], every[:1]):
        assert_values_match(tokens)


@pytest.mark.skipif(
    not (sys.platform.startswith("linux") and platform.machine() == "x86_64"),
    reason="x87 extended precision is the x86-64 Linux np.longdouble",
)
def test_extended_path_is_on_for_x86_64_linux():
    """Without this, CI could be testing the ``float`` fallback alone."""
    assert np.finfo(np.longdouble).nmant == 63
    assert mmio._EXTENDED
    assert mmio._extended_precision()
