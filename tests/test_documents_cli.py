"""Document formats and the command-line front end.

Exit codes: 0 success, 1 semantic failure, 2 parse failure, 3 numeric
tolerance, 4 indeterminate arithmetic.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernelflow
from kernelflow.borel import cell_count
from kernelflow.cli import main
from kernelflow.documents import (
    MorphismDocument,
    _fraction,
    format_fraction,
    parse_distribution,
    parse_forecast_log,
    parse_morphism,
    parse_piecewise,
    serialize_morphism,
)
from kernelflow.errors import DocumentParseError, DomainMismatchError, IncoherentPairError
from kernelflow.finite import (
    FiniteDistribution,
    FiniteSpace,
    StochasticKernel,
    _check_map,
    dirac,
    pushforward,
    uniform,
)
from kernelflow.pairs import CoherentPair
from kernelflow.scoring import ForecastRecord

from helpers import fraction_kl, ln_fraction, unlimited_str

COIN_DOC = """\
morphism v1
space pairs HH HT TH TT
space toss H T
map HH H
map HT H
map TH T
map TT T
p HH 1/4
p HT 1/4
p TH 1/4
p TT 1/4
s H HH 2/3
s H HT 1/3
s T TH 1/3
s T TT 2/3
"""

HALF_LN43_DOC = """\
morphism v1
space X x1 x2
space pt star
map x1 star
map x2 star
p x1 1/2
p x2 1/2
s star x1 1/4
s star x2 3/4
"""

OPTIMAL_DOC = """\
morphism v1
space X x1 x2
space pt star
map x1 star
map x2 star
p x1 1/2
p x2 1/2
s star x1 1/2
s star x2 1/2
"""

# second stage for the coin document: collapse the toss to a point with
# the optimal hypothesis, so the chain's residual is exactly zero
COLLAPSE_DOC = """\
morphism v1
space toss H T
space pt z
map H z
map T z
p H 1/2
p T 1/2
s z H 1/2
s z T 1/2
"""

VIOLATION_DOC = """\
morphism v1
space X a b
space Y u v
map a u
map b v
p a 1/2
p b 1/2
s u b 1
s v b 1
"""

# a coherent pair but for the map line at zz, a point outside X, on line 6
MAP_OUTSIDE_X_DOC = """\
morphism v1
space X a b
space Y H T
map a H
map b T
map zz H
p a 1/2
p b 1/2
s H a 1
s T b 1
"""

# a pair on X = {a, b, c} but for the map line sending c to Z, a point
# outside Y, on line 6
MAP_OUTSIDE_Y_DOC = """\
morphism v1
space X a b c
space Y H T
map a H
map b T
map c Z
p a 1/2
p b 1/2
s H a 1
s T b 1
"""

FORECAST_LOG = """\
forecast-log v1
outcomes H T
forecast 1 alice H 2/3 1/3
forecast 2 alice T 1/2 1/2
"""

SEQ_LOG = """\
forecast-log v1
outcomes H T
forecast 1 alice H 1/4 3/4
forecast 2 bob H 1/2 1/2
"""

# 1/2 recurs on every line, and the one bad token, x/2, is on line 5
REPEATED_TOKEN_LOG = """\
forecast-log v1
outcomes H T
forecast 1 alice H 1/2 1/2
forecast 2 alice T 1/2 1/2
forecast 3 alice H 1/2 x/2
"""

TRUTH_DOC = """\
distribution v1
space H T
mass H 1/2
mass T 1/2
"""

PIECEWISE_DOC = """\
piecewise v1
piece 0 1/2 1 3/2
piece 1/2 1 1 1/2
"""


def long_q_document(n=1400):
    """(text, q): a morphism of n points onto fibres a and b, alternating,
    and the fibre masses.  Point i has mass 1/p_i - 1/p_(i+1) for
    consecutive primes above 10,007, the last point takes the rest, and s
    is uniform on each fibre.  Every mass token has at most 19 characters,
    but at n = 1,400 each q(y) has a denominator past CPython's default
    limit of 4,300 digits on int-to-str conversion."""
    sieve = bytearray([1]) * 25_000
    for k in range(2, math.isqrt(25_000) + 1):
        if sieve[k]:
            sieve[k * k::k] = bytes(len(range(k * k, 25_000, k)))
    primes = [k for k in range(10_008, 25_000) if sieve[k]][:n]
    p = [Fraction(1, lo) - Fraction(1, hi) for lo, hi in zip(primes, primes[1:])]
    p.append(1 - sum(p))
    fibre = ["ab"[i % 2] for i in range(n)]
    lines = ["morphism v1", "space X " + " ".join(f"x{i}" for i in range(n)), "space Y a b"]
    lines += [f"map x{i} {y}" for i, y in enumerate(fibre)]
    lines += [f"p x{i} {m}" for i, m in enumerate(p)]
    lines += [f"s {y} x{i} 2/{n}" for i, y in enumerate(fibre)]
    q = {y: sum(m for m, f in zip(p, fibre) if f == y) for y in "ab"}
    return "".join(line + "\n" for line in lines), q


LONG_Q_DOC, LONG_Q = long_q_document()
# the same morphism with a declared q that is not the pushforward of p
WRONG_Q_DOC = LONG_Q_DOC + "q a 1/2\nq b 1/2\n"


# digits, both signs, the slash, decimal point, exponent and underscore,
# a non-ASCII decimal digit and a superscript digit (a digit, not decimal);
# exponents stay short, so no token asks for a huge power of ten
MASS_TOKENS = st.one_of(
    st.from_regex(r"\A[-+]?[0-9٣_]{1,6}(/[-+]?[0-9٣_]{0,6})?\Z"),
    st.text("0123456789/-+.e_٣²", min_size=1, max_size=10).filter(
        lambda t: "e" not in t or len(t.rpartition("e")[2]) <= 4
    ),
)


def assert_parsed_like_fraction(token):
    """_fraction(token) is Fraction(token), or fails exactly when it fails
    or gives a negative value; a value with more digits than int-to-str
    conversion allows may instead fail as out of range."""
    try:
        expected = Fraction(token)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(DocumentParseError, match="not a fraction"):
            _fraction(token, 1)
        return
    try:
        str(expected)
        printable = True
    except ValueError:
        printable = False
    if expected < 0:
        match = "negative mass" if printable else "negative mass|exponent out of range"
        with pytest.raises(DocumentParseError, match=match):
            _fraction(token, 1)
    elif printable:
        got = _fraction(token, 1)
        assert type(got) is Fraction and got == expected
    else:
        try:
            got = _fraction(token, 1)
        except DocumentParseError as exc:
            assert "exponent out of range" in str(exc)
        else:
            assert type(got) is Fraction and got == expected


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@st.composite
def maps_and_rows(draw):
    """Point labels of X and Y, a map from X to Y, and hypothesis entries
    (y, x, mass), one row at each point of Y, each row a distribution on X,
    in any order and interleaved; then up to three faults, each a map entry
    dropped or sent outside Y, a row dropped, or a row at an unknown point."""
    xs = [f"x{i}" for i in range(draw(st.integers(1, 4)))]
    ys = [f"y{i}" for i in range(draw(st.integers(1, 3)))]
    f = {x: draw(st.sampled_from(ys)) for x in draw(st.permutations(xs))}
    at = dict.fromkeys(draw(st.permutations(ys)))
    for fault in draw(st.lists(st.sampled_from(["undefined", "outside", "no row", "unknown row"]),
                               max_size=3)):
        if fault == "undefined":
            f.pop(draw(st.sampled_from(xs)), None)
        elif fault == "outside":
            f[draw(st.sampled_from(xs))] = "u0"
        elif fault == "no row":
            at.pop(draw(st.sampled_from(ys)), None)
        else:
            at[draw(st.sampled_from(["u0", "u1"]))] = None
    entries = []
    for y in at:
        support = draw(st.lists(st.sampled_from(xs), min_size=1, unique=True))
        entries += ((y, x, Fraction(1, len(support))) for x in support)
    return xs, ys, f, draw(st.permutations(entries))


class TestMorphismDocuments:
    def test_parse_coin(self):
        doc = parse_morphism(COIN_DOC)
        pair = doc.to_pair()
        assert pair.q(("H")) == Fraction(1, 2)
        assert pair.s("H")("HH") == Fraction(2, 3)

    def test_round_trip_byte_identical(self):
        doc = parse_morphism(COIN_DOC)
        text = serialize_morphism(doc)
        assert serialize_morphism(parse_morphism(text)) == text

    @pytest.mark.parametrize(
        "label, x_name, y_name, named",
        [
            ("a b", "X", "Y", "label 'a b'"),
            ("a#1", "X", "Y", "label 'a#1'"),
            ("a", "X", "X", "named 'X'"),
            ("a", "X 1", "Y", "space name 'X 1'"),
        ],
    )
    def test_serialization_refuses_what_cannot_be_read_back(self, label, x_name, y_name, named):
        xs, ys = FiniteSpace((label,)), FiniteSpace(("b",))
        doc = MorphismDocument(
            x_name,
            y_name,
            dirac(label, xs),
            {label: "b"},
            StochasticKernel(ys, xs, {"b": dirac(label, xs)}),
            None,
        )
        with pytest.raises(DomainMismatchError, match=named):
            serialize_morphism(doc)

    @pytest.mark.parametrize(
        "f, target, named",
        [
            ({}, ("a",), "map undefined at point 'a'"),
            ({"a": "zz"}, ("a",), "map sends 'a' to 'zz', outside the target space"),
            ({"a": "b"}, ("a", "d"), "rows live on another space than p"),
        ],
        ids=["map-undefined", "map-outside-y", "rows-off-x"],
    )
    def test_serialization_refuses_a_morphism_it_cannot_write(self, f, target, named):
        xs, ts = FiniteSpace(("a",)), FiniteSpace(target)
        s = StochasticKernel(FiniteSpace(("b",)), ts, {"b": uniform(ts)})
        doc = MorphismDocument("X", "Y", dirac("a", xs), f, s, None)
        with pytest.raises(DomainMismatchError, match=named):
            serialize_morphism(doc)

    def test_serialization_is_canonical(self):
        # shuffled directive order parses to the same canonical bytes
        shuffled = COIN_DOC.splitlines()
        reordered = [shuffled[0]] + shuffled[1:3] + shuffled[7:11] + shuffled[3:7] + shuffled[11:]
        doc_a = parse_morphism(COIN_DOC)
        doc_b = parse_morphism("\n".join(reordered) + "\n")
        assert serialize_morphism(doc_a) == serialize_morphism(doc_b)

    def test_comments_and_blank_lines_ignored(self):
        text = COIN_DOC.replace("map HH H", "map HH H  # first coin\n\n")
        assert serialize_morphism(parse_morphism(text)) == serialize_morphism(
            parse_morphism(COIN_DOC)
        )

    def test_round_trip_keeps_a_declared_q(self):
        doc = parse_morphism(COIN_DOC + "q H 1/3\nq T 2/3\n")
        text = serialize_morphism(doc)
        assert "q H 1/3\nq T 2/3\n" in text
        assert parse_morphism(text).validate() == (
            "pushforward mismatch at 'H': expected 1/3, got 1/2",
            "pushforward mismatch at 'T': expected 2/3, got 1/2",
        )
        assert serialize_morphism(parse_morphism(text)) == text

    def test_serialization_refuses_a_q_off_y(self):
        doc = parse_morphism(COIN_DOC)
        doc = dataclasses.replace(doc, q=uniform(doc.p.space))
        with pytest.raises(DomainMismatchError, match="declared q lives on another space"):
            serialize_morphism(doc)

    def test_declared_q_mismatch(self):
        doc = parse_morphism(COIN_DOC + "q H 1/3\nq T 2/3\n")
        with pytest.raises(IncoherentPairError) as err:
            doc.to_pair()
        assert "'H'" in str(err.value)

    def test_parse_error_carries_line(self):
        bad = COIN_DOC.replace("p HH 1/4", "p HH one-quarter")
        with pytest.raises(DocumentParseError) as err:
            parse_morphism(bad)
        assert err.value.line == 8
        assert "one-quarter" in str(err.value)

    def test_missing_header(self):
        with pytest.raises(DocumentParseError):
            parse_morphism("space X a b\n")

    def test_bad_mass_sum(self):
        bad = COIN_DOC.replace("p TT 1/4", "p TT 1/3")
        with pytest.raises(DocumentParseError) as err:
            parse_morphism(bad)
        assert "sum" in str(err.value)

    def test_distribution_errors_name_what_failed(self):
        cases = [
            (COIN_DOC.replace("s H HT 1/3", "s H HT 1/2"), "s row 'H': masses sum to 7/6, not 1"),
            (COIN_DOC.replace("p TT 1/4", "p ZZ 1/4"), "p: mass assigned to unknown point 'ZZ'"),
            (COIN_DOC + "q H 1/2\nq T 1/3\n", "q: masses sum to 5/6, not 1"),
        ]
        for text, message in cases:
            with pytest.raises(DocumentParseError) as err:
                parse_morphism(text)
            assert message in str(err.value)
        with pytest.raises(DocumentParseError) as err:
            parse_forecast_log(FORECAST_LOG.replace("2/3 1/3", "2/3 1/2"))
        assert err.value.line == 3
        assert "forecast: masses sum to 7/6, not 1" in str(err.value)

    def test_distribution_errors_carry_the_entry_line(self):
        # an unknown point is reported at its own line, a wrong sum at the
        # last line of that distribution, not at the document's last line
        with_q = COIN_DOC.replace("s H HH 2/3", "q H 1/2\nq T 1/3\ns H HH 2/3")
        extra_row = COIN_DOC.replace("s H HT 1/3", "s H HT 1/3\ns Z TH 1")
        cases = [
            (COIN_DOC.replace("p TH 1/4", "p ZZ 1/4"), 10, "p: mass assigned to unknown"),
            (COIN_DOC.replace("p HT 1/4", "p HT 1/3"), 11, "p: masses sum to"),
            (COIN_DOC.replace("s H HH 2/3", "s H HH 1/2"), 13, "s row 'H': masses sum to"),
            (COIN_DOC.replace("s T TH 1/3", "s T ZZ 1/3"), 14, "s row 'T': mass assigned to"),
            (with_q, 13, "q: masses sum to 5/6"),
            (with_q.replace("q H 1/2", "q Z 1/2"), 12, "q: mass assigned to unknown"),
            (COIN_DOC.replace("map TH T", "map TH Z"), 6,
             "map sends 'TH' to 'Z', outside the target space"),
            (extra_row, 14, "rows given for unknown points ['Z']"),
        ]
        for text, line, message in cases:
            with pytest.raises(DocumentParseError) as err:
                parse_morphism(text)
            assert err.value.line == line, (message, str(err.value))
            assert message in str(err.value)
        with pytest.raises(DocumentParseError) as err:
            parse_distribution(TRUTH_DOC.replace("mass H", "mass Z"))
        assert err.value.line == 3
        assert "distribution: mass assigned to unknown point 'Z'" in str(err.value)

    def test_missing_row(self):
        bad = COIN_DOC.replace("s T TH 1/3\n", "").replace("s T TT 2/3\n", "")
        with pytest.raises(DocumentParseError) as err:
            parse_morphism(bad)
        assert "'T'" in str(err.value)

    def test_a_faulty_row_is_read_before_a_missing_row(self):
        # every given row is read as a distribution before the kernel
        # notices that the row at H is missing
        bad = COIN_DOC.replace("s H HH 2/3\ns H HT 1/3\n", "").replace("s T TT 2/3", "s T TT 1/3")
        with pytest.raises(DocumentParseError) as err:
            parse_morphism(bad)
        assert str(err.value) == "line 13, column 1: s row 'T': masses sum to 2/3, not 1"

    @settings(max_examples=300, deadline=None, database=None)
    @given(maps_and_rows())
    def test_map_and_row_faults_read_as_the_library_reads_them(self, drawn):
        # a document is only the text of f and s: it fails exactly when
        # _check_map and StochasticKernel fail on the same objects, with
        # their message, at the map line of the point at fault, the last s
        # line of its row, or the last line when no line names the point
        xs, ys, f, entries = drawn
        lines = ["morphism v1", "space X " + " ".join(xs), "space Y " + " ".join(ys)]
        map_line, row_line, rows = {}, {}, {}
        for x, y in f.items():
            lines.append(f"map {x} {y}")
            map_line[x] = len(lines)
        lines += (f"p {x} 1/{len(xs)}" for x in xs)
        for y, x, m in entries:
            lines.append(f"s {y} {x} {format_fraction(m)}")
            row_line[y] = len(lines)
            rows.setdefault(y, {})[x] = m
        x_space, y_space = FiniteSpace(xs), FiniteSpace(ys)
        try:
            _check_map(f, x_space, y_space)
            s = StochasticKernel(y_space, x_space, {
                y: FiniteDistribution(x_space, row) for y, row in rows.items()})
        except DomainMismatchError as exc:
            bad_x = [x for x in xs if f.get(x) not in ys]
            if bad_x:
                line = map_line.get(bad_x[0], len(lines))
            elif any(y not in rows for y in ys):
                line = len(lines)
            else:
                line = row_line[next(y for y in rows if y not in ys)]
            with pytest.raises(DocumentParseError) as err:
                parse_morphism("\n".join(lines) + "\n")
            assert str(err.value) == f"line {line}, column 1: {exc}"
        else:
            assert parse_morphism("\n".join(lines) + "\n").s == s


class TestPushforwardDerivedOnce:
    """q is derived in one place: building a pair pushes p forward once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Every call of pushforward, through whichever module imported it."""
        calls = []

        def counting(*args):
            calls.append(args)
            return pushforward(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("kernelflow") and getattr(module, "pushforward", None) is pushforward:
                monkeypatch.setattr(module, "pushforward", counting)
        return calls

    def test_morphism_document(self, calls):
        parse_morphism(COIN_DOC).to_pair()
        assert len(calls) == 1

    def test_pair_without_q(self, calls):
        doc = parse_morphism(COIN_DOC)
        pair = CoherentPair(doc.f, doc.s, doc.p)
        assert len(calls) == 1
        assert pair.q == uniform(doc.s.source)


class TestOtherDocuments:
    def test_distribution(self):
        d = parse_distribution(TRUTH_DOC)
        assert d("H") == Fraction(1, 2)

    def test_distribution_bad_sum(self):
        with pytest.raises(DocumentParseError):
            parse_distribution(TRUTH_DOC.replace("mass T 1/2", "mass T 1/3"))

    def test_forecast_log(self):
        log = parse_forecast_log(FORECAST_LOG)
        assert log.forecasters() == ("alice",)
        assert log.records[0].forecast("H") == Fraction(2, 3)

    def test_forecast_log_bad_sum(self):
        bad = FORECAST_LOG.replace("2/3 1/3", "2/3 1/2")
        with pytest.raises(DocumentParseError) as err:
            parse_forecast_log(bad)
        assert err.value.line == 3

    def test_forecast_log_unknown_outcome(self):
        bad = FORECAST_LOG.replace("forecast 1 alice H", "forecast 1 alice X")
        with pytest.raises(DocumentParseError):
            parse_forecast_log(bad)

    def test_same_bad_token_fails_at_its_first_line(self):
        bad = REPEATED_TOKEN_LOG.replace("forecast 1 alice H 1/2 1/2", "forecast 1 alice H 1/2 x/2")
        with pytest.raises(DocumentParseError, match="not a fraction: 'x/2'") as err:
            parse_forecast_log(bad)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "masses, message",
        [("1/2 -1/2", "negative mass '-1/2'"),
         ("-1/2 1/2", "negative mass '-1/2'"),
         ("1/2 1/3", "forecast: masses sum to 5/6, not 1")],
        ids=["negative-second", "negative-first", "bad-sum"],
    )
    def test_reused_token_fails_at_the_later_line(self, masses, message):
        # 1/2 parsed at lines 3 and 4; the error is line 5's own
        bad = REPEATED_TOKEN_LOG.replace("1/2 x/2", masses)
        with pytest.raises(DocumentParseError) as err:
            parse_forecast_log(bad)
        assert err.value.line == 5
        assert str(err.value) == f"line 5, column 1: {message}"

    def test_records_sharing_tokens_equal_records_parsed_alone(self):
        header = "forecast-log v1\noutcomes H T E\n"
        lines = ["forecast 1 a H 1/2 1/4 1/4", "forecast 2 a T 1/4 1/2 1/4",
                 "forecast 1 b E 0.25 1/4 1/2", "forecast 2 b H 1/4 0 3/4"]
        log = parse_forecast_log(header + "\n".join(lines) + "\n")
        alone = tuple(parse_forecast_log(header + line + "\n").records[0] for line in lines)
        direct = tuple(
            ForecastRecord(int(t[1]), t[2],
                           FiniteDistribution(log.space, {x: Fraction(m) for x, m in zip(log.space, t[4:])}),
                           t[3])
            for t in map(str.split, lines)
        )
        assert log.records == alone == direct

    def test_mass_token_cases(self):
        assert _fraction("007/3", 1) == Fraction(7, 3)
        assert _fraction("1.5", 1) == Fraction(3, 2)
        for token in ("1/0", "0/0"):
            with pytest.raises(DocumentParseError, match=f"not a fraction: '{token}'"):
                _fraction(token, 1)
        for token in ("1_0/3", "1/-2", "1/+2", "2/"):
            assert_parsed_like_fraction(token)  # "1_0/3" is accepted from Python 3.11
        # a zero mantissa is 0 at any exponent; 1e4306 (7 characters) has
        # 4307 digits, 1e-4305 a denominator of 4306; the last two have
        # exponents past 4300 but long mantissas, and print as 10**±4299
        for token in ("0e99999", "-0.0E-99999", "1e4306", "1e-4305", "-1e4306",
                      "0." + "0" * 99 + "1e4399", "1" + "0" * 101 + "e-4400"):
            assert_parsed_like_fraction(token)
        assert _fraction("0." + "0" * 99 + "1e4399", 1) == 10**4299
        assert _fraction("0e999999999", 1) == 0
        with pytest.raises(DocumentParseError, match="exponent out of range: '5e-99999'"):
            _fraction("5e-99999", 1)
        with pytest.raises(DocumentParseError) as err:
            parse_morphism(COIN_DOC.replace("p HT 1/4", "p HT -1/2"))
        assert err.value.line == 9
        assert str(err.value) == "line 9, column 1: negative mass '-1/2'"

    @settings(max_examples=500, deadline=None)
    @given(MASS_TOKENS)
    @example("٣/٤")
    @example("²")
    @example("+1/2")
    def test_mass_tokens_parse_like_fraction(self, token):
        assert_parsed_like_fraction(token)

    def test_piecewise(self):
        pieces = parse_piecewise(PIECEWISE_DOC)
        assert pieces == [(0.0, 0.5, 1.0, 1.5), (0.5, 1.0, 1.0, 0.5)]

    def test_piecewise_rejects_bad_interval(self):
        with pytest.raises(DocumentParseError):
            parse_piecewise("piecewise v1\npiece 1 0 1 1\n")


# every parse error no other test reaches: (parser, text, line, message)
PARSE_ERROR_CASES = {
    "space_arity": (parse_morphism, COIN_DOC.replace("space toss H T", "space toss"), 3,
                    "space needs a name and at least one point"),
    "space_twice": (parse_morphism, COIN_DOC.replace("space toss H T", "space pairs H T"), 3,
                    "space 'pairs' declared twice"),
    "map_arity": (parse_morphism, COIN_DOC.replace("map HT H", "map HT"), 5,
                  "map needs: map <x> <y>"),
    "map_twice": (parse_morphism, COIN_DOC.replace("map HT H", "map HH H"), 5,
                  "map defined twice at 'HH'"),
    "p_arity": (parse_morphism, COIN_DOC.replace("p TH 1/4", "p TH 1/4 1/4"), 10,
                "p needs: p <point> <fraction>"),
    "q_arity": (parse_morphism, COIN_DOC + "q H\n", 16, "q needs: q <point> <fraction>"),
    "p_twice": (parse_morphism, COIN_DOC.replace("p HT 1/4", "p HH 1/4"), 9,
                "p('HH') given twice"),
    "q_twice": (parse_morphism, COIN_DOC + "q T 1/2\nq T 1/2\n", 17, "q('T') given twice"),
    "s_arity": (parse_morphism, COIN_DOC.replace("s T TH 1/3", "s T TH"), 14,
                "s needs: s <y> <x> <fraction>"),
    "s_twice": (parse_morphism, COIN_DOC.replace("s T TT 2/3", "s T TH 2/3"), 15,
                "s('T', 'TH') given twice"),
    "morphism_directive": (parse_morphism, COIN_DOC.replace("map TT T", "mapp TT T"), 7,
                           "unknown directive 'mapp'"),
    "one_space": (parse_morphism, COIN_DOC.replace("space toss H T\n", ""), 14,
                  "expected exactly two spaces, found 1"),
    "three_spaces": (parse_morphism, COIN_DOC + "space extra e\n", 16,
                     "expected exactly two spaces, found 3"),
    "no_p": (parse_morphism, "".join(l for l in COIN_DOC.splitlines(True) if l[0] != "p"), 11,
             "missing p masses"),
    "map_missing": (parse_morphism, COIN_DOC.replace("map TH T\n", ""), 14,
                    "map undefined at point 'TH'"),
    "map_outside_x": (parse_morphism, MAP_OUTSIDE_X_DOC, 6, "map defined at unknown point 'zz'"),
    "map_outside_y": (parse_morphism, MAP_OUTSIDE_Y_DOC, 6,
                      "map sends 'c' to 'Z', outside the target space"),
    "distribution_space_twice": (parse_distribution, TRUTH_DOC + "space H T\n", 5,
                                 "space declared twice"),
    "mass_arity": (parse_distribution, TRUTH_DOC.replace("mass T 1/2", "mass T"), 4,
                   "mass needs: mass <point> <fraction>"),
    "mass_twice": (parse_distribution, TRUTH_DOC.replace("mass T", "mass H"), 4,
                   "mass('H') given twice"),
    "distribution_directive": (parse_distribution, TRUTH_DOC.replace("mass T", "weight T"), 4,
                               "unknown directive 'weight'"),
    "distribution_no_space": (parse_distribution, TRUTH_DOC.replace("space H T\n", ""), 3,
                              "missing space declaration"),
    "outcomes_twice": (parse_forecast_log, FORECAST_LOG + "outcomes H T\n", 5,
                       "outcomes declared twice"),
    "forecast_first": (parse_forecast_log,
                       FORECAST_LOG.replace("outcomes H T\n", "") + "outcomes H T\n", 2,
                       "forecast before outcomes declaration"),
    "forecast_arity": (parse_forecast_log, FORECAST_LOG.replace("1/2 1/2", "1/2 1/4 1/4"), 4,
                       "forecast needs: forecast <round> <forecaster> <outcome> and 2 fractions"),
    "round_number": (parse_forecast_log, FORECAST_LOG.replace("forecast 2", "forecast two"), 4,
                     "bad round number 'two'"),
    "record_twice": (parse_forecast_log, FORECAST_LOG.replace("forecast 2", "forecast 1"), 4,
                     "duplicate record for round 1, forecaster 'alice'"),
    "forecast_directive": (parse_forecast_log, FORECAST_LOG + "forcast 3 alice H 1 0\n", 5,
                           "unknown directive 'forcast'"),
    "no_outcomes": (parse_forecast_log, "forecast-log v1\n# no records\n", 1,
                    "missing outcomes declaration"),
    "piece_arity": (parse_piecewise, PIECEWISE_DOC.replace("piece 1/2 1 1 1/2", "piece 1/2 1 1"), 3,
                    "piece needs: piece <lo> <hi> <q-density> <ratio>"),
    "no_pieces": (parse_piecewise, "piecewise v1\n\n", 1, "no pieces given"),
    # the header may follow comments and blank lines, and an error found
    # once the document is read names the last content line
    "late_header_no_outcomes": (parse_forecast_log, "# log\n\n forecast-log v1 # tag\n\n", 3,
                                "missing outcomes declaration"),
    "late_header_no_pieces": (parse_piecewise, "\n# pieces\npiecewise v1\n", 3,
                              "no pieces given"),
    "late_header_no_space": (parse_distribution, "#\ndistribution v1\nmass H 1\n# end\n", 3,
                             "missing space declaration"),
    "late_header_one_space": (parse_morphism, "\n\nmorphism v1\nspace X a\n\n", 4,
                              "expected exactly two spaces, found 1"),
    "empty_document": (parse_morphism, "\n# nothing\n", 1, "expected header 'morphism v1'"),
    "wrong_header": (parse_distribution, "# a log?\nforecast-log v1\n", 2,
                     "expected header 'distribution v1'"),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERROR_CASES))
def test_parse_errors_name_line_and_cause(case):
    parser, text, line, message = PARSE_ERROR_CASES[case]
    with pytest.raises(DocumentParseError) as err:
        parser(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}, column 1: {message}"


def test_piecewise_unknown_directive_is_named():
    # a misspelt directive is reported as such, as in the other formats,
    # not as a malformed piece
    with pytest.raises(DocumentParseError) as err:
        parse_piecewise("piecewise v1\npeice 0 1 1 1\n")
    assert str(err.value) == "line 2, column 1: unknown directive 'peice'"


def test_morphism_document_validate_reports_every_violation():
    assert parse_morphism(COIN_DOC).validate() == ()
    assert parse_morphism(VIOLATION_DOC + "q u 1/3\nq v 2/3\n").validate() == (
        "pushforward mismatch at 'u': expected 1/3, got 1/2",
        "pushforward mismatch at 'v': expected 2/3, got 1/2",
        "hypothesis row at 'u' puts mass on 'b' outside the fiber",
    )


@pytest.fixture
def docs(tmp_path):
    paths = {}
    for name, text in {
        "coin": COIN_DOC,
        "half": HALF_LN43_DOC,
        "optimal": OPTIMAL_DOC,
        "collapse": COLLAPSE_DOC,
        "violation": VIOLATION_DOC,
        "log": FORECAST_LOG,
        "seq": SEQ_LOG,
        "truth": TRUTH_DOC,
        "piecewise": PIECEWISE_DOC,
    }.items():
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        paths[name] = str(p)
    return paths


class TestValidateCommand:
    def test_coin_document(self, capsys, docs):
        code, out, _ = run(capsys, "validate", docs["coin"])
        assert code == 0
        assert "coherent: yes" in out
        assert "absolutely coherent: yes" in out

    def test_violation_names_points(self, capsys, docs):
        code, out, _ = run(capsys, "validate", docs["violation"])
        assert code == 1
        assert "coherent: no" in out
        assert "'u'" in out and "'b'" in out

    def test_declared_q_mismatch_lists_every_violation(self, capsys, tmp_path):
        doc = tmp_path / "declared.txt"
        doc.write_text(VIOLATION_DOC + "q u 1/3\nq v 2/3\n")
        code, out, _ = run(capsys, "validate", str(doc))
        assert code == 1
        assert out == (
            "coherent: no\n"
            "absolutely coherent: no\n"
            "violation: pushforward mismatch at 'u': expected 1/3, got 1/2\n"
            "violation: pushforward mismatch at 'v': expected 2/3, got 1/2\n"
            "violation: hypothesis row at 'u' puts mass on 'b' outside the fiber\n"
        )

    def test_parse_failure(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("morphism v1\nspace X a a\n")  # truncated & duplicated
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "line" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", str(tmp_path / "nope.txt"))
        assert code == 2


class TestReCommand:
    def test_optimal_is_zero(self, capsys, docs):
        code, out, _ = run(capsys, "re", docs["optimal"])
        assert code == 0
        assert out == "RE = 0\n"

    def test_half_ln_43(self, capsys, docs):
        code, out, _ = run(capsys, "re", docs["half"])
        assert code == 0
        assert out == "RE = 0.143841036\n"

    def test_two_document_chain(self, capsys, docs):
        code, out, _ = run(capsys, "re", docs["coin"], docs["collapse"])
        assert code == 0
        assert "RE(first) = 0.0588915178" in out
        assert "RE(second) = 0" in out
        assert "RE(composite) = 0.0588915178" in out
        assert "functoriality residual = " in out
        residual = float(out.rsplit("= ", 1)[1])
        assert abs(residual) < 1e-10

    def test_both_sides_infinite(self, capsys, tmp_path):
        # RE(first) = inf, RE(second) = 0, and the composite is infinite too
        second = tmp_path / "second.txt"
        second.write_text(
            "morphism v1\nspace pt star\nspace one z\nmap star z\np star 1\ns z star 1\n"
        )
        first = tmp_path / "first.txt"
        first.write_text(NOT_ABS_COHERENT_DOC)
        assert run(capsys, "re", str(first), str(second)) == (
            0,
            "RE(first) = inf\nRE(second) = 0\nRE(composite) = inf\n"
            "both sides infinite together: yes\n",
            "",
        )

    def test_non_composable(self, capsys, docs):
        code, _, err = run(capsys, "re", docs["half"], docs["collapse"])
        assert code == 1
        assert "middle objects" in err


class TestDecomposeCommand:
    def test_coin_rows(self, capsys, docs):
        code, out, _ = run(capsys, "decompose", docs["coin"])
        assert code == 0
        assert "H: q = 1/2, local RE = 0.0588915178" in out
        assert "T: q = 1/2, local RE = 0.0588915178" in out
        assert "total = 0.0588915178" in out
        assert "re_fin cross-check = 0.0588915178" in out

    def test_identity_total_equals_re(self, capsys, docs):
        code, out, _ = run(capsys, "decompose", docs["half"])
        assert code == 0
        assert "total = 0.143841036" in out


class TestLongExactValues:
    """Short tokens can give exact values too long for CPython's default
    int-to-str limit; the commands print them in full all the same."""

    def test_fibre_masses_print_in_full(self, capsys, tmp_path):
        want = {y: unlimited_str(q) for y, q in LONG_Q.items()}
        assert all(len(want[y].partition("/")[2]) > 4300 for y in want)
        doc, summary = with_files(tmp_path, [LONG_Q_DOC])[0], tmp_path / "summary.json"
        code, out, err = run(capsys, "decompose", doc)
        assert (code, err) == (0, "")
        assert [line.partition(", local RE")[0] for line in out.splitlines()[:2]] == [
            f"{y}: q = {want[y]}" for y in "ab"]
        code, out, err = run(capsys, "score", doc, "--mode", "conditional", "--summary", str(summary))
        assert (code, err) == (0, "")
        assert [line.partition(", score")[0] for line in out.splitlines()[:2]] == [
            f"scenario {y}: q = {want[y]}" for y in "ab"]
        rows = json.loads(summary.read_text())["scenarios"]
        assert [(row["scenario"], row["q"]) for row in rows] == [(y, want[y]) for y in "ab"]

    def test_violations_print_in_full(self, capsys, tmp_path):
        # the declared q is wrong at both points, and each violation shows
        # f_*p(y) in full; printing it with str() ended in a ValueError
        want = {y: unlimited_str(q) for y, q in LONG_Q.items()}
        lines = [f"pushforward mismatch at '{y}': expected 1/2, got {want[y]}" for y in "ab"]
        doc = with_files(tmp_path, [WRONG_Q_DOC])[0]
        code, out, err = run(capsys, "validate", doc)
        assert (code, err) == (1, "")
        assert out.splitlines() == ["coherent: no", "absolutely coherent: no"] + [
            f"violation: {line}" for line in lines]
        code, out, err = run(capsys, "re", doc)
        assert (code, out) == (1, "")
        assert err == f"error: pair is not coherent: {'; '.join(lines)}\n"

    def test_format_fraction_at_the_lowest_limit(self):
        # 640 digits is the lowest limit an interpreter may be given
        q = LONG_Q["a"]
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(640)
        try:
            got = format_fraction(q)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        assert got == unlimited_str(q)

    def test_output_does_not_depend_on_the_int_to_str_limit(self, tmp_path):
        # at 400 points each fibre mass has 1,630 digits: each command must
        # print the same bytes under the lowest limit an interpreter
        # accepts, under the default one and with none
        doc, q = long_q_document(400)
        x1 = next(line for line in doc.splitlines() if line.startswith("p x1 "))
        # the changed mass gives the sum a denominator of 647 digits
        bad_sum = 1 - Fraction(x1.split()[2]) + Fraction("1e-638")
        assert len(unlimited_str(bad_sum).partition("/")[2]) > 640
        # an exponent past 640 but under 4300 is read, and one of 700 digits
        # is out of range, whatever the limit
        small, huge = "p x1 1e-700", "p x1 1e" + "9" * 700
        # a denominator of 700 digits, and an exponent padded to 701 digits,
        # are read whatever the limit, and the sum check fails on each
        ones, padded = "p x1 1/" + "1" * 700, "p x1 1e-" + "0" * 700 + "7"
        # a round number of 700 digits is refused whatever the limit
        long_round = FORECAST_LOG.replace("forecast 2", "forecast " + "1" * 700)
        good, wrong_q, changed_p, small_p, huge_p, ones_p, padded_p, round_log = with_files(
            tmp_path, [doc, doc + "q a 1/2\nq b 1/2\n", doc.replace(x1, "p x1 1e-638"),
                       doc.replace(x1, small), doc.replace(x1, huge),
                       doc.replace(x1, ones), doc.replace(x1, padded), long_round])
        commands = [
            ["decompose", good], ["score", good, "--mode", "conditional"],
            ["validate", wrong_q], ["validate", changed_p],
            ["validate", small_p], ["validate", huge_p],
            ["validate", ones_p], ["validate", padded_p],
            ["score", round_log, "--mode", "empirical"]]
        src = str(Path(kernelflow.__file__).resolve().parents[1])
        base = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        base["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        got = []
        for limit in ({"PYTHONINTMAXSTRDIGITS": "640"}, {}, {"PYTHONINTMAXSTRDIGITS": "0"}):
            procs = [
                subprocess.run([sys.executable, "-m", "kernelflow.cli", *argv], capture_output=True,
                               text=True, encoding="utf-8", env={**base, **limit}, timeout=120)
                for argv in commands]
            got.append([(r.returncode, r.stdout, r.stderr) for r in procs])
        assert got[0] == got[1] == got[2]
        assert [code for code, _, _ in got[1]] == [0, 0, 1, 2, 2, 2, 2, 2, 2]
        assert f"a: q = {unlimited_str(q['a'])}, local RE = " in got[1][0][1]
        assert got[1][3][2].endswith(f"p: masses sum to {unlimited_str(bad_sum)}, not 1\n")
        small_sum = 1 - Fraction(x1.split()[2]) + Fraction("1e-700")
        assert got[1][4][2].endswith(f"p: masses sum to {unlimited_str(small_sum)}, not 1\n")
        assert f"exponent out of range: '{huge.split()[2]}'" in got[1][5][2]
        for (_, _, err), line in zip(got[1][6:], (ones, padded)):
            bad = 1 - Fraction(x1.split()[2]) + Fraction(line.split()[2])
            assert err.endswith(f"line 803, column 1: p: masses sum to {unlimited_str(bad)}, not 1\n")
        assert got[1][8][2].startswith("parse error: line 4, column 1: bad round number '111")

    def test_a_serialized_document_reads_back_under_any_limit(self, tmp_path):
        # with its q declared, the 1,400-point document has q tokens of
        # 11,795 characters, which int() does not read under the default
        # limit; parsing the text and serializing it again must give the
        # same bytes under the lowest limit, the default one and none
        doc = parse_morphism(LONG_Q_DOC)
        text = serialize_morphism(dataclasses.replace(doc, q=doc.to_pair().q))
        assert max(len(line) for line in text.splitlines()) > 4300 * 2
        path = with_files(tmp_path, [text])[0]
        script = ("import sys; from kernelflow.documents import parse_morphism, serialize_morphism; "
                  "sys.stdout.write(serialize_morphism(parse_morphism(open(sys.argv[1]).read())))")
        src = str(Path(kernelflow.__file__).resolve().parents[1])
        base = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        base["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        for limit in ({"PYTHONINTMAXSTRDIGITS": "640"}, {}, {"PYTHONINTMAXSTRDIGITS": "0"}):
            proc = subprocess.run([sys.executable, "-c", script, path], capture_output=True,
                                  text=True, env={**base, **limit}, timeout=120)
            assert (proc.returncode, proc.stderr) == (0, "")
            assert proc.stdout == text


class TestEstimateKlCommand:
    def test_equal_measures(self, capsys):
        code, out, _ = run(
            capsys, "estimate-kl", "uniform-pair", "0", "1", "0", "1",
            "--nmax", "6", "--tol", "1e-6",
        )
        assert code == 0
        assert "final = 0" in out
        assert "converged: yes" in out
        first = out.splitlines()[0]
        n, kl, bins, err = [t.strip() for t in first.split(",")]
        assert n == "1" and kl == "0" and bins == "1"

    def test_piecewise_file(self, capsys, docs):
        code, out, _ = run(
            capsys, "estimate-kl", docs["piecewise"], "--nmax", "8", "--tol", "1e-9"
        )
        assert code == 0
        want = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        final = float(out.splitlines()[-2].split("= ")[1])
        assert final == pytest.approx(want, abs=1e-9)

    def test_piecewise_truncated_beyond_its_edges(self, capsys, tmp_path):
        # the point 999.995 used to count as inside the piece, and the base
        # density integrated to 1.01 over [999, 1002]: exit 1
        doc = tmp_path / "pw.txt"
        doc.write_text("piecewise v1\npiece 1000 1001 1 1\n")
        code, out, err = run(capsys, "estimate-kl", str(doc), "--nmax", "3", "--truncate", "999", "1002")
        assert (code, err) == (0, "")
        assert out.splitlines()[-2:] == ["final = 0", "converged: yes"]

    def test_piecewise_narrow_piece(self, capsys, tmp_path):
        # a piece of width 1e-5 fits between two panel samples; the panels
        # used to miss it, and p seemed to integrate to 0.99951: exit 1
        doc = tmp_path / "narrow.txt"
        doc.write_text(
            "piecewise v1\npiece 0 0.50003333 1 0.99951\n"
            "piece 0.50003333 0.50004333 1 50\npiece 0.50004333 1 1 0.99951\n"
        )
        code, out, err = run(capsys, "estimate-kl", str(doc))
        assert (code, err) == (0, "")
        rows = out.splitlines()
        assert rows[-1] == "converged: yes"
        final, err_est = float(rows[-2].split("= ")[1]), float(rows[-3].split(", ")[3])
        want = (1 - 1e-5) * 0.99951 * math.log(0.99951) + 1e-5 * 50 * math.log(50)
        # final is printed to 9 significant digits
        assert final == pytest.approx(want, rel=0.0, abs=err_est + 5e-12)

    def test_unconverged_is_exit_3(self, capsys):
        code, out, _ = run(
            capsys, "estimate-kl", "gaussian", "0", "1", "1", "1",
            "--truncate", "-12", "13", "--nmax", "3", "--tol", "1e-6",
        )
        assert code == 3
        assert "converged: no" in out

    def test_gaussian_converging_run(self, capsys):
        code, out, _ = run(
            capsys, "estimate-kl", "gaussian", "0", "1", "1", "1",
            "--truncate", "-12", "13", "--nmax", "14", "--tol", "2.5e-4",
        )
        assert code == 0
        assert "converged: yes" in out
        final = float(out.splitlines()[-2].split("= ")[1])
        assert final == pytest.approx(0.5, abs=2e-3)

    def test_unknown_model(self, capsys):
        code, _, err = run(capsys, "estimate-kl", "cauchy", "0", "1")
        assert code == 1
        assert "unknown model" in err

    def test_wrong_parameter_count(self, capsys):
        code, out, err = run(capsys, "estimate-kl", "gaussian", "0", "1", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert "mu1 sigma1 mu2 sigma2" in err

    def test_overflowing_ratio_is_a_clean_error(self):
        # q underflows to 0 where the ratio overflows to inf; numpy's
        # RuntimeWarning used to reach stderr ahead of the error line.  A
        # child process shows stderr as a shell user sees it.
        src = str(Path(kernelflow.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "kernelflow.cli", "estimate-kl", "gaussian",
             "0", "1", "0", "0.1", "--truncate", "-40", "40", "--nmax", "2"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "Warning" not in proc.stderr

    def test_mc_requires_seed(self, capsys):
        code, _, err = run(
            capsys, "estimate-kl", "gaussian", "0", "1", "1", "1",
            "--integrator", "mc",
        )
        assert code == 1
        assert err == "error: Monte Carlo integration requires a seed\n"

    def test_partial_ladder_is_printed_before_exit_3(self, capsys, tmp_path):
        # 2,000 pieces with an alternating ratio: levels 1 and 2 finish, and
        # resolving them at level 3 needs more intervals than its cap
        doc = tmp_path / "alternating.txt"
        doc.write_text("piecewise v1\n" + "".join(
            f"piece {i}/2000 {i + 1}/2000 1 {'3/2' if i % 2 else '1/2'}\n" for i in range(2000)
        ))
        code, out, err = run(capsys, "estimate-kl", str(doc), "--nmax", "6")
        assert code == 3
        rows = out.splitlines()
        assert len(rows) == 2
        assert rows[0].startswith("1, 0.130812036, 2, ")
        assert rows[1].startswith("2, 0.130812036, 2, ")
        assert err == "error: quadrature needs more than 16484 live intervals at level 3\n"

    @pytest.mark.parametrize("lo, hi", [
        ("5", "5"), ("13", "-12"), ("-12", "1e999"), ("-12", "nan"), ("-inf", "13"), ("-Infinity", "13"),
    ])
    def test_bad_truncation_is_an_input_error(self, capsys, recwarn, lo, hi):
        # these used to end in a ZeroDivisionError, in exit 3 as if the
        # integrand were too hard, in numpy warnings and a nan blamed on
        # the model, or (-inf) in an argparse usage error
        code, out, err = run(
            capsys, "estimate-kl", "gaussian", "0", "1", "1", "1",
            "--truncate", lo, hi, "--nmax", "2",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"truncation [{float(lo)}, {float(hi)}]" in err
        assert "Traceback" not in err and "Warning" not in err
        assert not recwarn.list

    @pytest.mark.parametrize("model", [
        ["gaussian", "0", "1", "0", "1", "--truncate", "-1e308", "1e308"],
        ["piecewise v1\npiece -1e308 0 5e-309 1\npiece 0 1e308 5e-309 1\n"],
    ], ids=["truncation", "piecewise"])
    def test_working_interval_wider_than_a_float_is_an_input_error(self, capsys, tmp_path, model):
        # hi - lo overflows: these ended in "ratio is nan at x = -1e+308"
        # (exit 1, blaming the model) and in the live-interval cap (exit 3)
        code, out, err = run(capsys, "estimate-kl", *with_files(tmp_path, model), "--nmax", "2")
        assert (code, out) == (1, "")
        assert err.startswith("error: model ") and err.count("\n") == 1
        assert err.endswith(": working interval [-1e+308, 1e+308] is wider than the largest float\n")

    def test_working_interval_whose_midpoints_overflow_is_an_input_error(self, capsys):
        # U[0, 1e308] against itself: the width is finite, but the top
        # intervals' midpoints overflowed, and the ladder ended in exit 3
        # with "quadrature needs more than 16396 live intervals at level 1"
        code, out, err = run(capsys, "estimate-kl", "uniform-pair", "0", "1e308", "0", "1e308",
                             "--nmax", "4")
        assert (code, out) == (1, "")
        assert err == ("error: model 'uniform-pair(0.0,1e+308,0.0,1e+308)': working interval "
                       "[0.0, 1e+308] has an end beyond half the largest float, where midpoints "
                       "overflow\n")

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_bad_stop_tolerance_is_an_input_error(self, capsys, tol):
        # nan used to run every level and exit 3 with "converged: no"; inf
        # stopped at level 3 whatever the increments
        code, out, err = run(
            capsys, "estimate-kl", "gaussian", "0", "1", "1", "1",
            "--truncate", "-12", "13", "--tol", tol, "--nmax", "3",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: stop_tol must be positive and finite")

    @pytest.mark.parametrize("argv, same_as", [
        (["gaussian", "0", "1", "1", "1", "--truncate", "-1.2e1", "13"],
         ["gaussian", "0", "1", "1", "1", "--truncate", "-12", "13"]),
        (["gaussian", "-1e-1", "1", "1", "1", "--truncate", "-12", "13"],
         ["gaussian", "-0.1", "1", "1", "1", "--truncate", "-12", "13"]),
    ], ids=["truncate", "parameter"])
    def test_negative_numbers_with_exponents(self, capsys, argv, same_as):
        # argparse took these for options: "expected 2 arguments" and
        # "unrecognized arguments", exit 2
        code, out, err = run(capsys, "estimate-kl", *argv, "--nmax", "3")
        want = run(capsys, "estimate-kl", *same_as, "--nmax", "3")
        assert (code, out, err) == want
        assert out.startswith("1, ")

    @pytest.mark.parametrize("mu1", ["-inf", "-NaN"])
    def test_negative_non_finite_parameter_is_an_input_error(self, capsys, mu1):
        # argparse took these for options and ended in a usage error, exit 2
        code, out, err = run(
            capsys, "estimate-kl", "gaussian", mu1, "1", "1", "1", "--truncate", "-12", "13",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: model parameters must be numbers") and err.count("\n") == 1

    def test_level_cap_ends_the_ladder_with_exit_3(self, capsys, monkeypatch):
        # a level with more cells than the cap is refused before anything is
        # allocated, and the levels below it are printed
        monkeypatch.setattr("kernelflow.borel._MAX_CELLS", cell_count(3))
        code, out, err = run(
            capsys, "estimate-kl", "gaussian", "0", "1", "1", "1",
            "--truncate", "-12", "13", "--nmax", "6",
        )
        assert code == 3
        assert [row.split(",")[0] for row in out.splitlines()] == ["1", "2", "3"]
        assert err == f"error: level 4 needs {cell_count(4)} cells, more than {cell_count(3)}\n"
    def test_negative_seed_is_an_input_error(self, capsys):
        code, out, err = run(
            capsys, "estimate-kl", "gaussian", "0", "1", "1", "1",
            "--integrator", "mc", "--seed", "-1",
        )
        assert code == 1
        assert out == ""
        assert err == "error: seed must be a nonnegative integer, got -1\n"

    def test_determinism(self, capsys):
        argv = [
            "estimate-kl", "exponential", "1", "2",
            "--truncate", "0", "40", "--nmax", "5", "--tol", "1e-6",
        ]
        runs = [run(capsys, *argv) for _ in range(2)]
        assert runs[0] == runs[1]  # byte-identical


# a number beyond what a float or an int-to-str conversion can hold,
# in each place the CLI reads one: (argv, exit code, stderr prefix).
# 1e5000 is refused by its exponent, at its own line; 1e4300 (4301
# digits) is under that bound, and the sum check prints its sum in full
HUGE_NUMBER_CASES = {
    "morphism_mass": (
        ["validate", COIN_DOC.replace("p HH 1/4", "p HH 1e5000")], 2,
        "parse error: line 8, column 1: exponent out of range: '1e5000'"),
    "distribution_mass": (
        ["score", SEQ_LOG, "--mode", "sequential", "--truth",
         TRUTH_DOC.replace("mass H 1/2", "mass H 1e4300")], 2,
        "parse error: line 4, column 1: distribution: masses sum to "
        f"{unlimited_str(Fraction(10**4300) + Fraction(1, 2))}, not 1"),
    "forecast_mass": (
        ["score", FORECAST_LOG.replace("alice H 2/3", "alice H 1e5000")], 2,
        "parse error: line 3, column 1: exponent out of range: '1e5000'"),
    "model_parameter": (
        ["estimate-kl", "gaussian", "1e5000", "1", "0", "1"], 1,
        "error: model parameters must be numbers"),
    "piecewise_bound": (
        ["estimate-kl", "piecewise v1\npiece 0 1e400 1 1\n"], 2,
        "parse error: line 2, column 1: piece values must be numbers"),
    # an exponent whose power of ten alone would take about 415 MB
    "distribution_exponent": (
        ["score", SEQ_LOG, "--mode", "sequential", "--truth",
         TRUTH_DOC.replace("mass H 1/2", "mass H 1e999999999")], 2,
        "parse error: line 3, column 1: exponent out of range: '1e999999999'"),
    "parameter_exponent": (
        ["estimate-kl", "gaussian", "1e999999999", "1", "0", "1"], 1,
        "error: model parameters must be numbers"),
}


def with_files(tmp_path, argv):
    """argv with each document text written to a file and passed as its path."""
    args = []
    for i, arg in enumerate(argv):
        if "\n" in arg:
            path = tmp_path / f"doc{i}.txt"
            path.write_text(arg)
            arg = str(path)
        args.append(arg)
    return args


@pytest.mark.parametrize("command", ["validate", "score", "estimate-kl"])
def test_document_that_is_not_text_is_a_parse_error(capsys, tmp_path, command):
    doc = tmp_path / "binary.txt"
    doc.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, command, str(doc))
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: line 1, column 1: cannot read {doc}: ")
    assert err.count("\n") == 1


def test_documents_are_read_as_utf8_whatever_the_locale(tmp_path):
    # under the C locale, without UTF-8 mode, the locale's encoding is
    # ASCII; stdout is set to UTF-8 so that decompose can print the label
    doc = tmp_path / "cafe.txt"
    doc.write_text(
        "morphism v1\nspace X x1 x2\nspace Y café\nmap x1 café\nmap x2 café\n"
        "p x1 1/2\np x2 1/2\ns café x1 1/2\ns café x2 1/2\n", encoding="utf-8")
    src = str(Path(kernelflow.__file__).resolve().parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONIOENCODING": "utf-8",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    outs = [
        subprocess.run([sys.executable, "-m", "kernelflow.cli", command, str(doc)],
                       capture_output=True, text=True, encoding="utf-8", env=env, timeout=120)
        for command in ("validate", "decompose")]
    assert [(r.returncode, r.stderr) for r in outs] == [(0, ""), (0, "")]
    assert outs[0].stdout == "coherent: yes\nabsolutely coherent: yes\n"
    assert outs[1].stdout.startswith("café: q = 1/1, local RE = 0\n")


@pytest.mark.parametrize("case", sorted(HUGE_NUMBER_CASES))
def test_huge_numbers_end_in_typed_errors(capsys, tmp_path, case):
    argv, want_code, want_err = HUGE_NUMBER_CASES[case]
    args = with_files(tmp_path, argv)
    start = time.perf_counter()
    code, out, err = run(capsys, *args)
    assert time.perf_counter() - start < 1.0
    assert code == want_code
    assert err.startswith(want_err) and err.count("\n") == 1
    assert "Traceback" not in err


# s gives x2 no mass although p does, so the morphism is coherent but not
# absolutely coherent, and its relative entropy is infinite
NOT_ABS_COHERENT_DOC = OPTIMAL_DOC.replace("s star x1 1/2\ns star x2 1/2", "s star x1 1\ns star x2 0")

# KL scores inf, 0, inf and finite against the fair truth
INFINITE_SCORES_LOG = """\
forecast-log v1
outcomes H T
forecast 1 alice H 1 0
forecast 2 alice H 1/2 1/2
forecast 3 alice H 1 0
forecast 4 alice H 1/3 2/3
"""

# three forecasters, their records interleaved and out of round order;
# every mass is positive, so every score is finite
THREE_FORECASTERS_LOG = """\
forecast-log v1
outcomes H T E
forecast 3 carol E 1/6 1/3 1/2
forecast 1 bob H 1/2 1/4 1/4
forecast 2 alice T 1/3 1/3 1/3
forecast 1 carol H 3/5 1/5 1/5
forecast 3 alice H 2/5 2/5 1/5
forecast 2 bob E 1/8 5/8 1/4
forecast 1 alice E 1/10 3/10 3/5
forecast 2 carol T 1/7 4/7 2/7
forecast 3 bob T 1/9 7/9 1/9
"""

THREE_OUTCOME_TRUTH = "distribution v1\nspace H T E\nmass H 1/2\nmass T 1/3\nmass E 1/6\n"

# (argv, stdout) of commands that print an infinite value
INFINITY_CASES = {
    "re": (["re", NOT_ABS_COHERENT_DOC], "RE = inf\n"),
    "decompose": (
        ["decompose", NOT_ABS_COHERENT_DOC],
        "star: q = 1/1, local RE = inf\ntotal = inf\nre_fin cross-check = inf\n"),
    "sequential": (
        ["score", INFINITE_SCORES_LOG, "--mode", "sequential", "--truth", TRUTH_DOC],
        "round 1, alice: inf\nround 2, alice: inf\n"
        "round 3, alice: -inf\nround 4, alice: inf\n"),
}


@pytest.mark.parametrize("case", sorted(INFINITY_CASES))
def test_infinities_are_printed(capsys, tmp_path, case):
    argv, want_out = INFINITY_CASES[case]
    assert run(capsys, *with_files(tmp_path, argv)) == (0, want_out, "")


# numbers at the edges of the float range and past them
FINITE_NUMBERS = ["0", "1", "-1", "0.1", "5e-324", "1e-300", "1e-160", "1e160", "1e300",
                  "1e308", "-1e308"]
HOSTILE_NUMBERS = FINITE_NUMBERS + ["nan", "inf", "-inf"]
ARITY = {"gaussian": 4, "exponential": 2, "uniform-pair": 4}


@st.composite
def estimate_kl_argvs(draw):
    """An estimate-kl argv: a model with one parameter too few, too many
    or the right number (for the gaussian, possibly with equal sigmas), an
    optional truncation, --nmax 1 to 4 and an optional --tol.  Parameters
    and truncation ends come from HOSTILE_NUMBERS, or for half the
    examples from its finite numbers only, so that most models get built."""
    number = st.sampled_from(draw(st.sampled_from([FINITE_NUMBERS, HOSTILE_NUMBERS])))
    name = draw(st.sampled_from(sorted(ARITY)))
    count = ARITY[name] + draw(st.sampled_from([0, 0, -1, 1]))  # right half the time
    params = draw(st.lists(number, min_size=count, max_size=count))
    if name == "gaussian" and count == 4 and draw(st.booleans()):
        params[3] = params[1]
    argv = ["estimate-kl", name, *params, "--nmax", str(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        argv += ["--truncate", draw(number), draw(number)]
    if draw(st.booleans()):
        argv += ["--tol", draw(st.sampled_from(["1e-4", "1e-12", "0.5", *HOSTILE_NUMBERS]))]
    return argv


EXIT_CODE_TIMES = []  # (seconds, argv) of every example run


@settings(max_examples=300, deadline=None, database=None)
@given(estimate_kl_argvs())
@example(["estimate-kl", "gaussian", "5e-324", "1", "13", "1e-300", "--truncate", "-1", "3", "--nmax", "1"])
@example(["estimate-kl", "gaussian", "0", "1", "0", "1", "--truncate", "-1e308", "1e308", "--nmax", "1"])
def check_estimate_kl_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            assert exc.code == 2, argv
            code = 2
    elapsed = time.perf_counter() - start
    EXIT_CODE_TIMES.append((elapsed, argv))
    assert elapsed < 2.0, f"{' '.join(argv)} took {elapsed:.2f} s"
    out, err = out.getvalue(), err.getvalue()
    assert code in range(5), argv
    if code == 3 and out.endswith("converged: no\n"):
        assert err == "", argv
    elif code:
        assert err.startswith(("error:", "parse error:", "usage:")), (argv, err)
        assert "Traceback" not in err, argv
    assert "nan" not in out, argv


def test_estimate_kl_argvs_end_in_exit_codes():
    # every argv ends in a result or a typed error with exit code 0-4:
    # no raw exception (a ZeroDivisionError from 0.5 / (sigma * sigma) at
    # sigma = 1e-300, say), no numpy warning and no nan on stdout.  One run
    # before the clock starts loads what a first estimate-kl imports.
    with contextlib.redirect_stdout(io.StringIO()):
        main(["estimate-kl", "gaussian", "0", "1", "1", "1", "--truncate", "-1", "1",
              "--nmax", "1"])
    EXIT_CODE_TIMES.clear()
    start = time.perf_counter()
    check_estimate_kl_exit_codes()
    total = time.perf_counter() - start
    slowest, argv = max(EXIT_CODE_TIMES)
    assert total < 5.0, (f"{len(EXIT_CODE_TIMES)} examples took {total:.2f} s, the slowest "
                         f"{slowest:.2f} s: {' '.join(argv)}")


# tokens that break a document in every way its readers must survive: a
# zero denominator, a number past the float range, a nan, a non-ASCII
# letter, an underscore, a 50-digit number and every directive name
HOSTILE_TOKENS = ["1/0", "1e400", "nan", "é", "1_0", "9" * 50,
                  "space", "map", "p", "q", "s", "mass", "outcomes", "forecast", "piece"]

# each document the mutations start from, with the commands that read it;
# "{}" stands for the mutated document's path
MUTATED_DOCS = {
    "coin": (COIN_DOC, [["validate", "{}"], ["re", "{}"], ["re", "{}", COLLAPSE_DOC],
                        ["decompose", "{}"], ["score", "{}", "--mode", "conditional"]]),
    "log": (FORECAST_LOG, [["score", "{}", "--mode", "empirical"],
                           ["score", "{}", "--mode", "sequential", "--truth", TRUTH_DOC]]),
    "seq": (SEQ_LOG, [["score", "{}", "--mode", "empirical"],
                      ["score", "{}", "--mode", "sequential", "--truth", TRUTH_DOC]]),
    "truth": (TRUTH_DOC, [["score", SEQ_LOG, "--mode", "sequential", "--truth", "{}"]]),
    "piecewise": (PIECEWISE_DOC, [["estimate-kl", "{}", "--nmax", "3"]]),
}
# and the documents only explicit examples start from: a command on the
# long-q document takes most of a second, too slow for random mutations
CHECKED_DOCS = {**MUTATED_DOCS, "long-q": (LONG_Q_DOC, [["decompose", "{}"]]),
                "wrong-q": (WRONG_Q_DOC, [["validate", "{}"], ["re", "{}"]])}


@st.composite
def mutated_documents(draw):
    """(name, text): one of MUTATED_DOCS with one to three mutations, each
    deleting or duplicating a line, or inserting, replacing or deleting a
    token, with a token from HOSTILE_TOKENS.  Half the token edits hit a
    line's last token, which is a mass or a number on most lines."""
    name = draw(st.sampled_from(sorted(MUTATED_DOCS)))
    lines = MUTATED_DOCS[name][0].splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        edit = draw(st.sampled_from(
            ["delete line", "duplicate line", "insert", "replace", "delete"]))
        if edit == "delete line":
            del lines[i]
            continue
        if edit == "duplicate line":
            lines.insert(i, lines[i])
            continue
        if edit == "insert" or not tokens:
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(HOSTILE_TOKENS)))
        else:
            j = draw(st.one_of(st.just(len(tokens) - 1), st.integers(0, len(tokens) - 1)))
            if edit == "replace":
                tokens[j] = draw(st.sampled_from(HOSTILE_TOKENS))
            else:
                del tokens[j]
        lines[i] = " ".join(tokens)
    return name, "".join(line + "\n" for line in lines)


def run_in_process(argv):
    """(exit code, stdout, stderr) of main(argv), with numpy warnings raised."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


MUTATION_TIMES = []  # (seconds, document name) of every example run
# every value the finite commands print follows ":", "=" or "vs"
NAN_VALUE = re.compile(r"(?:[:=]|vs) nan\b")


@settings(max_examples=150, deadline=None, database=None)
@given(mutated_documents())
@example(("coin", COIN_DOC.replace("p HH 1/4", "p HH 1/0")))
@example(("truth", TRUTH_DOC.replace("space H T", "space H T é")))
@example(("piecewise", PIECEWISE_DOC + "piece 0 1/2 1 3/2\n"))
@example(("long-q", LONG_Q_DOC))
@example(("wrong-q", WRONG_Q_DOC))
def check_mutated_documents(mutated):
    name, text = mutated
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        path = tmp_path / "mutated.txt"
        path.write_text(text)
        for argv in CHECKED_DOCS[name][1]:
            argv = with_files(tmp_path, [str(path) if a == "{}" else a for a in argv])
            code, out, err = run_in_process(argv)
            assert code in range(5), argv
            if code == 1 and argv[0] == "validate" and out.startswith("coherent: no\n"):
                assert err == "", (argv, err)
            elif code == 3 and argv[0] == "estimate-kl" and out.endswith("converged: no\n"):
                assert err == "", (argv, err)
            elif code:
                assert err.startswith(("error: ", "parse error: line ")), (argv, err)
                assert err.count("\n") == 1, (argv, err)
            else:
                assert err == "", (argv, err)
            # estimate-kl prints no labels; elsewhere "nan" may be a point or
            # forecaster name, so look for it as a value only
            assert "nan" not in out if argv[0] == "estimate-kl" else not NAN_VALUE.search(out), argv
    elapsed = time.perf_counter() - start
    MUTATION_TIMES.append((elapsed, name))
    assert elapsed < 2.0, f"{name} took {elapsed:.2f} s: {text!r}"


def test_mutated_documents_end_in_exit_codes():
    # the document half of the exit-code probe: every command on every
    # mutated document ends in a result or a typed error with exit code 0-4,
    # and no exception escapes main.  The unmutated documents run once
    # before the clock starts, which loads what estimate-kl imports.
    for name, (text, argvs) in MUTATED_DOCS.items():
        for argv in argvs:
            with tempfile.TemporaryDirectory() as tmp:
                argv = with_files(Path(tmp), [text if a == "{}" else a for a in argv])
                assert run_in_process(argv)[0] == 0, (name, argv)
    MUTATION_TIMES.clear()
    start = time.perf_counter()
    check_mutated_documents()
    total = time.perf_counter() - start
    slowest, name = max(MUTATION_TIMES)
    assert total < 5.0, (f"{len(MUTATION_TIMES)} examples took {total:.2f} s, the slowest "
                         f"{slowest:.2f} s on a mutated {name!r}")


class TestScoreCommand:
    def test_empirical(self, capsys, docs):
        code, out, _ = run(capsys, "score", docs["log"], "--mode", "empirical")
        assert code == 0
        assert "alice, round 1: 0.405465108" in out
        assert "alice, round 2: 0.693147181" in out

    def test_sequential_second_perfect(self, capsys, docs):
        code, out, _ = run(
            capsys, "score", docs["seq"], "--mode", "sequential",
            "--truth", docs["truth"],
        )
        assert code == 0
        lines = out.splitlines()
        first = float(lines[0].split(": ")[1])
        second = float(lines[1].split(": ")[1])
        assert second == pytest.approx(first, abs=1e-12)  # full credit
        assert "telescoped check" in out

    def test_sequential_requires_truth(self, capsys, docs):
        code, _, err = run(capsys, "score", docs["seq"], "--mode", "sequential")
        assert code == 1
        assert "--truth" in err

    def test_sequential_truth_on_other_outcomes(self, capsys, tmp_path, docs):
        truth = tmp_path / "truth3.txt"
        truth.write_text("distribution v1\nspace H T E\nmass H 1/2\nmass T 1/2\n")
        code, out, err = run(
            capsys, "score", docs["seq"], "--mode", "sequential", "--truth", str(truth),
        )
        assert (code, out) == (1, "")
        assert err == "error: truth and log use different outcome spaces\n"

    def test_indeterminate_is_exit_4(self, capsys, tmp_path, docs):
        log = tmp_path / "inf.txt"
        log.write_text(
            "forecast-log v1\n"
            "outcomes H T\n"
            "forecast 1 alice H 1/1 0/1\n"
            "forecast 2 bob H 0/1 1/1\n"
        )
        code, _, err = run(
            capsys, "score", str(log), "--mode", "sequential",
            "--truth", docs["truth"],
        )
        assert code == 4
        assert "indeterminate" in err

    def test_parse_error_names_the_bad_tokens_line(self, capsys, tmp_path):
        argv = with_files(tmp_path, [REPEATED_TOKEN_LOG, "--mode", "empirical"])
        assert run(capsys, "score", *argv) == (2, "", "parse error: line 5, column 1: not a fraction: 'x/2'\n")

    def test_conditional(self, capsys, docs):
        code, out, _ = run(capsys, "score", docs["coin"], "--mode", "conditional")
        assert code == 0
        assert "scenario H: q = 1/2, score = 0.0588915178" in out
        assert "total = 0.0588915178" in out

    def test_summary_json(self, capsys, tmp_path, docs):
        summary = tmp_path / "summary.json"
        code, _, _ = run(
            capsys, "score", docs["log"], "--mode", "empirical",
            "--summary", str(summary),
        )
        assert code == 0
        data = json.loads(summary.read_text())
        assert data["mode"] == "empirical"
        assert data["reports"][0]["forecaster"] == "alice"
        assert data["reports"][0]["total"] == pytest.approx(
            -math.log(2 / 3) - math.log(1 / 2), abs=1e-12
        )

    def summary(self, capsys, tmp_path, log, *argv):
        """The --summary of score on log, read by a JSON parser that refuses
        the non-standard tokens NaN, Infinity and -Infinity."""
        def reject(token):
            raise ValueError(f"not a JSON token: {token}")

        path = tmp_path / "summary.json"
        code, _, _ = run(capsys, "score", *with_files(tmp_path, [log, *argv]), "--summary", str(path))
        assert code == 0
        return json.loads(path.read_text(), parse_constant=reject)

    def test_summary_writes_infinities_as_strings(self, capsys, tmp_path):
        data = self.summary(capsys, tmp_path, INFINITE_SCORES_LOG, "--mode", "sequential", "--truth", TRUTH_DOC)
        assert data["scores"] == ["inf", "inf", "-inf", "inf"]

    def test_summary_zero_score_is_positive(self, capsys, tmp_path):
        # the realized outcome has mass 1, a log loss of 0.0, not -0.0
        data = self.summary(capsys, tmp_path, "forecast-log v1\noutcomes H T\nforecast 1 alice H 1 0\n")
        (report,) = data["reports"]
        assert report["per_round"] == [[1, 0.0]]
        assert math.copysign(1, report["per_round"][0][1]) == math.copysign(1, report["total"]) == 1

    @pytest.mark.parametrize(
        "records, named",
        [
            ("forecast 10 alice H 1 0\nforecast 20 alice H 1 0\n", "round 10 (alice) and round 20 (alice)"),
            # both infinite scores sit in one round, and the log is sorted
            # by round, then forecaster
            ("forecast 20 alice H 1/2 1/2\nforecast 10 carol T 1 0\nforecast 10 bob H 1 0\n",
             "round 10 (bob) and round 10 (carol)"),
        ],
        ids=["two-rounds", "one-round"],
    )
    def test_indeterminate_names_the_records(self, capsys, tmp_path, records, named):
        log = "forecast-log v1\noutcomes H T\n" + records
        argv = with_files(tmp_path, [log, "--mode", "sequential", "--truth", TRUTH_DOC])
        code, out, err = run(capsys, "score", *argv)
        assert (code, out) == (4, "")
        assert err == f"error: indeterminate increment: {named} are both infinite\n"

    def test_empirical_groups_interleaved_forecasters(self, capsys, tmp_path):
        # one pass groups the records; the output keeps forecasters sorted
        # and each one's rounds ascending, whatever the log's order
        records = parse_forecast_log(THREE_FORECASTERS_LOG).records
        want_out, want_reports = [], []
        for name in ("alice", "bob", "carol"):
            mine = sorted((r for r in records if r.forecaster == name), key=lambda r: r.round)
            scores = [0.0 - ln_fraction(r.forecast(r.outcome)) for r in mine]
            want_out += [f"{name}, round {r.round}: {s:.9g}" for r, s in zip(mine, scores)]
            want_out.append(f"{name}, total: {math.fsum(scores):.9g}")
            want_reports.append({"forecaster": name,
                                 "per_round": [[r.round, s] for r, s in zip(mine, scores)],
                                 "total": math.fsum(scores)})
        summary = tmp_path / "summary.json"
        argv = with_files(tmp_path, [THREE_FORECASTERS_LOG, "--mode", "empirical",
                                     "--summary", str(summary)])
        assert run(capsys, "score", *argv) == (0, "\n".join(want_out) + "\n", "")
        assert json.loads(summary.read_text()) == {"mode": "empirical", "reports": want_reports}

    def test_sequential_scores_interleaved_forecasters(self, capsys, tmp_path):
        # the truth is split into ints once for all forecasts; each score
        # is still the Fraction-division reference's, bit for bit
        truth = parse_distribution(THREE_OUTCOME_TRUTH)
        records = sorted(parse_forecast_log(THREE_FORECASTERS_LOG).records,
                         key=lambda r: (r.round, r.forecaster))
        full = [fraction_kl(truth.items(), r.forecast) for r in records]
        scores = [full[0]] + [a - b for a, b in zip(full, full[1:])]
        want = [f"round {r.round}, {r.forecaster}: {s:.9g}" for r, s in zip(records, scores)]
        want.append(f"telescoped check: {math.fsum(scores[1:]):.9g} vs {full[0] - full[-1]:.9g}")
        argv = with_files(tmp_path, [THREE_FORECASTERS_LOG, "--mode", "sequential",
                                     "--truth", THREE_OUTCOME_TRUTH])
        assert run(capsys, "score", *argv) == (0, "\n".join(want) + "\n", "")

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_summary_is_an_error(self, capsys, tmp_path, docs, where):
        if where == "directory":
            summary, reason = tmp_path, "Is a directory"
        else:
            summary, reason = tmp_path / "missing" / "summary.json", "No such file or directory"
        code, out, err = run(capsys, "score", docs["log"], "--summary", str(summary))
        assert code == 1
        assert "alice, total: " in out
        assert err == f"error: cannot write {summary}: {reason}\n"
