"""Document formats and the command-line front end.

Exit codes: 0 success, 1 semantic failure, 2 parse failure, 3 numeric
tolerance, 4 indeterminate arithmetic.
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernelflow
from kernelflow.cli import main
from kernelflow.documents import (
    _fraction,
    parse_distribution,
    parse_forecast_log,
    parse_morphism,
    parse_piecewise,
    serialize_morphism,
)
from kernelflow.errors import DocumentParseError, IncoherentPairError
from kernelflow.finite import pushforward, uniform
from kernelflow.pairs import CoherentPair

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
            (COIN_DOC.replace("map TH T", "map TH Z"), 6, "map sends 'TH' to unknown"),
            (extra_row, 14, "row for unknown point 'Z'"),
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
        assert pair.q == uniform(doc.y_space)


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

    @pytest.mark.parametrize("lo, hi", [("5", "5"), ("13", "-12"), ("-12", "1e999"), ("-12", "nan")])
    def test_bad_truncation_is_an_input_error(self, capsys, recwarn, lo, hi):
        # these used to end in a ZeroDivisionError, in exit 3 as if the
        # integrand were too hard, or in numpy warnings and a nan blamed
        # on the model
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
# digits) is under that bound and fails as a sum too long to print
HUGE_NUMBER_CASES = {
    "morphism_mass": (
        ["validate", COIN_DOC.replace("p HH 1/4", "p HH 1e5000")], 2,
        "parse error: line 8, column 1: exponent out of range: '1e5000'"),
    "distribution_mass": (
        ["score", SEQ_LOG, "--mode", "sequential", "--truth",
         TRUTH_DOC.replace("mass H 1/2", "mass H 1e4300")], 2,
        "parse error: line 4, column 1: distribution: masses sum to a fraction too long"),
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
