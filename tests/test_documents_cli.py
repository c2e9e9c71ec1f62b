"""Document formats and the command-line front end.

Exit codes: 0 success, 1 semantic failure, 2 parse failure, 3 numeric
tolerance, 4 indeterminate arithmetic.
"""

import json
import math
from fractions import Fraction

import pytest

from kernelflow.cli import main
from kernelflow.documents import (
    parse_distribution,
    parse_forecast_log,
    parse_morphism,
    parse_piecewise,
    serialize_morphism,
)
from kernelflow.errors import DocumentParseError, IncoherentPairError

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

    def test_missing_row(self):
        bad = COIN_DOC.replace("s T TH 1/3\n", "").replace("s T TT 2/3\n", "")
        with pytest.raises(DocumentParseError) as err:
            parse_morphism(bad)
        assert "'T'" in str(err.value)


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

    def test_mc_requires_seed(self, capsys):
        code, _, err = run(
            capsys, "estimate-kl", "gaussian", "0", "1", "1", "1",
            "--integrator", "mc",
        )
        assert code == 1
        assert "seed" in err

    def test_determinism(self, capsys, monkeypatch):
        argv = [
            "estimate-kl", "exponential", "1", "2",
            "--truncate", "0", "40", "--nmax", "5", "--tol", "1e-6",
        ]
        runs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("KERNELFLOW_THREADS", threads)
            runs.append(run(capsys, *argv))
        assert runs[0] == runs[1]  # byte-identical, thread-count invariant


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
