"""Line-oriented text documents for morphisms, distributions and forecast logs.

A mass is read exactly, as `fractions.Fraction` reads a string: "3/4",
"2", "0.25" and "1e-2" all parse, and a negative mass is an error.  The
common case, unsigned digits with an optional "/digits" denominator, is
parsed with two int() calls; every other token goes through
Fraction(token), so both paths give the same value or the same error.
Only an exponent of at least 4300 plus the token's length is refused,
before Fraction builds its power of ten.  A forecast log reads each
distinct mass token once per parse and reuses its value.
A morphism document's q lines are optional: the pair derives q as the
pushforward of p, and a declared q is checked against it, not trusted.
Serialization is canonical: fixed section order, canonical point order,
every fraction written as "num/den" in lowest terms.  Parsing a
canonicalized document and serializing it again is byte-identical.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import DocumentParseError, DomainMismatchError
from .finite import FiniteDistribution, FiniteSpace, StochasticKernel, format_fraction
from .pairs import CoherentPair, validate_coherent
from .scoring import ForecastRecord

MORPHISM_TAG = "morphism v1"
DISTRIBUTION_TAG = "distribution v1"
FORECAST_LOG_TAG = "forecast-log v1"
PIECEWISE_TAG = "piecewise v1"


# the decimal exponent Fraction reads: a sign and digits, with single
# underscores between digits from Python 3.11 on; like int(), \d takes
# every Unicode decimal digit
_EXPONENT = re.compile(
    r"[eE]([-+]?\d+%s)\Z" % (r"(?:_\d+)*" if sys.version_info >= (3, 11) else "")
)


def _exact(token: str) -> Fraction:
    """Fraction(token), without building 10**e for a huge exponent e.

    A nonzero number whose |e| is at least 4300, CPython's default
    int-to-str digit limit, plus its length raises OverflowError at once:
    the bound keeps 10**e small, so that a token of a few characters
    cannot ask for memory in proportion to e.  So does one whose e has
    over 640 digits past its leading zeros, before int() reads them: 640
    is the lowest limit an interpreter accepts, so no limit changes the
    verdict.  A zero mantissa is 0 whatever its exponent.
    """
    token = token.strip()
    exp = _EXPONENT.search(token)
    if exp:
        digits = exp[1].lstrip("+-").replace("_", "").lstrip("0")
        if len(digits) > 640 or int(digits or 0) >= 4300 + len(token):
            mantissa = Fraction(token[:exp.start()] + "e0")
            if mantissa:
                raise OverflowError(f"exponent out of range: {token!r}")
            return mantissa
    return Fraction(token)


def _fraction(token: str, lineno: int) -> Fraction:
    num, slash, den = token.partition("/")
    try:
        if num.isdecimal() and (den.isdecimal() or not slash):
            # unsigned digits: two int() calls, and no sign to check
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        f = _exact(token)
    except (ValueError, ZeroDivisionError):
        raise DocumentParseError(f"not a fraction: {token!r}", lineno)
    except OverflowError as exc:
        raise DocumentParseError(str(exc), lineno)
    if f < 0:
        raise DocumentParseError(f"negative mass {token!r}", lineno)
    return f


def _number(token: str) -> float:
    """The float nearest the exact number token; ValueError when the token
    is not a number or lies beyond the float range."""
    try:
        return float(_exact(token))
    except (ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"not a float: {token!r}") from exc


def _space(points, lineno: int) -> FiniteSpace:
    try:
        return FiniteSpace(tuple(points))
    except DomainMismatchError as exc:
        raise DocumentParseError(str(exc), lineno)


def _distribution(
    space: FiniteSpace, raw, what: str, lineno: int, line_of=None
) -> FiniteDistribution:
    """The distribution of raw masses, or a parse error naming what failed,
    at lineno or, for a point outside the space, at line_of(point) if given."""
    try:
        return FiniteDistribution(space, raw)
    except DomainMismatchError as exc:
        if line_of is not None:
            lineno = next((line_of(x) for x in raw if x not in space), lineno)
        raise DocumentParseError(f"{what}: {exc}", lineno)


def _document_lines(text: str, tag: str) -> Iterator[tuple[int, list[str]]]:
    """Yield the (lineno, tokens) content lines of text, the first being its
    header, which must read tag; it is checked when the first line is asked
    for.  A line's tokens are what precedes its first "#", split at
    whitespace; a line without any is not a content line."""
    lines = (
        (lineno, tokens)
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if (tokens := raw.partition("#")[0].split())
    )
    header = next(lines, None)
    if header is None or header[1] != tag.split():
        raise DocumentParseError(f"expected header {tag!r}", header[0] if header else 1)
    yield header
    yield from lines


@dataclass(frozen=True)
class MorphismDocument:
    """Parsed morphism data, before coherence validation."""

    x_name: str
    y_name: str
    p: FiniteDistribution  # on X
    f: dict[str, str]
    s: StochasticKernel  # from Y to X
    q: FiniteDistribution | None  # declared, optional; checked against f_*p

    def to_pair(self) -> CoherentPair:
        """Build the validated pair; raises IncoherentPairError on failure."""
        return CoherentPair(self.f, self.s, self.p, self.q)

    def validate(self) -> tuple[str, ...]:
        """Every violation of coherence in the pair; empty when coherent."""
        return validate_coherent(self.f, self.s, self.p, self.q)


def parse_morphism(text: str) -> MorphismDocument:
    lines = _document_lines(text, MORPHISM_TAG)
    lineno, _ = next(lines)

    spaces: dict[str, tuple[int, FiniteSpace]] = {}
    space_order: list[str] = []
    p_raw: dict[str, Fraction] = {}
    q_raw: dict[str, Fraction] = {}
    f_map: dict[str, str] = {}
    s_raw: dict[str, dict[str, Fraction]] = {}
    # the line of each entry and of each distribution's last entry
    at: dict[tuple[str, ...], int] = {}

    for lineno, tokens in lines:
        kind = tokens[0]
        if kind == "space":
            if len(tokens) < 3:
                raise DocumentParseError("space needs a name and at least one point", lineno)
            name = tokens[1]
            if name in spaces:
                raise DocumentParseError(f"space {name!r} declared twice", lineno)
            spaces[name] = (lineno, _space(tokens[2:], lineno))
            space_order.append(name)
        elif kind == "map":
            if len(tokens) != 3:
                raise DocumentParseError("map needs: map <x> <y>", lineno)
            if tokens[1] in f_map:
                raise DocumentParseError(f"map defined twice at {tokens[1]!r}", lineno)
            f_map[tokens[1]] = tokens[2]
            at["map", tokens[1]] = lineno
        elif kind in ("p", "q"):
            if len(tokens) != 3:
                raise DocumentParseError(f"{kind} needs: {kind} <point> <fraction>", lineno)
            target = p_raw if kind == "p" else q_raw
            if tokens[1] in target:
                raise DocumentParseError(f"{kind}({tokens[1]!r}) given twice", lineno)
            target[tokens[1]] = _fraction(tokens[2], lineno)
            at[kind, tokens[1]] = at[(kind,)] = lineno
        elif kind == "s":
            if len(tokens) != 4:
                raise DocumentParseError("s needs: s <y> <x> <fraction>", lineno)
            row = s_raw.setdefault(tokens[1], {})
            if tokens[2] in row:
                raise DocumentParseError(f"s({tokens[1]!r}, {tokens[2]!r}) given twice", lineno)
            row[tokens[2]] = _fraction(tokens[3], lineno)
            at["s", tokens[1], tokens[2]] = at["s", tokens[1]] = lineno
        else:
            raise DocumentParseError(f"unknown directive {kind!r}", lineno)
    # the last content line, for the errors found once the whole document is read
    last_line = lineno

    if len(space_order) != 2:
        raise DocumentParseError(
            f"expected exactly two spaces, found {len(space_order)}", last_line
        )
    x_name, y_name = space_order
    x_space = spaces[x_name][1]
    y_space = spaces[y_name][1]

    def distribution(space, raw, what, *key):
        return _distribution(space, raw, what, at[key], lambda x: at[(*key, x)])

    if not p_raw:
        raise DocumentParseError("missing p masses", last_line)
    p = distribution(x_space, p_raw, "p", "p")
    for x in x_space:
        if x not in f_map:
            raise DocumentParseError(f"map undefined at point {x!r}", last_line)
        if f_map[x] not in y_space:
            raise DocumentParseError(
                f"map sends {x!r} to unknown point {f_map[x]!r}", at["map", x]
            )
    for x in f_map:
        if x not in x_space:
            raise DocumentParseError(f"map defined at unknown point {x!r}", at["map", x])
    rows = {}
    for y in y_space:
        raw = s_raw.get(y)
        if raw is None:
            raise DocumentParseError(f"missing hypothesis row for {y!r}", last_line)
        rows[y] = distribution(x_space, raw, f"s row {y!r}", "s", y)
    for y in s_raw:
        if y not in y_space:
            raise DocumentParseError(f"hypothesis row for unknown point {y!r}", at["s", y])
    s = StochasticKernel(y_space, x_space, rows)
    q = distribution(y_space, q_raw, "q", "q") if q_raw else None
    return MorphismDocument(x_name, y_name, p, f_map, s, q)


def serialize_morphism(doc: MorphismDocument) -> str:
    """The canonical text of doc; DomainMismatchError when parse_morphism could not read it back."""
    x_space, y_space = doc.p.space, doc.s.source
    if doc.s.target != x_space:
        raise DomainMismatchError("the hypothesis rows live on another space than p")
    if doc.q is not None and doc.q.space != y_space:
        raise DomainMismatchError("the declared q lives on another space than the hypothesis rows")
    if doc.x_name == doc.y_name:
        raise DomainMismatchError(f"both spaces are named {doc.x_name!r}")
    for what, tokens in (("space name", (doc.x_name, doc.y_name)), ("label", (*x_space, *y_space))):
        for token in tokens:
            if token.split() != [token] or "#" in token:
                raise DomainMismatchError(f"{what} {token!r} is not one token without '#'")
    out = [MORPHISM_TAG]
    out.append(f"space {doc.x_name} " + " ".join(x_space))
    out.append(f"space {doc.y_name} " + " ".join(y_space))
    for x in x_space:
        if doc.f.get(x) not in y_space:
            raise DomainMismatchError(f"map sends {x!r} to {doc.f.get(x)!r}, not a point of {doc.y_name!r}")
        out.append(f"map {x} {doc.f[x]}")
    for x in x_space:
        out.append(f"p {x} {format_fraction(doc.p(x))}")
    if doc.q is not None:
        for y in y_space:
            out.append(f"q {y} {format_fraction(doc.q(y))}")
    for y in y_space:
        row = doc.s(y)
        for x in x_space:
            if row(x) > 0:
                out.append(f"s {y} {x} {format_fraction(row(x))}")
    return "\n".join(out) + "\n"


def parse_distribution(text: str) -> FiniteDistribution:
    lines = _document_lines(text, DISTRIBUTION_TAG)
    lineno, _ = next(lines)  # ends as the last content line's
    space = None
    raw: dict[str, Fraction] = {}
    at: dict[str, int] = {}
    for lineno, tokens in lines:
        if tokens[0] == "space":
            if space is not None:
                raise DocumentParseError("space declared twice", lineno)
            space = _space(tokens[1:], lineno)
        elif tokens[0] == "mass":
            if len(tokens) != 3:
                raise DocumentParseError("mass needs: mass <point> <fraction>", lineno)
            if tokens[1] in raw:
                raise DocumentParseError(f"mass({tokens[1]!r}) given twice", lineno)
            raw[tokens[1]] = _fraction(tokens[2], lineno)
            at[tokens[1]] = lineno
        else:
            raise DocumentParseError(f"unknown directive {tokens[0]!r}", lineno)
    if space is None:
        raise DocumentParseError("missing space declaration", lineno)
    return _distribution(space, raw, "distribution", lineno, at.get)


@dataclass(frozen=True)
class ForecastLog:
    space: FiniteSpace
    records: tuple[ForecastRecord, ...]

    def forecasters(self) -> tuple[str, ...]:
        return tuple(sorted({r.forecaster for r in self.records}))

    def for_forecaster(self, name: str) -> tuple[ForecastRecord, ...]:
        return tuple(r for r in self.records if r.forecaster == name)


def parse_forecast_log(text: str) -> ForecastLog:
    lines = _document_lines(text, FORECAST_LOG_TAG)
    lineno, _ = next(lines)  # ends as the last content line's
    space = None
    records: list[ForecastRecord] = []
    seen: set[tuple[int, str]] = set()
    # each mass token read so far, by its text: a log repeats few distinct
    # tokens, and only a token that parsed is kept, so a bad one fails at
    # every line it is on, the first of them first
    known: dict[str, Fraction] = {}
    for lineno, tokens in lines:
        if tokens[0] == "outcomes":
            if space is not None:
                raise DocumentParseError("outcomes declared twice", lineno)
            space = _space(tokens[1:], lineno)
            # what each record line needs of the space, read once
            points, index, expected = space.points, space._index, 4 + len(space)
        elif tokens[0] == "forecast":
            if space is None:
                raise DocumentParseError("forecast before outcomes declaration", lineno)
            if len(tokens) != expected:
                raise DocumentParseError(
                    f"forecast needs: forecast <round> <forecaster> <outcome> "
                    f"and {len(points)} fractions",
                    lineno,
                )
            try:
                rnd = int(tokens[1])
            except ValueError:
                raise DocumentParseError(f"bad round number {tokens[1]!r}", lineno)
            forecaster, outcome = tokens[2], tokens[3]
            if outcome not in index:
                raise DocumentParseError(f"outcome {outcome!r} is not a declared point", lineno)
            if (rnd, forecaster) in seen:
                raise DocumentParseError(
                    f"duplicate record for round {rnd}, forecaster {forecaster!r}", lineno
                )
            seen.add((rnd, forecaster))
            masses = {}
            for x, t in zip(points, tokens[4:]):
                m = known.get(t)
                if m is None:
                    m = known[t] = _fraction(t, lineno)
                masses[x] = m
            forecast = _distribution(space, masses, "forecast", lineno)
            records.append(ForecastRecord(rnd, forecaster, forecast, outcome))
        else:
            raise DocumentParseError(f"unknown directive {tokens[0]!r}", lineno)
    if space is None:
        raise DocumentParseError("missing outcomes declaration", lineno)
    return ForecastLog(space, tuple(records))


def parse_piecewise(text: str) -> list[tuple[float, float, float, float]]:
    lines = _document_lines(text, PIECEWISE_TAG)
    lineno, _ = next(lines)  # ends as the last content line's
    pieces = []
    for lineno, tokens in lines:
        if tokens[0] != "piece":
            raise DocumentParseError(f"unknown directive {tokens[0]!r}", lineno)
        if len(tokens) != 5:
            raise DocumentParseError("piece needs: piece <lo> <hi> <q-density> <ratio>", lineno)
        try:
            lo, hi, qd, r = (_number(t) for t in tokens[1:])
        except ValueError:
            raise DocumentParseError("piece values must be numbers", lineno)
        if hi <= lo or qd < 0 or r < 0:
            raise DocumentParseError("piece values out of range", lineno)
        pieces.append((lo, hi, qd, r))
    if not pieces:
        raise DocumentParseError("no pieces given", lineno)
    return pieces
