"""Seeded input generators for the kernelflow benchmark.

Every generator takes a `random.Random` (or a seed) and returns document
text plus the exact data the text encodes, so the output checks can work
from the generated masses instead of from the library's parsers.  The same
seed always gives byte-identical documents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# Shapes named in the metric names (x2000, x1000y300, k5).
MORPHISM_X, MORPHISM_Y, MORPHISM_Z = 2000, 40, 8
CONDITIONAL_X, CONDITIONAL_Y = 1000, 300
FORECASTERS, ROUNDS, OUTCOMES = 20, 500, 5
# Extra sizes for the finite-layer growth curve; |Y| keeps fibers of about 50.
GROWTH_SIZES = (200, 1000, 2000)


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _dyadic(k: int, shift: int) -> str:
    """k / 2**shift as an exact decimal string that argparse reads as a number."""
    if k % (1 << shift) == 0:
        return str(k >> shift)
    return repr(k / (1 << shift))


def _weights(rng: random.Random, count: int, lo: int = 1, hi: int = 1000) -> list[Fraction]:
    """Strictly positive exact masses summing to 1."""
    raw = [rng.randint(lo, hi) for _ in range(count)]
    total = sum(raw)
    return [Fraction(w, total) for w in raw]


@dataclass(frozen=True)
class Morphism:
    """A coherent, absolutely coherent morphism (X, p) -> (Y, q) and its text."""

    x_name: str
    y_name: str
    xs: tuple[str, ...]
    ys: tuple[str, ...]
    f: dict[str, str]
    p: dict[str, Fraction]
    s: dict[str, dict[str, Fraction]]   # y -> {x in fiber(y): mass}

    @property
    def q(self) -> dict[str, Fraction]:
        out = {y: Fraction(0) for y in self.ys}
        for x in self.xs:
            out[self.f[x]] += self.p[x]
        return out

    def text(self) -> str:
        lines = ["morphism v1",
                 f"space {self.x_name} " + " ".join(self.xs),
                 f"space {self.y_name} " + " ".join(self.ys)]
        lines += [f"map {x} {self.f[x]}" for x in self.xs]
        lines += [f"p {x} {_frac(self.p[x])}" for x in self.xs]
        for y in self.ys:
            lines += [f"s {y} {x} {_frac(m)}" for x, m in self.s[y].items()]
        return "\n".join(lines) + "\n"


def _onto_map(rng: random.Random, xs, ys) -> dict[str, str]:
    order = list(xs)
    rng.shuffle(order)
    f = {x: ys[i] for i, x in enumerate(order[: len(ys)])}
    for x in order[len(ys):]:
        f[x] = ys[rng.randrange(len(ys))]
    return {x: f[x] for x in xs}


def _fiber_rows(rng: random.Random, xs, ys, f) -> dict[str, dict[str, Fraction]]:
    fibers: dict[str, list[str]] = {y: [] for y in ys}
    for x in xs:
        fibers[f[x]].append(x)
    return {y: dict(zip(fibers[y], _weights(rng, len(fibers[y])))) for y in ys}


def morphism(rng: random.Random, nx: int, ny: int, x_name="X", y_name="Y",
             x_prefix="x", y_prefix="y") -> Morphism:
    xs = tuple(f"{x_prefix}{i}" for i in range(nx))
    ys = tuple(f"{y_prefix}{i}" for i in range(ny))
    f = _onto_map(rng, xs, ys)
    p = dict(zip(xs, _weights(rng, nx)))
    return Morphism(x_name, y_name, xs, ys, f, p, _fiber_rows(rng, xs, ys, f))


def composable(rng: random.Random, first: Morphism, nz: int) -> Morphism:
    """A morphism (Y, q) -> (Z, m) whose source is the first one's target."""
    zs = tuple(f"z{i}" for i in range(nz))
    f = _onto_map(rng, first.ys, zs)
    return Morphism(first.y_name, "Z", first.ys, zs, f, first.q,
                    _fiber_rows(rng, first.ys, zs, f))


@dataclass(frozen=True)
class ForecastLog:
    outcomes: tuple[str, ...]
    truth: dict[str, Fraction]
    records: tuple[tuple[int, str, str, tuple[Fraction, ...]], ...]  # round, who, outcome, masses

    def text(self) -> str:
        lines = ["forecast-log v1", "outcomes " + " ".join(self.outcomes)]
        lines += [f"forecast {r} {who} {o} " + " ".join(_frac(m) for m in ms)
                  for r, who, o, ms in self.records]
        return "\n".join(lines) + "\n"

    def truth_text(self) -> str:
        lines = ["distribution v1", "space " + " ".join(self.outcomes)]
        lines += [f"mass {o} {_frac(self.truth[o])}" for o in self.outcomes]
        return "\n".join(lines) + "\n"


def _composition(rng: random.Random, parts: int, den: int) -> tuple[Fraction, ...]:
    """den split into `parts` positive integers, as masses over den."""
    cuts = sorted(rng.sample(range(1, den), parts - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    return tuple(Fraction(k, den) for k in sizes)


def forecast_log(rng: random.Random, forecasters: int = FORECASTERS,
                 rounds: int = ROUNDS, outcomes: int = OUTCOMES) -> ForecastLog:
    """Full-support forecasts, so every score is finite; outcomes drawn from the truth."""
    labels = tuple(f"o{i}" for i in range(outcomes))
    truth = dict(zip(labels, _composition(rng, outcomes, 60)))
    weights = [float(truth[o]) for o in labels]
    names = [f"f{i:02d}" for i in range(forecasters)]
    records = []
    for r in range(1, rounds + 1):
        outcome = rng.choices(labels, weights)[0]
        for who in names:
            records.append((r, who, outcome, _composition(rng, outcomes, rng.randint(outcomes + 1, 64))))
    return ForecastLog(labels, truth, tuple(records))


@dataclass(frozen=True)
class LadderModels:
    """Estimator argv for one seed: scaled copies of the criterion 5/6 models.

    Shifting both gaussian means by m and scaling both scales by c, or
    scaling both exponential rates by c, leaves the true KL unchanged, so
    the known gaps stay comparable across seeds while the quadrature sees
    a different function.  Seed 0 gives the exact acceptance instances.
    """

    gauss: tuple[str, ...]
    exp: tuple[str, ...]
    mc_seed: int
    gauss_params: tuple[float, float, float, float]
    exp_params: tuple[float, float]


def ladder_models(seed: int) -> LadderModels:
    if seed == 0:
        m, c, e = 0, 64, 64
    else:
        rng = random.Random(f"ladder-{seed}")
        m, c, e = rng.randint(-8, 8), 64 + rng.randint(-4, 4), 64 + rng.randint(-4, 4)
    gauss = (_dyadic(m, 6), _dyadic(c, 6), _dyadic(m + c, 6), _dyadic(c, 6))
    exp = (_dyadic(e, 6), _dyadic(2 * e, 6))
    return LadderModels(gauss, exp, seed,
                        tuple(float(v) for v in gauss), tuple(float(v) for v in exp))
