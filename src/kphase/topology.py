"""Poincare polynomials of equal-rank quotients and orbit bookkeeping.

Everything here is exact integer arithmetic: products of cyclotomic-style
binomials divided with zero remainder.  Group names are accepted both as
Cartan labels (A3, B2, G2, U1) and classical names (SU(4), SO(5), Sp(3),
U(1)), composed with x into products and with / into quotients.

Each series states its data once, in ``_SERIES``: its Weyl degrees and
the isotropy of its smallest nonzero coadjoint orbit.  The rest is
derived from the degrees d_j: the rank is their number, the dimension is
the sum of 2 d_j - 1, and a minimal orbit G/H has dimension dim G - dim H.
"""

from __future__ import annotations

import enum
import re
import warnings
from dataclasses import dataclass

from .errors import InvalidRank, NonDivisible, RankMismatch, UnknownGroup


class Series(str, enum.Enum):
    """Simple series plus the rank-one torus factor."""

    A = "A"
    B = "B"
    C = "C"
    D = "D"
    G2 = "G2"
    F4 = "F4"
    E6 = "E6"
    E7 = "E7"
    E8 = "E8"
    U1 = "U1"


# One record per series: its Weyl degrees, as a rule in the rank or as the
# fixed tuple of a fixed-rank series, and the circle factor of its
# minimal-orbit isotropy (for a fixed-rank series, the whole isotropy).
_SERIES = {
    Series.A: (lambda n: range(2, n + 2), "U(1)"),
    Series.B: (lambda n: range(2, 2 * n + 1, 2), "SO(2)"),
    Series.C: (lambda n: range(2, 2 * n + 1, 2), "U(1)"),
    Series.D: (lambda n: sorted([*range(2, 2 * n - 1, 2), n]), "SO(2)"),
    Series.G2: ((2, 6), "A1 x SO(2)"),
    Series.F4: ((2, 6, 8, 12), "C3 x SO(2)"),
    Series.E6: ((2, 5, 6, 8, 9, 12), "D5 x SO(2)"),
    Series.E7: ((2, 6, 8, 10, 12, 14, 18), "E6 x SO(2)"),
    Series.E8: ((2, 8, 12, 14, 18, 20, 24, 30), "E7 x SO(2)"),
    Series.U1: ((1,), None),
}


def _fixed(series: Series) -> tuple[int, ...] | None:
    """The degrees of a fixed-rank series, else None."""
    rule = _SERIES[series][0]
    return rule if isinstance(rule, tuple) else None


def _dimension(degrees) -> int:
    """A compact group's dimension from its Weyl degrees."""
    return sum(2 * d - 1 for d in degrees)


@dataclass(frozen=True)
class SimpleFactor:
    """One simple (or torus) factor of a compact group."""

    series: Series
    rank: int

    def __post_init__(self):
        object.__setattr__(self, "series", Series(self.series))
        if self.rank < 1:
            raise InvalidRank("rank must be positive")
        fixed = _fixed(self.series)
        if fixed is not None and self.rank != len(fixed):
            raise InvalidRank(
                f"{self.series.value} has fixed rank {len(fixed)}"
            )
        if self.series is Series.D:
            if self.rank < 2:
                raise InvalidRank("the D series starts at rank 2")
            if self.rank == 2:
                warnings.warn(
                    "D with rank 2 is reducible (two A1 factors); "
                    "allowed but flagged",
                    stacklevel=2,
                )

    @property
    def label(self) -> str:
        if _fixed(self.series) is not None:
            return self.series.value
        return f"{self.series.value}{self.rank}"

    def degrees(self) -> list[int]:
        rule = _SERIES[self.series][0]
        return list(rule if isinstance(rule, tuple) else rule(self.rank))


@dataclass(frozen=True)
class GroupSpec:
    """A product of simple and torus factors."""

    factors: tuple[SimpleFactor, ...]

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors)

    @property
    def label(self) -> str:
        return " x ".join(f.label for f in self.factors)


# A Cartan label, or an exceptional name such as G2 or E_6.
_CARTAN = re.compile(r"^([A-G])_?(\d+)$")
_CLASSICAL = re.compile(r"^(SU|SO|SP|U)\(?(\d+)\)?$", re.IGNORECASE)


def _parse_factor(token: str) -> list[SimpleFactor]:
    text = token.strip()
    if not text:
        raise UnknownGroup("empty group name")
    upper = text.upper()
    if upper in ("U1", "U_1", "U(1)", "SO2", "SO(2)", "SO_2"):
        return [SimpleFactor(Series.U1, 1)]
    m = _CARTAN.match(upper)
    if m and m.group(1) in "ABCD":
        return [SimpleFactor(Series(m.group(1)), int(m.group(2)))]
    if m and "".join(m.groups()) in Series.__members__:
        series = Series("".join(m.groups()))
        return [SimpleFactor(series, len(_fixed(series)))]
    m = _CLASSICAL.match(text)
    if m:
        name, n = m.group(1).upper(), int(m.group(2))
        if name == "SU":
            if n < 2:
                raise InvalidRank("SU needs size at least 2")
            return [SimpleFactor(Series.A, n - 1)]
        if name == "SP":
            if n < 1:
                raise InvalidRank("Sp needs positive rank")
            return [SimpleFactor(Series.C, n)]
        if name == "SO":
            if n == 2:
                return [SimpleFactor(Series.U1, 1)]
            if n < 3:
                raise UnknownGroup(f"no group behind SO({n})")
            if n % 2:
                return [SimpleFactor(Series.B, (n - 1) // 2)]
            return [SimpleFactor(Series.D, n // 2)]
        if name == "U":
            if n == 1:
                return [SimpleFactor(Series.U1, 1)]
            # Unitary groups split into their special part and a circle.
            return [
                SimpleFactor(Series.A, n - 1),
                SimpleFactor(Series.U1, 1),
            ]
    raise UnknownGroup(f"cannot parse group name {token!r}")


def parse_group(text: str) -> GroupSpec:
    """Parse a product of group names separated by x, *, or a times sign."""
    tokens = re.split(r"[x*×]", text, flags=re.IGNORECASE)
    factors: list[SimpleFactor] = []
    for token in tokens:
        factors.extend(_parse_factor(token))
    if not factors:
        raise UnknownGroup(f"no factors in {text!r}")
    return GroupSpec(tuple(factors))


def parse_quotient(text: str) -> tuple[GroupSpec, GroupSpec]:
    """Parse a quotient string such as ``SU(4)/SU(2)xSU(2)xU(1)``."""
    if text.count("/") != 1:
        raise UnknownGroup("a quotient needs exactly one '/'")
    top, bottom = text.split("/")
    return parse_group(top), parse_group(bottom)


def _group(g) -> GroupSpec:
    """A group given as a name, a factor or a product."""
    if isinstance(g, str):
        return parse_group(g)
    if isinstance(g, SimpleFactor):
        return GroupSpec((g,))
    if isinstance(g, GroupSpec):
        return g
    raise UnknownGroup(f"cannot interpret {g!r} as a group")


def weyl_degrees(g) -> list[int]:
    """Sorted invariant degrees of a group (string, factor, or product)."""
    return sorted(d for f in _group(g).factors for d in f.degrees())


@dataclass(frozen=True)
class PoincarePolynomial:
    """Integer coefficient list indexed by degree (Betti numbers)."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def euler_characteristic(self) -> int:
        return sum(self.coefficients)

    def __call__(self, t: float) -> float:
        out = 0.0
        for c in reversed(self.coefficients):
            out = out * t + c
        return out

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                base = "t" if k == 1 else f"t^{k}"
                terms.append(base if c == 1 else f"{c} {base}")
        return " + ".join(terms) if terms else "0"


def hirsch_polynomial(g_degrees, h_degrees) -> PoincarePolynomial:
    """Quotient Poincare polynomial from two equal-length degree lists.

    Computes ``prod_j (1 - t^{2 n_j}) / prod_j (1 - t^{2 m_j})`` by exact
    integer polynomial division, one binomial at a time; a nonzero
    remainder signals an invalid pairing.
    """
    gd = [int(x) for x in g_degrees]
    hd = [int(x) for x in h_degrees]
    if len(gd) != len(hd):
        raise RankMismatch(
            f"degree lists have lengths {len(gd)} and {len(hd)}"
        )
    if any(x < 1 for x in gd + hd):
        raise InvalidRank("degrees must be positive")
    coeffs = [1]
    for n in gd:
        # Times 1 - t^{2n}, from the top so each term reads the old ones.
        coeffs += [0] * (2 * n)
        for k in range(len(coeffs) - 1, 2 * n - 1, -1):
            coeffs[k] -= coeffs[k - 2 * n]
    for m in hd:
        # Over 1 - t^{2m}: the power series of the quotient, which is exact
        # only if its 2m terms past the quotient's degree vanish.
        for k in range(2 * m, len(coeffs)):
            coeffs[k] += coeffs[k - 2 * m]
        if len(coeffs) <= 2 * m or any(coeffs[-2 * m:]):
            raise NonDivisible("polynomial division leaves a remainder")
        del coeffs[-2 * m:]
    return PoincarePolynomial(tuple(coeffs))


def poincare_quotient(text: str) -> PoincarePolynomial:
    """Poincare polynomial of a quotient given as a string."""
    top, bottom = parse_quotient(text)
    return hirsch_polynomial(weyl_degrees(top), weyl_degrees(bottom))


@dataclass(frozen=True)
class BettiReport:
    """Validity checks of a Betti-number list."""

    ok: bool
    violations: tuple[str, ...]
    euler_characteristic: int
    top_degree: int

    def __bool__(self) -> bool:
        return self.ok


def betti_validate(p: PoincarePolynomial) -> BettiReport:
    """Check the shape every compact simply-connected orbit must have.

    Unit bottom class, vanishing odd Betti numbers, palindromic list, and
    no gaps among the even Betti numbers up to the top degree.
    """
    coeffs = p.coefficients
    violations = []
    if coeffs[0] != 1:
        violations.append("bottom Betti number is not 1")
    if any(c != 0 for c in coeffs[1::2]):
        violations.append("odd-degree Betti numbers do not vanish")
    if any(c < 0 for c in coeffs):
        violations.append("negative coefficient")
    n = len(coeffs) - 1
    if any(coeffs[k] != coeffs[n - k] for k in range(len(coeffs))):
        violations.append("coefficients are not palindromic")
    if any(coeffs[k] <= 0 for k in range(0, n + 1, 2)):
        violations.append("an even Betti number vanishes below the top degree")
    return BettiReport(
        ok=not violations,
        violations=tuple(violations),
        euler_characteristic=p.euler_characteristic(),
        top_degree=p.degree,
    )


@dataclass(frozen=True)
class MinOrbitInfo:
    """Dimension and isotropy of the smallest nonzero coadjoint orbit."""

    group: str
    dimension: int
    isotropy: str


def min_orbit(g) -> MinOrbitInfo:
    """Smallest-orbit table row for one simple factor.

    An exceptional group's isotropy is its record's.  A classical group
    of rank n takes the isotropy of larger dimension, so the smaller
    orbit, of two: the series at rank n - 1 times a circle, and U(n); a
    tie keeps the former.  The
    dimension is dim G - dim H, both from Weyl degrees, so D3 and A3 share
    a row without building the flagged D2.  Torus factors and products
    have no row.
    """
    factors = _group(g).factors
    if len(factors) != 1:
        raise UnknownGroup("the minimal-orbit table covers single factors")
    factor = factors[0]
    s, n = factor.series, factor.rank
    if s is Series.U1:
        raise UnknownGroup("a torus factor has no nonzero coadjoint orbit")
    if s is Series.C and n < 2:
        raise InvalidRank("rank-one symplectic is the A-series row")
    rule, sub = _SERIES[s]
    if isinstance(rule, tuple):
        rows = [(sub, weyl_degrees(sub))]
    else:
        own = sub if n == 1 else f"{s.value}{n - 1} x {sub}"
        rows = [(own, [*rule(n - 1), 1]), (f"U({n})", range(1, n + 1))]
    isotropy, h = max(rows, key=lambda row: _dimension(row[1]))
    return MinOrbitInfo(
        factor.label, _dimension(factor.degrees()) - _dimension(h), isotropy
    )
