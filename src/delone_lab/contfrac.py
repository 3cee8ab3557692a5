"""Continued fractions with exact floor arithmetic.

An alpha in (0, 1] is held as partial quotients [0; a_1, a_2, ...], either a
finite list (rational) or a list plus an extender callback (irrational).
floor(j * alpha) is computed exactly by bracketing alpha between consecutive
convergents, so Beatty symbols never touch floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import InvalidArgument, NeedsMoreTerms, ResourceLimit

_INT64_MAX = 2**63 - 1
GROWTH_MAX_BITS = 4_000_000  # construct_alpha_for_growth: largest denominator bit length


class ContinuedFraction:
    def __init__(
        self,
        quotients: Sequence[int],
        extend: Optional[Callable[[int], int]] = None,
    ):
        qs = [int(a) for a in quotients]
        if extend is None and not qs:
            raise InvalidArgument("need at least one partial quotient")
        for a in qs:
            if a < 1:
                raise InvalidArgument("partial quotients must be >= 1")
        self._quotients: List[int] = qs
        self._extend = extend
        # p, q indexed with an offset of 1: slot 0 is k = -1.
        self._p: List[int] = [1, 0]
        self._q: List[int] = [0, 1]
        self._floor_hint = 1
        # floor_multiples' per-level table: Python lists, whether it is complete,
        # and the arrays built from the lists
        self._levels: tuple = ([], [], [])
        self._levels_complete = False
        self._level_arrays: Optional[tuple] = None

    # -- quotients and convergents -----------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._extend is None

    def known_terms(self) -> int:
        return len(self._quotients)

    def quotient(self, k: int) -> int:
        """Partial quotient a_k, 1-indexed. Extends lazily if possible."""
        if k < 1:
            raise InvalidArgument("quotient index starts at 1")
        while len(self._quotients) < k:
            if self._extend is None:
                raise NeedsMoreTerms(
                    f"continued fraction has only {len(self._quotients)} terms"
                )
            a = int(self._extend(len(self._quotients) + 1))
            if a < 1:
                raise InvalidArgument("extender produced a quotient < 1")
            self._quotients.append(a)
        return self._quotients[k - 1]

    def convergent(self, k: int) -> tuple:
        """(p_k, q_k) with p_0/q_0 = 0/1 and the usual recurrence."""
        if k < -1:
            raise InvalidArgument("convergent index starts at -1")
        while len(self._p) < k + 2:
            i = len(self._p) - 1  # about to produce convergent index i
            a = self.quotient(i)
            self._p.append(a * self._p[-1] + self._p[-2])
            self._q.append(a * self._q[-1] + self._q[-2])
        return self._p[k + 1], self._q[k + 1]

    def value(self) -> Fraction:
        if not self.is_rational:
            raise InvalidArgument("irrational continued fraction has no exact value")
        p, q = self.convergent(len(self._quotients))
        return Fraction(p, q)

    def value_bounds(self, k: int) -> tuple:
        """Fractions (lo, hi) with lo < alpha < hi (strict for irrationals)."""
        if self.is_rational and k + 1 > len(self._quotients):
            v = self.value()
            return v, v
        p1, q1 = self.convergent(k)
        p2, q2 = self.convergent(k + 1)
        f1, f2 = Fraction(p1, q1), Fraction(p2, q2)
        return (f1, f2) if f1 < f2 else (f2, f1)

    def value_float(self) -> float:
        if self.is_rational:
            return float(self.value())
        k = 2
        while True:
            (p1, q1), (p2, q2) = self.convergent(k), self.convergent(k + 1)
            # int / int rounds correctly, as float(Fraction) does
            if p1 / q1 == p2 / q2:
                return p1 / q1
            k += 1

    # -- exact floors and Beatty symbols ------------------------------------

    def floor_multiple(self, j: int) -> int:
        """floor(j * alpha), exact for any integer j."""
        j = int(j)
        if j == 0:
            return 0
        if self.is_rational:
            p, q = self.convergent(len(self._quotients))
            return (j * p) // q
        k = self._floor_hint
        while True:
            (plo, qlo), (phi, qhi) = self._bounds_pq(k)
            flo = (j * plo) // qlo
            fhi = (j * phi) // qhi
            if flo == fhi:
                self._floor_hint = k
                return flo
            k += 1

    def floor_multiples(self, js) -> np.ndarray:
        """floor(j * alpha) for every entry of an int64 array, exact (1-D).

        The vector form of floor_multiple. No fraction with a denominator
        below q_k + q_{k+1} lies strictly between the convergents k and
        k + 1, so once q_k + q_{k+1} > |j| the floors of j times both ends of
        that bracket agree, unless an end is itself m / j. Each entry starts
        at the first such level, or at the deepest level whose products
        |j| * max(p, q) fit in int64 if that is shallower, and goes one
        level deeper only while its two floors disagree; an end m / j
        clears within two levels. An entry whose products could overflow
        int64 at its level is handed to floor_multiple (Python ints).
        """
        js = np.asarray(js, dtype=np.int64).reshape(-1)
        out = np.zeros(js.shape, dtype=np.int64)
        todo = np.flatnonzero(js)
        mag = np.abs(js[todo]).view(np.uint64)  # |INT64_MIN| wraps to 2**63, as it should
        ends, lims, reach = self._floor_levels(int(mag.max(initial=0)))
        deepest = lims.size - 1 - np.searchsorted(lims[::-1], mag)  # lims fall with k
        level = np.minimum(np.searchsorted(reach, mag, side="right"), deepest)
        while todo.size:
            fits = (level >= 0) & (level <= deepest)
            for i in todo[~fits].tolist():
                out[i] = self.floor_multiple(int(js[i]))
            todo, level, deepest = todo[fits], level[fits], deepest[fits]
            if not todo.size:
                break
            j, (plo, qlo, phi, qhi) = js[todo], (e[level] for e in ends)
            flo = (j * plo) // qlo
            fhi = (j * phi) // qhi
            same = flo == fhi
            out[todo[same]] = flo[same]
            todo, level, deepest = todo[~same], level[~same] + 1, deepest[~same]
        return out

    def _floor_levels(self, top: int) -> tuple:
        """floor_multiples' table for entries up to |j| = top.

        Per level k = 1, 2, ...: both bracket ends (p, q, p', q') as int64
        rows, the largest |j| whose products fit, and q + q', through two
        levels past the first with q + q' > top. A rational alpha has one
        level, its exact value; the table stops early where no product fits.
        It is kept on the instance and extended only when a larger top needs
        deeper levels.
        """
        ends, lims, reach = self._levels
        while not self._levels_complete and sum(r > top for r in reach[-3:]) < 3:
            if self.is_rational:
                (plo, qlo) = (phi, qhi) = self.convergent(len(self._quotients))
                self._levels_complete = True
            else:
                (plo, qlo), (phi, qhi) = self._bounds_pq(len(ends) + 1)
            lim = _INT64_MAX // max(plo, qlo, phi, qhi)
            if not lim:  # deeper levels have larger ends
                self._levels_complete = True
                break
            ends.append((plo, qlo, phi, qhi))
            lims.append(lim)
            reach.append(qlo + qhi)
            self._level_arrays = None
        if self._level_arrays is None:
            self._level_arrays = (
                np.array(ends, dtype=np.int64).reshape(-1, 4).T,  # one row per end
                np.array(lims, dtype=np.uint64),
                np.array(reach, dtype=np.uint64),
            )
        return self._level_arrays

    def _bounds_pq(self, k: int) -> tuple:
        p1, q1 = self.convergent(k)
        p2, q2 = self.convergent(k + 1)
        if p1 * q2 < p2 * q1:
            return (p1, q1), (p2, q2)
        return (p2, q2), (p1, q1)

    def beatty_word(self, start: int, count: int) -> list:
        """Symbols b_start .. b_{start+count-1}, differences of exact floors."""
        if count < 0:
            raise InvalidArgument("count must be >= 0")
        floors = self.floor_multiples(np.arange(start, start + count + 1, dtype=np.int64))
        return np.diff(floors).tolist()

    # -- constructors --------------------------------------------------------

    @staticmethod
    def golden() -> "ContinuedFraction":
        """alpha = (sqrt(5) - 1) / 2 = [0; 1, 1, 1, ...]."""
        return ContinuedFraction([1], extend=lambda k: 1)

    @staticmethod
    def from_fraction(value: Fraction) -> "ContinuedFraction":
        value = Fraction(value)
        if not (0 < value <= 1):
            raise InvalidArgument("alpha must lie in (0, 1]")
        qs = []
        num, den = value.denominator, value.numerator  # expand 1/value
        while den:
            qs.append(num // den)
            num, den = den, num % den
        return ContinuedFraction(qs)

    @staticmethod
    def from_decimal(text) -> "ContinuedFraction":
        """Decimal input, truncated to a rational with denominator <= 1e12."""
        frac = Fraction(str(text)).limit_denominator(10**12)
        return ContinuedFraction.from_fraction(frac)

    @staticmethod
    def parse(spec) -> "ContinuedFraction":
        """Accepts 'golden', 'cf:a1,a2,...', a decimal string, or a number."""
        if isinstance(spec, ContinuedFraction):
            return spec
        if isinstance(spec, Fraction):
            return ContinuedFraction.from_fraction(spec)
        if isinstance(spec, str):
            s = spec.strip()
            if s == "golden":
                return ContinuedFraction.golden()
            if s.startswith("cf:"):
                parts = [t for t in s[3:].split(",") if t.strip()]
                if not parts:
                    raise InvalidArgument("cf: spec needs at least one quotient")
                return ContinuedFraction([int(t) for t in parts])
            return ContinuedFraction.from_decimal(s)
        if isinstance(spec, (int, float)):
            return ContinuedFraction.from_decimal(spec)
        raise InvalidArgument(f"cannot interpret alpha spec {spec!r}")


# ---------------------------------------------------------------------------
# Word-level recurrence via the quotient formula


def recurrence_formula(cf: ContinuedFraction, length: int) -> int:
    """Recurrence value for sliding blocks of the given length.

    Uses the largest k with q_k <= length < q_{k+1} and returns q_k + q_{k+1}.
    Needs an irrational alpha; a finite quotient list raises needs-more-terms
    because the bracket search would exhaust it.
    """
    if length < 1:
        raise InvalidArgument("block length must be >= 1")
    if cf.is_rational:
        raise NeedsMoreTerms(
            "finite continued fraction: the recurrence formula needs an "
            "irrational alpha, supply more quotients or an extender"
        )
    k = 0
    while True:
        _, q_next = cf.convergent(k + 1)
        if q_next > length:
            break
        k += 1
    _, q_k = cf.convergent(k)
    _, q_k1 = cf.convergent(k + 1)
    return q_k + q_k1


@dataclass
class BoundedQuotientReport:
    examined_terms: int
    max_quotient: int
    bounded: bool
    caveat: str


def is_badly_approximable(cf: ContinuedFraction, terms: int, bound: Optional[int] = None) -> BoundedQuotientReport:
    """Proxy check: are the first `terms` partial quotients bounded?

    A finite prefix can never certify the full property, so the report says
    so. With an explicit bound the verdict is max quotient <= bound.
    """
    if terms < 1:
        raise InvalidArgument("need at least one term")
    mx = 0
    for k in range(1, terms + 1):
        try:
            mx = max(mx, cf.quotient(k))
        except NeedsMoreTerms:
            terms = k - 1
            break
    verdict = True if bound is None else mx <= bound
    return BoundedQuotientReport(
        examined_terms=terms,
        max_quotient=mx,
        bounded=verdict,
        caveat=f"verdict covers only the first {terms} partial quotients",
    )


@dataclass
class GrowthConstruction:
    cf: ContinuedFraction
    quotients: list
    table: list  # rows (k, q_k, q_k + q_{k+1}, g(q_k))


def construct_alpha_for_growth(g: Callable[[int], float], terms: int) -> GrowthConstruction:
    """Build alpha whose word recurrence beats g along the denominators q_k.

    Picks a_{k+1} = max(1, ceil(g(q_k))), which forces
    q_k + q_{k+1} > g(q_k) at every step. Denominators can explode for fast
    g; GROWTH_MAX_BITS caps their bit length and raises resource-limit beyond
    it.
    """
    if terms < 1:
        raise InvalidArgument("need at least one term")
    quotients = []
    p_prev, q_prev = 1, 0  # k = -1
    p_cur, q_cur = 0, 1  # k = 0
    for _ in range(terms):
        try:
            val = g(q_cur)
        except OverflowError as exc:
            raise ResourceLimit(
                f"growth target overflows a float at denominator bit length "
                f"{q_cur.bit_length()}"
            ) from exc
        if isinstance(val, float) and not math.isfinite(val):
            raise ResourceLimit("growth target overflowed to a non-finite value")
        a = max(1, int(math.ceil(val)))
        quotients.append(a)
        p_cur, p_prev = a * p_cur + p_prev, p_cur
        q_cur, q_prev = a * q_cur + q_prev, q_cur
        if q_cur.bit_length() > GROWTH_MAX_BITS:
            raise ResourceLimit(
                f"denominator exceeded {GROWTH_MAX_BITS} bits after {len(quotients)} terms"
            )
    cf = ContinuedFraction(quotients)
    table = []
    for k in range(len(quotients)):
        _, qk = cf.convergent(k)
        _, qk1 = cf.convergent(k + 1)
        target = g(qk)
        if qk + qk1 <= target:
            raise AssertionError("construction failed to beat the growth target")
        table.append((k, qk, qk + qk1, target))
    return GrowthConstruction(cf=cf, quotients=quotients, table=table)
