"""Exact scalar and polynomial arithmetic.

Everything downstream (Chern data, cohomology presentations, the octonion
constructions) runs on the types in this module.  All arithmetic is exact and
never touches floating point.  A rational polynomial coefficient is stored as
an ``int`` where it is integral and as a ``fractions.Fraction`` otherwise,
never as a float; almost every coefficient met in practice is an integer, and
int arithmetic is several times cheaper than Fraction arithmetic.  Gaussian
rationals are pairs of rationals in the same normal form.

Two polynomial types:

* ``UniPoly`` -- dense univariate polynomials in one variable ``t``.  The
  coefficients are duck-typed: plain rationals for numeric work, but also
  ``GaussRat`` or ``GradedPoly`` values (a Chern polynomial whose
  coefficients live in a graded cohomology ring is a ``UniPoly`` with
  ``GradedPoly`` coefficients).
* ``GradedPoly`` -- sparse multivariate polynomials over Q with a weighted
  degree per generator, used for cohomology ring presentations.

Division is the one place where ints need care: ``int / int`` is a float in
Python, so every division of coefficients goes through ``_div``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import Frozen


Scalar = Union[int, Fraction]


def _as_rational(value) -> Scalar:
    """An exact rational in normal form: int where integral, else Fraction."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _normal(c):
    """Turn an integral Fraction into an int; leave everything else alone."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _div(a, b):
    """Exact a / b: an int quotient of ints stays an int, never a float."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


class GaussRat(Frozen):
    """A Gaussian rational a + b*i with exact rational parts, each in normal
    form (int where integral, else Fraction)."""

    def __init__(self, re=0, im=0):
        self._store(re=_as_rational(re), im=_as_rational(im))

    @staticmethod
    def of(value) -> "GaussRat":
        if isinstance(value, GaussRat):
            return value
        return GaussRat(value)

    def conj(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other):
        other = GaussRat.of(other)
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussRat.of(other))

    def __mul__(self, other):
        other = GaussRat.of(other)
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussRat.of(other)
        denom = other.re * other.re + other.im * other.im
        if denom == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        num = self * other.conj()
        return GaussRat(_div(num.re, denom), _div(num.im, denom))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussRat):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def _coerce_coeff(c):
    if isinstance(c, (int, Fraction)):
        return _as_rational(c)
    if isinstance(c, float):
        raise TypeError("polynomial coefficients must be exact, got a float")
    return c


class UniPoly:
    """Dense univariate polynomial in t, ascending coefficient order.

    >>> p = UniPoly([1, 2, 2, 1])
    >>> print(p)
    1 + 2t + 2t^2 + t^3
    >>> p.degree
    3
    >>> UniPoly([0]).degree is None
    True
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_coerce_coeff(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def t(power: int = 1) -> "UniPoly":
        return UniPoly([0] * power + [1])

    @property
    def degree(self) -> Optional[int]:
        """Degree, or None for the zero polynomial (deliberately not -1)."""
        if not self.coeffs:
            return None
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int):
        if k < 0 or k >= len(self.coeffs):
            return 0
        return self.coeffs[k]

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == UniPoly([other])
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly([other])
        longer, shorter = self.coeffs, other.coeffs
        if len(longer) < len(shorter):
            longer, shorter = shorter, longer
        out = list(longer)
        for k, c in enumerate(shorter):
            out[k] = out[k] + c
        return UniPoly(out)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            return UniPoly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UniPoly()
        gens = _graded_table(self.coeffs, other.coeffs)
        if gens is not None:
            return self._graded_product(other, gens)
        # None marks a slot no product has reached yet, so the first product
        # lands as is instead of being added to a rational zero
        out = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                prev = out[i + j]
                out[i + j] = a * b if prev is None else prev + a * b
        return UniPoly([0 if c is None else c for c in out])

    def _graded_product(self, other: "UniPoly", gens: tuple) -> "UniPoly":
        """The product when every nonzero coefficient is a GradedPoly over
        `gens`: every term product that lands in a slot is added into that
        slot's one dict, normalized once.  A slot that no product reaches is
        an int 0, as in the general loop."""
        out = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
        right = [(j, b.terms.items()) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b_terms in right:
                out[i + j] = _add_products(out[i + j] or {}, a.terms.items(), b_terms)
        return UniPoly([0 if acc is None else GradedPoly._make(gens, _cleaned(acc)) for acc in out])

    def substitute_neg(self) -> "UniPoly":
        """Return p(-t): flip the sign of every odd-degree coefficient."""
        return UniPoly([-c if k % 2 else c for k, c in enumerate(self.coeffs)])

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(("+", str(c)))
                continue
            var = "t" if k == 1 else f"t^{k}"
            negative = isinstance(c, (int, Fraction)) and c < 0
            mag = -c if negative else c
            body = var if mag == 1 else f"{mag}{var}"
            parts.append(("-" if negative else "+", body))
        sign0, body0 = parts[0]
        text = body0 if sign0 == "+" else f"-{body0}"
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"


def _graded_table(*coeff_lists) -> Optional[tuple]:
    """The generator table shared by every nonzero coefficient, when all of
    them are GradedPoly over one table; else None."""
    gens = None
    for coeffs in coeff_lists:
        for c in coeffs:
            if not c:
                continue
            if type(c) is not GradedPoly:
                return None
            if gens is None:
                gens = c.gens
            elif c.gens is not gens and c.gens != gens:
                return None
    return gens


def coeff_plus(p: UniPoly) -> dict:
    """All nonzero coefficients of strictly positive degree, as {degree: value}."""
    return {k: c for k, c in enumerate(p.coeffs) if k > 0 and c != 0}


def exact_div(p: UniPoly, q: UniPoly) -> Optional[UniPoly]:
    """Return r with p = q*r when the division is exact, else None.

    >>> exact_div(UniPoly([1, 0, 0, 0, 0, 0, -1]), UniPoly([1, 1])) is None
    False
    >>> exact_div(UniPoly([1, 1, 1]), UniPoly([1, 1])) is None
    True
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return UniPoly()
    dp, dq = p.degree, q.degree
    if dp < dq:
        return None
    lead = q.coeffs[-1]
    rem = list(p.coeffs)
    quot = [0] * (dp - dq + 1)
    for k in range(dp - dq, -1, -1):
        c = rem[k + dq]
        if c == 0:
            continue
        factor = _div(c, lead)
        quot[k] = factor
        for j, b in enumerate(q.coeffs):
            rem[k + j] = rem[k + j] - factor * b
    if any(c != 0 for c in rem):
        return None
    return UniPoly(quot)


class GradedPoly:
    """Sparse polynomial over Q in named generators with assigned degrees.

    Terms are stored as {exponent tuple: coefficient}, with no zero
    coefficients; a coefficient is an int where integral and a Fraction
    otherwise, never a float.  The generator table is a tuple of (name,
    weighted degree) pairs shared by every polynomial in one ring; arithmetic
    between polynomials with different tables is an error.
    """

    __slots__ = ("gens", "terms")

    def __init__(self, gens: Sequence, terms: Optional[Mapping] = None):
        self.gens = tuple((str(n), int(d)) for n, d in gens)
        cleaned = {}
        if terms:
            width = len(self.gens)
            for expo, c in terms.items():
                c = _as_rational(c)
                if c == 0:
                    continue
                expo = tuple(int(e) for e in expo)
                if len(expo) != width or any(e < 0 for e in expo):
                    raise ValueError(f"bad exponent vector {expo!r}")
                cleaned[expo] = cleaned.get(expo, 0) + c
        self.terms = _cleaned(cleaned)

    @classmethod
    def _make(cls, gens: tuple, terms: dict) -> "GradedPoly":
        """Wrap terms already in normal form over an already-normalised table."""
        out = object.__new__(cls)
        out.gens = gens
        out.terms = terms
        return out

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(gens) -> "GradedPoly":
        return GradedPoly(gens)

    @staticmethod
    def const(gens, c) -> "GradedPoly":
        g = GradedPoly(gens)
        c = _as_rational(c)
        if c != 0:
            g.terms[(0,) * len(g.gens)] = c
        return g

    @staticmethod
    def generator(gens, name: str) -> "GradedPoly":
        g = GradedPoly(gens)
        idx = g.gen_index(name)
        expo = [0] * len(g.gens)
        expo[idx] = 1
        g.terms[tuple(expo)] = 1
        return g

    def gen_index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.gens):
            if n == name:
                return i
        raise KeyError(f"no generator named {name!r}")

    # -- ring structure ------------------------------------------------

    def _check_ring(self, other: "GradedPoly"):
        if self.gens is not other.gens and self.gens != other.gens:
            raise ValueError("polynomials live in different graded rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedPoly.const(self.gens, other)
        self._check_ring(other)
        terms = dict(self.terms)
        for expo, c in other.terms.items():
            s = terms.get(expo, 0) + c
            if s:
                terms[expo] = _normal(s)
            else:
                del terms[expo]
        return GradedPoly._make(self.gens, terms)

    __radd__ = __add__

    def __neg__(self):
        return GradedPoly._make(self.gens, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedPoly.const(self.gens, other)
        return self + (-other)

    def __rsub__(self, other):
        return GradedPoly.const(self.gens, other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_rational(other)
            if not c:
                return GradedPoly._make(self.gens, {})
            return GradedPoly._make(
                self.gens, {e: _normal(v * c) for e, v in self.terms.items()}
            )
        self._check_ring(other)
        acc = _add_products({}, self.terms.items(), other.terms.items())
        return GradedPoly._make(self.gens, _cleaned(acc))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return GradedPoly.const(self.gens, 1) if result is None else result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self.terms
            other = GradedPoly.const(self.gens, other)
        if isinstance(other, GradedPoly):
            return self.gens == other.gens and self.terms == other.terms
        return NotImplemented

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return not self.is_zero()

    # -- graded structure ----------------------------------------------

    def homogeneous_degree(self) -> Optional[int]:
        """The common weighted degree of all terms, or None if mixed/zero."""
        weights = [d for _, d in self.gens]
        degrees = {sum(map(mul, e, weights)) for e in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def coefficient(self, powers: Mapping[str, int]) -> Scalar:
        """Coefficient of the monomial prod(gen^power); unnamed powers are 0."""
        expo = [0] * len(self.gens)
        for name, p in powers.items():
            expo[self.gen_index(name)] = int(p)
        return self.terms.get(tuple(expo), 0)

    def substitute(self, name: str, value: "GradedPoly") -> "GradedPoly":
        """Replace a generator by a polynomial of the same ring.

        Each power of ``value`` is built once, from the one below it, and
        every term's expansion is added into a single accumulator.
        """
        self._check_ring(value)
        idx = self.gen_index(name)
        powers = [GradedPoly.const(self.gens, 1), value]
        acc = {}
        for expo, c in self.terms.items():
            k = expo[idx]
            while len(powers) <= k:
                powers.append(powers[-1] * value)
            rest = expo[:idx] + (0,) + expo[idx + 1:]
            _add_products(acc, ((rest, c),), powers[k].terms.items())
        return GradedPoly._make(self.gens, _cleaned(acc))

    def monomial_strings(self):
        for expo, c in sorted(self.terms.items()):
            yield _monomial_str(self.gens, expo), c

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono, c in self.monomial_strings():
            if mono == "1":
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c}*{mono}")
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self):
        return f"GradedPoly({self.gens!r}, {self.terms!r})"

    def to_json(self) -> dict:
        return {mono: str(c) for mono, c in self.monomial_strings()}


def _add_products(acc: dict, left, right) -> dict:
    """Add the product of every term of `left` with every term of `right`
    into acc, and return acc.  Both are sequences of (exponent tuple,
    coefficient) pairs over one exponent width; the zeros a sum leaves are
    kept, for the caller to drop once."""
    get = acc.get
    for e1, c1 in left:
        for e2, c2 in right:
            expo = tuple(map(add, e1, e2))
            acc[expo] = get(expo, 0) + c1 * c2
    return acc


def _cleaned(acc: dict) -> dict:
    """Accumulated terms with the zeros dropped and integral Fractions as ints."""
    return {e: _normal(c) for e, c in acc.items() if c}


def _monomial_str(gens, expo) -> str:
    bits = []
    for (name, _), e in zip(gens, expo):
        if e == 1:
            bits.append(name)
        elif e > 1:
            bits.append(f"{name}^{e}")
    return "*".join(bits) if bits else "1"
