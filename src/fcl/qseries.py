"""Exact Laurent polynomials and truncated power series over Z, and
``Combination``, the one type of finite combination of basis keys with
Laurent polynomial coefficients (Fock and Specht vectors subclass it).

Exponents live on a rational lattice: each value stores integer numerators
together with a positive denominator ``den``, so ``q**(k/den)`` powers are
exact.  Mixed arithmetic promotes to the lcm lattice.  Coefficients are
Python ints, hence arbitrary precision.  All values are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import ConventionError, ExactDivisionError

__all__ = [
    "LaurentPoly",
    "Combination",
    "SparseMatrix",
    "TruncatedSeries",
    "q_int",
    "gauss_balanced",
    "qbinom_lower",
    "q_product",
    "inv_phi",
]


def _as_exp(e) -> Fraction:
    if isinstance(e, Fraction):
        return e
    if isinstance(e, int):
        return Fraction(e)
    if isinstance(e, tuple):
        return Fraction(e[0], e[1])
    raise TypeError(f"bad exponent {e!r}")


class LaurentPoly:
    """Integer-coefficient Laurent polynomial with rational exponents.

    ``terms`` maps exponent numerators to nonzero coefficients; the actual
    exponent of a term is ``num / den``.  The pair is kept canonical: no zero
    coefficients, and ``den`` minimal (gcd-reduced).
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms: dict[int, int] | None = None, den: int = 1):
        if den <= 0:
            raise ValueError("denominator must be positive")
        terms = {n: c for n, c in (terms or {}).items() if c != 0}
        if terms:
            g = den
            for n in terms:
                g = gcd(g, n)
                if g == 1:
                    break
            if g > 1:
                terms = {n // g: c for n, c in terms.items()}
                den //= g
        else:
            den = 1
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return _ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _ONE

    @staticmethod
    def const(c: int) -> "LaurentPoly":
        return LaurentPoly({0: c})

    @staticmethod
    def q_power(e, coeff: int = 1) -> "LaurentPoly":
        e = _as_exp(e)
        return LaurentPoly({e.numerator: coeff}, e.denominator)

    @staticmethod
    def _from_canonical(terms: dict[int, int]) -> "LaurentPoly":
        """Wrap integer-exponent terms as they are, without checking them.

        The caller guarantees that no coefficient is zero, which makes the
        pair (terms, den=1) canonical; ``terms`` is kept, not copied.
        """
        p = object.__new__(LaurentPoly)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "den", 1)
        return p

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, e) -> int:
        e = _as_exp(e) * self.den
        if e.denominator != 1:
            return 0
        return self.terms.get(e.numerator, 0)

    def min_exp(self) -> Fraction:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return Fraction(min(self.terms), self.den)

    def is_bar_invariant(self) -> bool:
        return all(self.terms.get(-n, 0) == c for n, c in self.terms.items())

    # -- arithmetic --------------------------------------------------------

    def _promoted(self, other: "LaurentPoly") -> tuple[dict, dict, int]:
        d = lcm(self.den, other.den)
        f1, f2 = d // self.den, d // other.den
        t1 = self.terms if f1 == 1 else {n * f1: c for n, c in self.terms.items()}
        t2 = other.terms if f2 == 1 else {n * f2: c for n, c in other.terms.items()}
        return t1, t2, d

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        t1, t2, d = self._promoted(other)
        out = dict(t1)
        for n, c in t2.items():
            out[n] = out.get(n, 0) + c
        return LaurentPoly(out, d)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        t1, t2, d = self._promoted(other)
        out = dict(t1)
        for n, c in t2.items():
            out[n] = out.get(n, 0) - c
        return LaurentPoly(out, d)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({n: -c for n, c in self.terms.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({n: c * other for n, c in self.terms.items()}, self.den)
        t1, t2, d = self._promoted(other)
        out: dict[int, int] = {}
        for n1, c1 in t1.items():
            for n2, c2 in t2.items():
                k = n1 + n2
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPoly(out, d)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative powers not supported")
        out = _ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shifted(self, e) -> "LaurentPoly":
        """Multiply by q**e."""
        e = _as_exp(e)
        d = lcm(self.den, e.denominator)
        f = d // self.den
        s = e.numerator * (d // e.denominator)
        return LaurentPoly({n * f + s: c for n, c in self.terms.items()}, d)

    def bar(self) -> "LaurentPoly":
        """The involution q -> q**-1."""
        return LaurentPoly({-n: c for n, c in self.terms.items()}, self.den)

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Divide, raising ExactDivisionError unless the division is exact."""
        if other.is_zero():
            raise ExactDivisionError("division by zero polynomial")
        if self.is_zero():
            return _ZERO
        t1, t2, d = self._promoted(other)
        rem = dict(t1)
        dn = max(t2)
        dc = t2[dn]
        # exponents of an exact quotient lie in [min1 - min2, max1 - dn]
        qmin = min(t1) - min(t2)
        quot: dict[int, int] = {}
        while rem:
            rn = max(rem)
            rc = rem[rn]
            qn = rn - dn
            if rc % dc != 0 or qn < qmin:
                raise ExactDivisionError("polynomial division left a remainder")
            qc = rc // dc
            quot[qn] = qc
            for n2, c2 in t2.items():
                k = n2 + qn
                v = rem.get(k, 0) - c2 * qc
                if v:
                    rem[k] = v
                else:
                    rem.pop(k, None)
        return LaurentPoly(quot, d)

    def eval_one(self) -> int:
        return sum(self.terms.values())

    # -- comparisons and rendering ----------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash((self.den, tuple(sorted(self.terms.items()))))

    def to_text(self, var: str = "q") -> str:
        """Canonical text: terms in ascending exponent order.

        Examples: ``1 + q^2``, ``q^-1 + q``, ``q^1/2``, ``-v^2``.
        """
        if not self.terms:
            return "0"
        den = self.den
        parts = []
        for n in sorted(self.terms):
            c = self.terms[n]
            if n == 0:
                body = str(abs(c))
            else:
                g = gcd(n, den)  # the exponent n/den in lowest terms is (n/g)/(den/g)
                if n == den:
                    p = var
                elif g == den:
                    p = f"{var}^{n // g}"
                else:
                    p = f"{var}^{n // g}/{den // g}"
                body = p if abs(c) == 1 else f"{abs(c)}*{p}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self.to_text()!r})"


_ZERO = LaurentPoly({})
_ONE = LaurentPoly({0: 1})
_MINUS_ONE = LaurentPoly({0: -1})


def _lattice(u: "Combination") -> int:
    """The common exponent denominator of u's coefficients."""
    den = 1
    for c in u.terms.values():
        if c.den != den:
            den = lcm(den, c.den)
    return den


def _add_shifted(t: dict[int, int], c: LaurentPoly, s: int, den: int = 1, f: int = 1) -> None:
    """Add f * q**(s/den) * c into the numerators ``t`` of the lattice ``den``."""
    g = den // c.den
    for k, v in c.terms.items():
        k = k * g + s
        t[k] = t.get(k, 0) + f * v


def _built(acc: dict, den: int = 1) -> dict:
    """{key: {numerator: coefficient}} on the lattice ``den`` as {key: LaurentPoly}.

    Each coefficient is built once; keys whose contributions all cancel are
    dropped.
    """
    out = {}
    for key, t in acc.items():
        if 0 in t.values():  # contributions cancelled
            t = {k: v for k, v in t.items() if v}
        if t:
            out[key] = LaurentPoly._from_canonical(t) if den == 1 else LaurentPoly(t, den)
    return out


_DIGIT, _UNPACKED = 64, {}


def _unpack(x: int) -> LaurentPoly:
    """The polynomial sum c_e v^e, e >= 0, packed as x = sum c_e 2^(_DIGIT e) (Kronecker
    substitution), read off x's balanced digits: exact while every |c_e| < 2^(_DIGIT - 1).
    A run of zero digits is skipped in one shift, found from the lowest set bit.
    One LaurentPoly per distinct x, shared by every caller."""
    p = _UNPACKED.get(x)
    if p is None:
        terms, e, rest, half = {}, 0, x, 1 << (_DIGIT - 1)
        while rest:
            skip = ((rest & -rest).bit_length() - 1) // _DIGIT
            rest, e = rest >> _DIGIT * skip, e + skip
            c = terms[e] = ((rest + half) & (2 * half - 1)) - half
            rest, e = (rest - c) >> _DIGIT, e + 1
        p = _UNPACKED[x] = LaurentPoly._from_canonical(terms)
    return p


def _checked(bound: int, what) -> None:
    """Refuse a bound on packed coefficients' L1 norms at which a digit could wrap;
    ``what()`` names the coefficients, and is called only to say so."""
    if bound >> (_DIGIT - 1):
        raise ConventionError(f"{what()} could pass 2^{_DIGIT - 1}")


def _pack(terms: dict[int, int], off: int) -> int:
    """sum c_e v^e packed as sum c_e 2^(_DIGIT (e + off)), every e >= -off: the lift off makes
    each negative exponent a left shift, and off = 0 is the inverse of _unpack."""
    return sum(c << _DIGIT * (e + off) for e, c in terms.items())


class SparseMatrix:
    """A matrix of LaurentPoly entries with labelled rows and columns, kept by its nonzeros:
    ``columns[j]`` is column j as {row index: entry}.  As a sequence it is its rows, each
    built on demand as a list whose blank cells are the one zero ``_ZERO``: ``len`` counts
    them, ``m[r][c]`` is one entry, and iterating (through ``__getitem__``) yields them."""

    __slots__ = ("rows", "cols", "columns", "_row", "_col")  # _row, _col: index of each label

    def __init__(self, rows, cols, columns):  # each column as {row label: entry}
        where = {key: r for r, key in enumerate(rows)}
        self.rows, self.cols, self._row = rows, cols, where
        self._col = {key: j for j, key in enumerate(cols)}
        self.columns = [{where[key]: c for key, c in col.items() if c.terms} for col in columns]

    def entry(self, row, col) -> LaurentPoly:  # by the labels of its row and column
        return self.columns[self._col[col]].get(self._row[row], _ZERO)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, r: int) -> list[LaurentPoly]:
        r = range(len(self.rows))[r]  # an IndexError past the last row ends an iteration
        return [col.get(r, _ZERO) for col in self.columns]


class Combination:
    """A finite combination of basis keys with nonzero LaurentPoly coefficients.

    ``label`` names the space the combination lives in; arithmetic on two
    combinations with different labels is a ValueError.  Subclasses give the
    printing order of the keys (``_ordered``), the text of one key
    (``_key_text``) and the variable name (``_var``).
    """

    __slots__ = ("label", "terms")
    _var = "q"

    def __init__(self, label, terms: dict | None = None):
        object.__setattr__(self, "label", label)
        object.__setattr__(
            self, "terms", {k: v for k, v in (terms or {}).items() if not v.is_zero()}
        )

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _of(cls, label, terms: dict):
        """Wrap ``terms`` as they are; the caller guarantees no zero coefficient."""
        v = object.__new__(cls)
        object.__setattr__(v, "label", label)
        object.__setattr__(v, "terms", terms)
        return v

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, key) -> LaurentPoly:
        return self.terms.get(tuple(key), _ZERO)

    def scaled(self, c: LaurentPoly):
        return type(self)(self.label, {k: v * c for k, v in self.terms.items()})

    def minus_scaled(self, other: "Combination", c: LaurentPoly):
        """self - c * other, in one pass.

        Each coefficient that other touches is summed as exponent numerators
        on the common lattice and built once; the rest are kept as they are.
        """
        if self.label != other.label:
            raise ValueError(f"mixed labels {self.label!r} and {other.label!r}")
        den = lcm(_lattice(self), _lattice(other), c.den)
        minus_c = [(k * (den // c.den), -v) for k, v in c.terms.items()]
        acc: dict = {}
        for key, b in other.terms.items():
            t = acc[key] = {}
            a = self.terms.get(key)
            if a is not None:
                _add_shifted(t, a, 0, den)
            for s, f in minus_c:
                _add_shifted(t, b, s, den, f)
        built = _built(acc, den)
        out = dict(self.terms)
        out.update(built)
        for key in acc.keys() - built.keys():
            out.pop(key, None)
        return self._of(self.label, out)

    def __add__(self, other: "Combination"):
        return self.minus_scaled(other, _MINUS_ONE)

    def __sub__(self, other: "Combination"):
        return self.minus_scaled(other, _ONE)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.label == other.label and self.terms == other.terms

    def __hash__(self):
        return hash((self.label, tuple(sorted(self.terms.items()))))

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for key in self._ordered():
            c = self.terms[key].to_text(self._var)
            if " " in c or c.startswith("-"):  # more than one term, or a sign
                c = f"({c})"
            chunks.append(f"{c} * {self._key_text(key)}")
        return " + ".join(chunks)

    def __repr__(self):
        return f"{type(self).__name__}({self.to_text()!r})"


@lru_cache(maxsize=None)
def q_int(k: int) -> LaurentPoly:
    """Balanced q-integer: q^(k-1) + q^(k-3) + ... + q^(1-k), for k >= 0."""
    if k < 0:
        raise ValueError("q_int requires k >= 0")
    return LaurentPoly({e: 1 for e in range(-(k - 1), k, 2)})


@lru_cache(maxsize=None)
def gauss_balanced(m: int, k: int) -> LaurentPoly:
    """Balanced (bar-invariant) q-binomial; 0 outside 0 <= k <= m."""
    low = qbinom_lower(m, k)
    return LaurentPoly._from_canonical({2 * e - k * (m - k): c for e, c in low.terms.items()})


@lru_cache(maxsize=None)
def qbinom_lower(m: int, k: int) -> LaurentPoly:
    """Gaussian binomial in nonnegative powers; 0 outside 0 <= k <= m.

    The product over i = 1..k of (1 - q^(m-k+i)) / (1 - q^i), a polynomial
    of degree k(m-k).
    """
    if k < 0 or m < 0 or k > m:
        return _ZERO
    k = min(k, m - k)
    return q_product(range(m - k + 1, m + 1), range(1, k + 1), k * (m - k)).poly


class TruncatedSeries:
    """Power series known exactly up to a rational order bound.

    A LaurentPoly ``poly`` with no term above ``order``.  Operations never
    report coefficients beyond ``order``: a sum or product of two series is
    cut at the smaller order, a series times a LaurentPoly keeps its own.
    """

    __slots__ = ("poly", "order")

    def __init__(self, terms: dict[int, int], den: int, order):
        order = _as_exp(order)
        cut = order * den
        poly = LaurentPoly({n: c for n, c in terms.items() if n <= cut}, den)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "order", order)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("TruncatedSeries is immutable")

    @staticmethod
    def from_poly(p: LaurentPoly, order) -> "TruncatedSeries":
        return TruncatedSeries(p.terms, p.den, order)

    def to_poly(self) -> LaurentPoly:
        return self.poly

    @property
    def terms(self) -> dict[int, int]:
        return self.poly.terms

    @property
    def den(self) -> int:
        return self.poly.den

    def coeff(self, e) -> int:
        e = _as_exp(e)
        if e > self.order:
            raise ValueError(f"coefficient of q^{e} is beyond order {self.order}")
        return self.poly.coeff(e)

    def coeffs_upto(self, d: int) -> list[int]:
        """Integer-exponent coefficients [q^0] .. [q^d]."""
        return [self.coeff(k) for k in range(d + 1)]

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries.from_poly(self.poly + other.poly, min(self.order, other.order))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries.from_poly(self.poly - other.poly, min(self.order, other.order))

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return TruncatedSeries.from_poly(
                self.poly * other.poly, min(self.order, other.order)
            )
        # an int or a LaurentPoly is exact, so only self's order limits the product
        return TruncatedSeries.from_poly(self.poly * other, self.order)

    __rmul__ = __mul__

    def shifted(self, e) -> "TruncatedSeries":
        return TruncatedSeries.from_poly(self.poly.shifted(e), self.order + _as_exp(e))

    def truncate(self, order) -> "TruncatedSeries":
        order = _as_exp(order)
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries.from_poly(self.poly, order)

    def min_exp(self) -> Fraction:
        return self.poly.min_exp()

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.poly == other.poly

    def __hash__(self):
        return hash((self.order, self.poly))

    def to_text(self, var: str = "q") -> str:
        return f"{self.poly.to_text(var)} + O({var}^{self.order + 1})"

    def __repr__(self):
        return f"TruncatedSeries({self.to_text()!r})"


def q_product(num, den, order: int) -> TruncatedSeries:
    """prod (1 - q^a) / prod (1 - q^b) over a in num and b in den, up to q^order.

    The one product kernel, on a dense coefficient list: each factor
    (1 - q^a) is a backward pass over it, each 1/(1 - q^b) = 1 + q^b + ...
    a forward one.
    """
    coeffs = [1] + [0] * order
    for a in num:
        for e in range(order, a - 1, -1):
            coeffs[e] -= coeffs[e - a]
    for b in den:
        for e in range(b, order + 1):
            coeffs[e] += coeffs[e - b]
    return TruncatedSeries(dict(enumerate(coeffs)), 1, order)


def inv_phi(order: int) -> TruncatedSeries:
    """1/prod_(k >= 1) (1 - q^k); the q^k coefficient is the number of partitions of k."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return q_product((), range(1, order + 1), order)

