"""Exact Laurent-polynomial arithmetic over the rationals.

Coefficients stay as ``int``/``fractions.Fraction`` end to end, so identities
such as Bezout cofactor relations hold exactly instead of up to rounding.
Conversion to floating point happens only at unit-circle evaluation.
Complex (float) coefficients are accepted for evaluation-oriented uses such
as polyphase matrices, but the Euclidean routines require exact input.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Number
from typing import NamedTuple

import numpy as np

__all__ = [
    "LaurentPoly",
    "CoprimalityError",
    "SymmetryError",
    "PositivityReport",
    "bspline",
    "polyphase_sample",
    "bezout",
    "eval_torus",
    "positivity_certificate",
]


class CoprimalityError(ValueError):
    """Bezout cofactors were requested for a non-coprime pair."""

    def __init__(self, message, common_factor=None):
        super().__init__(message)
        self.common_factor = common_factor


class SymmetryError(ValueError):
    """The operation needs a Hermitian-symmetric polynomial."""


def _is_exact(c):
    return isinstance(c, (int, Fraction)) and not isinstance(c, bool)


class LaurentPoly:
    """Finite sum of ``c_k z^k`` over a window of integer exponents.

    The stored window is normalized: leading and trailing coefficients are
    nonzero, and the zero polynomial is ``coeffs == ()`` with ``min_deg == 0``.
    """

    __slots__ = ("min_deg", "coeffs")

    def __init__(self, min_deg=0, coeffs=()):
        coeffs = list(coeffs)
        lo = 0
        while lo < len(coeffs) and coeffs[lo] == 0:
            lo += 1
        hi = len(coeffs)
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            self.min_deg = 0
            self.coeffs = ()
        else:
            self.min_deg = int(min_deg) + lo
            self.coeffs = tuple(coeffs[lo:hi])

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls(0, (1,))

    @classmethod
    def constant(cls, c):
        return cls(0, (c,))

    @classmethod
    def monomial(cls, k, c=1):
        return cls(k, (c,))

    @classmethod
    def from_terms(cls, terms):
        """Build from a ``{exponent: coefficient}`` mapping."""
        nonzero = {int(k): c for k, c in terms.items() if c != 0}
        if not nonzero:
            return cls()
        lo, hi = min(nonzero), max(nonzero)
        coeffs = [nonzero.get(k, 0) for k in range(lo, hi + 1)]
        return cls(lo, coeffs)

    # -- basic structure ---------------------------------------------------

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def max_deg(self):
        return self.min_deg + len(self.coeffs) - 1

    @property
    def is_monomial(self):
        return len(self.coeffs) == 1

    def coeff(self, k):
        i = k - self.min_deg
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def exponents(self):
        return range(self.min_deg, self.min_deg + len(self.coeffs))

    def shifted(self, k):
        """Multiply by the unit ``z^k``."""
        if self.is_zero:
            return LaurentPoly()
        return LaurentPoly(self.min_deg + k, self.coeffs)

    def conj_reciprocal(self):
        """Return ``sum conj(c_k) z^{-k}``."""
        if self.is_zero:
            return LaurentPoly()
        rev = tuple(c.conjugate() for c in reversed(self.coeffs))
        return LaurentPoly(-self.max_deg, rev)

    def has_exact_coeffs(self):
        return all(_is_exact(c) for c in self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.min_deg == other.min_deg and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.min_deg, self.coeffs))

    def __neg__(self):
        return LaurentPoly(self.min_deg, tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if isinstance(other, Number):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.min_deg, other.min_deg)
        hi = max(self.max_deg, other.max_deg)
        coeffs = [0] * (hi - lo + 1)
        for p in (self, other):
            for i, c in enumerate(p.coeffs, start=p.min_deg - lo):
                coeffs[i] += c
        return LaurentPoly(lo, coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Number):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Number):
            if other == 0:
                return LaurentPoly()
            return LaurentPoly(self.min_deg, tuple(c * other for c in self.coeffs))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return LaurentPoly()
        # object arrays: the products and sums are the coefficients' own, exact for int/Fraction
        out = np.convolve(np.array(self.coeffs, dtype=object), np.array(other.coeffs, dtype=object))
        return LaurentPoly(self.min_deg + other.min_deg, out)

    __rmul__ = __mul__

    # -- evaluation and printing -------------------------------------------

    def eval(self, z):
        """Evaluate at ``z`` (scalar or ndarray) by Horner on the window."""
        z = np.asarray(z, dtype=complex)
        acc = np.zeros_like(z)
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        acc = acc * z**self.min_deg
        if acc.ndim == 0:
            return complex(acc)
        return acc

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in self.exponents():
            c = self.coeff(k)
            if c == 0:
                continue
            if isinstance(c, complex):
                sign, mag = "+", str(c)
            else:
                sign = "-" if c < 0 else "+"
                mag = str(abs(c))
            if k == 0:
                term = mag
            else:
                zpow = "z" if k == 1 else f"z^{k}"
                term = zpow if mag == "1" else f"{mag}*{zpow}"
            parts.append((sign, term))
        first_sign, first_term = parts[0]
        text = ("-" if first_sign == "-" else "") + first_term
        for sign, term in parts[1:]:
            text += f" {sign} {term}"
        return text

    def __repr__(self):
        return f"LaurentPoly({self.min_deg}, {self.coeffs!r})"


def _divmod(a, b):
    """Exact long division of ordinary polynomials (no negative exponents)."""
    rem = [0] * a.min_deg + list(a.coeffs)  # ascending from z^0
    n = b.max_deg
    quo = [0] * max(0, len(rem) - n)
    for k in reversed(range(len(quo))):
        c = quo[k] = rem[k + n] / b.coeffs[-1]
        for i, bi in enumerate(b.coeffs, start=k + b.min_deg):
            rem[i] -= c * bi
    return LaurentPoly(0, quo), LaurentPoly(0, rem[:n])


def _unit_inverse(p):
    # inverse of a Laurent unit c*z^k
    c = p.coeffs[0]
    inv = Fraction(1, c) if _is_exact(c) else 1 / c
    return LaurentPoly.monomial(-p.min_deg, inv)


def bezout(g1, g2):
    """Return ``(h1, h2)`` with ``g1*h1 + g2*h2 == 1`` as an exact identity.

    Runs extended Euclid on the ordinary polynomials obtained by factoring
    out each argument's ``z^{min_deg}`` unit, then shift-corrects.  The pair
    is degree-minimal (``h`` reduced modulo the opposite factor), which fixes
    the representative deterministically.  Inputs must have exact ``int`` or
    ``Fraction`` coefficients.

    Raises ``CoprimalityError`` when the pair shares a nonconstant factor,
    reporting the factor found by the remainder chain.
    """
    for g in (g1, g2):
        if not isinstance(g, LaurentPoly):
            raise TypeError("bezout expects LaurentPoly arguments")
        if not g.has_exact_coeffs():
            raise TypeError("bezout needs exact rational coefficients")
    if g1.is_zero and g2.is_zero:
        raise CoprimalityError("both polynomials are zero")
    if g1.is_monomial:
        return _unit_inverse(g1), LaurentPoly.zero()
    if g2.is_monomial:
        return LaurentPoly.zero(), _unit_inverse(g2)
    if g1.is_zero or g2.is_zero:
        raise CoprimalityError(
            "one polynomial is zero and the other is not a unit",
            common_factor=g2 if g1.is_zero else g1,
        )

    # extended Euclid on the ordinary parts, one cofactor: r0 = s0*p1 (mod p2) throughout
    p1, p2 = (LaurentPoly(0, [Fraction(c) for c in g.coeffs]) for g in (g1, g2))
    r0, r1 = p1, p2
    s0, s1 = LaurentPoly.one(), LaurentPoly.zero()
    while not r1.is_zero:
        q, rem = _divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - q * s1
    if r0.max_deg > 0:
        monic = r0 * (1 / r0.coeffs[-1])
        raise CoprimalityError(
            f"common factor {monic} divides both polynomials", common_factor=monic
        )
    # canonical representative: u reduced modulo p2, and v the exact quotient
    # (1 - p1 u) / p2, whose zero remainder proves p1 u + p2 v = 1
    u = _divmod(s0 * (1 / r0.coeffs[0]), p2)[1]
    v, rem = _divmod(1 - p1 * u, p2)
    if not rem.is_zero:
        raise RuntimeError("Bezout identity failed to verify exactly")
    return u.shifted(-g1.min_deg), v.shifted(-g2.min_deg)


def eval_torus(p, w):
    """Evaluate ``p`` at ``z = exp(-2*pi*i*w)``; ``w`` may be an array."""
    z = np.exp(-2j * np.pi * np.asarray(w, dtype=float))
    return p.eval(z)


class PositivityReport(NamedTuple):
    min_value: float
    argmin: float
    positive: bool
    grid: int


def positivity_certificate(p, grid):
    """Minimum of a Hermitian-symmetric polynomial over a uniform torus grid.

    Requires ``p(conj(z)^{-1}) == conj(p(z))``, i.e. ``c_{-k} == conj(c_k)``,
    so values on the unit circle are real.  Reports the grid minimum, its
    location in ``[0, 1)`` and whether the minimum is strictly positive.
    """
    if grid < 1:
        raise ValueError("grid must be positive")
    hi = max(abs(p.min_deg), abs(p.max_deg)) if not p.is_zero else 0
    for k in range(hi + 1):
        if p.coeff(-k) != p.coeff(k).conjugate():
            raise SymmetryError(
                f"coefficient at z^{-k} is not the conjugate of the one at z^{k}"
            )
    w = np.arange(grid) / grid
    vals = np.real(eval_torus(p, w))
    i = int(np.argmin(vals))
    mn = float(vals[i])
    return PositivityReport(min_value=mn, argmin=float(w[i]), positive=mn > 0.0, grid=int(grid))


# -- discrete B-splines ------------------------------------------------------


def bspline(K, p):
    """Central discrete B-spline of order ``p``: the ``p``-fold self-convolution
    of ones over ``|n| <= (K-1)/2``, as a Laurent polynomial with exact integer
    coefficients on ``|n| <= p (K-1)/2``."""
    K, p = int(K), int(p)
    if K % 2 == 0:
        raise ValueError("node spacing K must be odd")
    if K < 1 or p < 1:
        raise ValueError("K and p must be positive")
    base = LaurentPoly(-(K // 2), [1] * K)
    out = base
    for _ in range(p - 1):
        out = out * base
    return out


def polyphase_sample(m, K, i):
    """Stride-``K`` component polynomial ``sum_n m(n*K + i) z^n``."""
    K, i = int(K), int(i)
    if K < 1:
        raise ValueError("stride must be positive")
    if not 0 <= i < K:
        raise ValueError("component index must satisfy 0 <= i < K")
    n_lo = -((i - m.min_deg) // K)
    n_hi = (m.max_deg - i) // K
    terms = {n: m.coeff(n * K + i) for n in range(n_lo, n_hi + 1)}
    return LaurentPoly.from_terms(terms)
