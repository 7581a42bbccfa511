"""Exact Chern-character arithmetic on the plane.

Characters are triples (r, c1, ch2).  Riemann-Roch on the plane reads
``chi = r + (3/2) c1 + ch2``; the Euler pairing is ``chi(A, B) = chi(A* B)``
with the Chern ring product truncated in degree 2.  For nonzero rank the
slope mu = c1/r and discriminant Delta = mu^2/2 - ch2/r determine the
character together with r, and the pairing has the closed form
``r(A) r(B) (P(mu(B) - mu(A)) - Delta(A) - Delta(B))`` with P the Hilbert
polynomial of the plane.

A character is stored in one integer form, its fields ``(r, a, b, d)`` with
c1 = a/d, 2*ch2 = b/d, d > 0 and gcd(a, b, d) = 1.  That form is unique, with
d the lcm of the two denominators, so equality and hashing are exact rational
equality.  :func:`from_integers` reduces any ``(r, a, b, d)`` to it and
:func:`integer_parts` reads it; each function computes with plain ints, and
only the ``c1`` and ``ch2`` properties and the rational results build a
``Fraction``.
Nothing here knows a diagram: the monomial objects state their own
``(r, c1, 2*ch2)``, the d = 1 case, in :mod:`staircase.objects`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .diagram import as_int


@dataclass(frozen=True, slots=True)
class ChernCharacter:
    """(r, c1, ch2) stored as ``(r, a, b, d)``; build it with :func:`chern` or :func:`from_integers`."""

    r: int
    a: int
    b: int
    d: int

    @property
    def c1(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def ch2(self) -> Fraction:
        return Fraction(self.b, 2 * self.d)

    def __iter__(self):
        return iter((self.r, self.c1, self.ch2))


@dataclass(frozen=True, slots=True)
class CentralChargeValue:
    """Value r + i*t*imag_coeff of the central charge, t kept symbolic."""

    real: Fraction
    imag_coeff: Fraction


def chern(r, c1, ch2) -> ChernCharacter:
    """Build a character of exact rationals, read as ``Fraction`` reads them: a float at its binary value."""
    r = as_int(r, "rank")
    a, p = _ratio(c1)
    b, q = _ratio(ch2)
    return from_integers(r, a * q, 2 * b * p, p * q)


def from_integers(r: int, c1: int, ch2_twice: int, d: int = 1) -> ChernCharacter:
    """The character (r, c1/d, ch2_twice/2d) of ints, in lowest terms: the inverse of :func:`integer_parts`."""
    g = gcd(c1, ch2_twice, d)
    if d <= 0:
        if d == 0:
            raise ZeroDivisionError(f"Fraction({c1}, 0)")
        g = -g
    return ChernCharacter(r, c1 // g, ch2_twice // g, d // g)


def _ratio(x) -> tuple[int, int]:
    """``Fraction(x).as_integer_ratio()``, read directly from an int or a Fraction."""
    if type(x) is int or type(x) is Fraction:
        return x.as_integer_ratio()
    return Fraction(x).as_integer_ratio()


def integer_parts(xi: ChernCharacter) -> tuple[int, int, int, int]:
    """(r, a, b, d) with c1 = a/d and 2*ch2 = b/d, d the lcm of their denominators: the stored fields."""
    return xi.r, xi.a, xi.b, xi.d


def from_slope_discriminant(r, mu, delta) -> ChernCharacter:
    """Character of rank r with Mumford slope mu and discriminant delta, read as ``chern`` reads c1."""
    r = as_int(r, "rank")
    if r == 0:
        raise ValueError("slope-discriminant coordinates need nonzero rank")
    a, p = _ratio(mu)
    b, q = _ratio(delta)
    # c1 = r mu and 2 ch2 = r (mu^2 - 2 delta) over p^2 q
    return from_integers(r, r * a * p * q, r * (a * a * q - 2 * p * p * b), p * p * q)


def line_bundle(m: int) -> ChernCharacter:
    """ch O(m) = (1, m, m^2/2)."""
    return from_integers(1, m, m * m)


def twist(xi: ChernCharacter, m: int) -> ChernCharacter:
    """Multiply by e^{mL}: tensoring with the line bundle O(m)."""
    r, a, b, d = integer_parts(xi)
    # c1 + r m and 2 ch2 + 2 c1 m + r m^2 over d
    return from_integers(r, a + r * m * d, b + 2 * a * m + r * m * m * d, d)


def dual(xi: ChernCharacter) -> ChernCharacter:
    """Dual character: c1 changes sign."""
    return ChernCharacter(xi.r, -xi.a, xi.b, xi.d)


def negate(xi: ChernCharacter) -> ChernCharacter:
    """Homological shift [1]: all components change sign."""
    return ChernCharacter(-xi.r, -xi.a, -xi.b, xi.d)


def ring_product(xi: ChernCharacter, zeta: ChernCharacter) -> ChernCharacter:
    """Product in the Chern ring, truncated above degree 2."""
    r1, a1, b1, d1 = integer_parts(xi)
    r2, a2, b2, d2 = integer_parts(zeta)
    # c1 = r1 c1' + r2 c1 and 2 ch2 = r1 2ch2' + r2 2ch2 + 2 c1 c1' over d1 d2
    c1, ch2_twice = r1 * a2 * d1 + r2 * a1 * d2, r1 * b2 * d1 + r2 * b1 * d2 + 2 * a1 * a2
    return from_integers(r1 * r2, c1, ch2_twice, d1 * d2)


def mumford_slope(xi: ChernCharacter) -> Fraction:
    """mu = c1/r, defined for nonzero rank."""
    if xi.r == 0:
        raise ValueError("rank-0 characters have no Mumford slope")
    return Fraction(xi.a, xi.d * xi.r)


def discriminant(xi: ChernCharacter) -> Fraction:
    """Delta = mu^2/2 - ch2/r, defined for nonzero rank."""
    mu = mumford_slope(xi)
    return mu * mu / 2 - Fraction(xi.b, 2 * xi.d * xi.r)


def hilbert_P(m) -> Fraction:
    """Hilbert polynomial of the plane: P(m) = (m^2 + 3m + 2)/2."""
    m = Fraction(m)
    return (m * m + 3 * m + 2) / 2


def euler_char(xi: ChernCharacter) -> Fraction:
    """Riemann-Roch: chi = r + (3/2) c1 + ch2."""
    r, a, b, d = integer_parts(xi)
    return Fraction(2 * r * d + 3 * a + b, 2 * d)


def euler_pairing(xi: ChernCharacter, zeta: ChernCharacter) -> Fraction:
    """chi(xi, zeta) = chi(xi* . zeta)."""
    return euler_char(ring_product(dual(xi), zeta))


def euler_pairing_closed(xi: ChernCharacter, zeta: ChernCharacter) -> Fraction:
    """The (r, mu, Delta) form of the pairing; both ranks must be nonzero."""
    return (
        xi.r
        * zeta.r
        * (
            hilbert_P(mumford_slope(zeta) - mumford_slope(xi))
            - discriminant(xi)
            - discriminant(zeta)
        )
    )


def central_charge(xi: ChernCharacter, s, t2) -> CentralChargeValue:
    """Central charge at (s, t), with t^2 = t2 > 0 rational.

    The value is real + i*t*imag_coeff; only t^2 enters the real part, so
    both components are exact rationals.
    """
    r, a, b, d = integer_parts(xi)
    sn, sd = _ratio(s)
    tn, td = _ratio(t2)
    if tn <= 0:
        raise ValueError(f"t^2 must be positive, got {Fraction(tn, td)}")
    # real = -ch2 + s c1 - (s^2 - t^2) r/2 over the common denominator 2 d e
    e = sd * sd * td
    real = 2 * sn * a * sd * td - b * e - (sn * sn * td - tn * sd * sd) * r * d
    return CentralChargeValue(Fraction(real, 2 * d * e), Fraction(a * sd - sn * r * d, d * sd))
