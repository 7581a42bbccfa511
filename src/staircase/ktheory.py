"""Exact Chern-character arithmetic on the plane.

Characters are triples (r, c1, ch2).  Riemann-Roch on the plane reads
``chi = r + (3/2) c1 + ch2``; the Euler pairing is ``chi(A, B) = chi(A* B)``
with the Chern ring product truncated in degree 2.  For nonzero rank the
slope mu = c1/r and discriminant Delta = mu^2/2 - ch2/r determine the
character together with r, and the pairing has the closed form
``r(A) r(B) (P(mu(B) - mu(A)) - Delta(A) - Delta(B))`` with P the Hilbert
polynomial of the plane.

The arithmetic has integer cores: a function brings its rational inputs to
integer numerators over one common denominator, computes with plain ints,
and builds each rational result with a single ``Fraction(num, den)``.
Characters keep their ``Fraction`` fields, so they print as ``str(Fraction)``.
Characters of monomial objects have 2*ch2 integral and are built from that
integer form, ``(r, c1, 2*ch2)``, by :func:`from_integers`.  The rank-0
and rank -1 functions take only the diagram D: a rank-0 scheme lies on the
k = r(D) lines of its rows, and a rank -1 complex on D's k x i bounding box.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diagram import Diagram, col_count, degree, row_count


@dataclass(frozen=True)
class ChernCharacter:
    r: int
    c1: Fraction
    ch2: Fraction

    def __iter__(self):
        return iter((self.r, self.c1, self.ch2))


@dataclass(frozen=True)
class CentralChargeValue:
    """Value r + i*t*imag_coeff of the central charge, t kept symbolic."""

    real: Fraction
    imag_coeff: Fraction


def chern(r, c1, ch2) -> ChernCharacter:
    """Build a character, normalizing the components to exact rationals."""
    if r != int(r):
        raise ValueError(f"rank must be an integer, got {r!r}")
    return ChernCharacter(int(r), Fraction(c1), Fraction(ch2))


def from_integers(r: int, c1: int, ch2_twice: int) -> ChernCharacter:
    """The character (r, c1, ch2_twice/2) of three integers."""
    return ChernCharacter(r, Fraction(c1), Fraction(ch2_twice, 2))


def integer_parts(xi: ChernCharacter) -> tuple[int, int, int, int, int]:
    """(r, a, p, b, q) with c1 = a/p and ch2 = b/q in lowest terms."""
    return (xi.r, *xi.c1.as_integer_ratio(), *xi.ch2.as_integer_ratio())


def from_slope_discriminant(r, mu, delta) -> ChernCharacter:
    """Character of rank r with Mumford slope mu and discriminant delta."""
    if r == 0:
        raise ValueError("slope-discriminant coordinates need nonzero rank")
    if r != int(r):
        raise ValueError(f"rank must be an integer, got {r!r}")
    r = int(r)
    a, p = Fraction(mu).as_integer_ratio()
    b, q = Fraction(delta).as_integer_ratio()
    # ch2 = r (mu^2/2 - delta) over the common denominator 2 p^2 q
    return ChernCharacter(
        r, Fraction(r * a, p), Fraction(r * (a * a * q - 2 * p * p * b), 2 * p * p * q)
    )


def line_bundle(m: int) -> ChernCharacter:
    """ch O(m) = (1, m, m^2/2)."""
    return from_integers(1, m, m * m)


def twist(xi: ChernCharacter, m: int) -> ChernCharacter:
    """Multiply by e^{mL}: tensoring with the line bundle O(m)."""
    r, a, p, b, q = integer_parts(xi)
    # c1 + r m over p, and ch2 + c1 m + r m^2/2 over 2 p q
    return ChernCharacter(
        r,
        Fraction(a + r * m * p, p),
        Fraction(2 * p * b + 2 * q * a * m + p * q * r * m * m, 2 * p * q),
    )


def dual(xi: ChernCharacter) -> ChernCharacter:
    """Dual character: c1 changes sign."""
    return ChernCharacter(xi.r, -xi.c1, xi.ch2)


def negate(xi: ChernCharacter) -> ChernCharacter:
    """Homological shift [1]: all components change sign."""
    return ChernCharacter(-xi.r, -xi.c1, -xi.ch2)


def ring_product(xi: ChernCharacter, zeta: ChernCharacter) -> ChernCharacter:
    """Product in the Chern ring, truncated above degree 2."""
    r1, a1, p1, b1, q1 = integer_parts(xi)
    r2, a2, p2, b2, q2 = integer_parts(zeta)
    # xi = (r1, a1/p1, b1/q1) and zeta = (r2, a2/p2, b2/q2): c1 over p, ch2 over p q
    p, q = p1 * p2, q1 * q2
    return ChernCharacter(
        r1 * r2,
        Fraction(r1 * a2 * p1 + r2 * a1 * p2, p),
        Fraction((r1 * b2 * q1 + r2 * b1 * q2) * p + a1 * a2 * q, p * q),
    )


def mumford_slope(xi: ChernCharacter) -> Fraction:
    """mu = c1/r, defined for nonzero rank."""
    if xi.r == 0:
        raise ValueError("rank-0 characters have no Mumford slope")
    return Fraction(xi.c1, xi.r)


def discriminant(xi: ChernCharacter) -> Fraction:
    """Delta = mu^2/2 - ch2/r, defined for nonzero rank."""
    mu = mumford_slope(xi)
    return mu * mu / 2 - Fraction(xi.ch2, xi.r)


def chern_of_ideal(diagram: Diagram) -> ChernCharacter:
    """ch I_Z = (1, 0, -n)."""
    return from_integers(1, 0, -2 * degree(diagram))


def chern_of_rank0(diagram: Diagram) -> ChernCharacter:
    """ch I_{Z in kL} = (0, k, -k^2/2 - n) for Z on the k = r(D) lines of its rows."""
    k = row_count(diagram)
    if k < 1:
        raise ValueError(f"need at least one supporting line, got {k}")
    return from_integers(0, k, -k * k - 2 * degree(diagram))


def chern_of_rank_minus1(diagram: Diagram) -> ChernCharacter:
    """ch of O(-k) + O(-i) -> I_Z on Z's k x i box: (-1, k+i, -(k^2+i^2)/2 - n)."""
    k, i = row_count(diagram), col_count(diagram)
    if k < 1:
        raise ValueError(f"box dimensions must be positive, got {k} x {i}")
    return from_integers(-1, k + i, -(k * k + i * i) - 2 * degree(diagram))


def hilbert_P(m) -> Fraction:
    """Hilbert polynomial of the plane: P(m) = (m^2 + 3m + 2)/2."""
    m = Fraction(m)
    return (m * m + 3 * m + 2) / 2


def euler_char(xi: ChernCharacter) -> Fraction:
    """Riemann-Roch: chi = r + (3/2) c1 + ch2."""
    r, a, p, b, q = integer_parts(xi)
    return Fraction(2 * r * p * q + 3 * a * q + 2 * b * p, 2 * p * q)


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
    r, a, p, b, q = integer_parts(xi)
    sn, sd = Fraction(s).as_integer_ratio()
    tn, td = Fraction(t2).as_integer_ratio()
    if tn <= 0:
        raise ValueError(f"t^2 must be positive, got {Fraction(tn, td)}")
    # real = -ch2 + s c1 - (s^2 - t^2) r/2 over the common denominator 2 p q d
    d = sd * sd * td
    real = 2 * (sn * a * q * sd * td - b * p * d) - (sn * sn * td - tn * sd * sd) * r * p * q
    return CentralChargeValue(
        Fraction(real, 2 * p * q * d), Fraction(a * sd - sn * r * p, p * sd)
    )


def rank0_hilbert_polynomial(diagram: Diagram) -> tuple[Fraction, Fraction]:
    """Hilbert polynomial of I_{Z in kL} as (leading, constant): kx - (n + (k^2-3k)/2), k = r(D)."""
    k = row_count(diagram)
    if k < 1:
        raise ValueError(f"need at least one supporting line, got {k}")
    return Fraction(k), -(degree(diagram) + Fraction(k * k - 3 * k, 2))


def reduced_rank0_hilbert_polynomial(diagram: Diagram) -> tuple[Fraction, Fraction]:
    """The monic form x - mu_k of :func:`rank0_hilbert_polynomial`, k = r(D)."""
    leading, constant = rank0_hilbert_polynomial(diagram)
    return Fraction(1), constant / leading
