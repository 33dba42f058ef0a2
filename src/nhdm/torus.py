"""Maximal torus of PSU(N): basis circles, exact phase vectors, center quotient.

Diagonal transformations are stored as vectors of rational phases in units of
2*pi (so the value 1 means a full turn).  Two phase vectors describe the same
physical transformation when they differ by an overall scalar phase, because
overall rephasings are already taken care of by the hypercharge gauge freedom;
``equal_mod_center`` implements exactly that quotient.

A basis of circles is its doublet count N: ``torus_basis(n)`` is the one
shared ``TorusBasis`` of n doublets, and its circles are derived from N.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Sequence

from ._record import record

Rational = Fraction | int


def rational_phases(phases) -> tuple[Fraction, ...]:
    """The phases as Fractions reduced mod 1.

    Only an int or a Fraction is accepted: ``Fraction`` would take a float at
    its binary value and a string as a rational, so either raises ValueError.
    """
    out = []
    for p in phases:
        if isinstance(p, Fraction):
            out.append(p if 0 <= p.numerator < p.denominator else p % 1)
        elif isinstance(p, int):
            out.append(Fraction(p % 1))
        else:
            raise ValueError(f"phases must be int or Fraction, got {p!r}")
    return tuple(out)


@record
class PhaseVector:
    """Diagonal transformation as rational phases (units of 2*pi), reduced to [0, 1).

    Each phase is an int or a Fraction; anything else raises ValueError.
    """

    phases: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "phases", rational_phases(self.phases))

    @classmethod
    def identity(cls, n_doublets: int) -> "PhaseVector":
        return cls((Fraction(0),) * n_doublets)

    def __len__(self) -> int:
        return len(self.phases)

    def __add__(self, other: "PhaseVector") -> "PhaseVector":
        if len(other) != len(self):
            raise ValueError(f"adding phase vectors of lengths {len(self)} and {len(other)}")
        return PhaseVector(tuple(a + b for a, b in zip(self.phases, other.phases)))

    def __neg__(self) -> "PhaseVector":
        return PhaseVector(tuple(-p for p in self.phases))

    def __mul__(self, k: int) -> "PhaseVector":
        return PhaseVector(tuple(k * p for p in self.phases))

    __rmul__ = __mul__

    def is_identity_mod_center(self) -> bool:
        return equal_mod_center(self, PhaseVector.identity(len(self)))

    def center_key(self) -> tuple[Fraction, ...]:
        """The phases relative to the first one: equal exactly modulo an overall phase."""
        return tuple((p - self.phases[0]) % 1 for p in self.phases)

    def render(self) -> str:
        return "2π·(" + ", ".join(str(p) for p in self.phases) + ")"

    def __str__(self) -> str:
        return self.render()


@record
class TorusBasis:
    """The N-1 circles parametrizing the maximal torus of PSU(N), derived from N.

    A basis is its doublet count N, an int of at least 2, or ValueError is
    raised.  ``weights[i]`` holds the per-doublet phase coefficients of the
    running angle of circle i.  Circle i < N-2 rotates the first doublet by
    -(i+1) units and the next i+1 doublets by one unit each; the last circle
    carries the 1/N denominators that reduce it by the center of SU(N).  The
    weights are read as integers once per direction of the pairing:
    ``common_weights`` takes angles to phases, ``bilinear_charges`` takes
    doublet exponents to charges.
    """

    n_doublets: int

    def __post_init__(self):
        if not isinstance(self.n_doublets, int) or self.n_doublets < 2:
            raise ValueError("need at least 2 doublets")

    @property
    def n(self) -> int:
        return self.n_doublets - 1

    @cached_property
    def weights(self) -> tuple[tuple[Fraction, ...], ...]:
        big_n, n = self.n_doublets, self.n
        rows = [tuple(Fraction(-i) if a == 0 else Fraction(1) if a <= i else Fraction(0)
                      for a in range(big_n)) for i in range(1, n)]
        rows.append(tuple(Fraction(-n, big_n) if a == 0 else Fraction(1, big_n)
                          for a in range(big_n)))
        return tuple(rows)

    @cached_property
    def common_weights(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """The common denominator D of ``weights``, which is N, and D times ``weights``."""
        d = self.n_doublets
        return d, tuple(tuple(int(d * w) for w in weight) for weight in self.weights)

    @cached_property
    def bilinear_charges(self) -> tuple[tuple[int, ...], ...]:
        """Row a: the integer charge of psi_{a+1} - psi_1, that of (phi_1^dagger
        phi_{a+1}), so row 0 is zero.  Each difference of weights is an integer,
        on the last circle 1/N + (N-1)/N = 1."""
        return tuple(tuple(int(w[a] - w[0]) for w in self.weights)
                     for a in range(self.n_doublets))

    @cached_property
    def charges(self) -> dict:
        """Memo of monomial charges in this basis by factor tuple, filled by
        ``monomials.charge_vector``."""
        return {}


# the standard torus basis of N doublets, one shared instance per N
torus_basis = lru_cache(maxsize=None)(TorusBasis)


def _circle_sum(basis: TorusBasis, coefficients: Sequence[int]) -> list[int]:
    """Per doublet, the sum over circles of coefficient times row of ``common_weights``."""
    totals = [0] * basis.n_doublets
    for k, weight in zip(coefficients, basis.common_weights[1]):
        if k:
            for a, w in enumerate(weight):
                totals[a] += k * w
    return totals


def element_from_angles(basis: TorusBasis, angles: Sequence[Rational]) -> PhaseVector:
    """Torus element with the given circle angles (units of 2*pi).

    The decomposition of a torus element over the basis circles is unique, and
    the map is a homomorphism: adding angle vectors adds phases mod 1.  Angles
    are ints or Fractions, and are not reduced mod 1.  The sum runs in
    integers: the angles' numerators over their common denominator L, times
    ``common_weights`` over theirs, D; each phase is then one Fraction over
    L * D.
    """
    if len(angles) != basis.n:
        raise ValueError(f"expected {basis.n} angles, got {len(angles)}")
    for angle in angles:
        if not isinstance(angle, (int, Fraction)):
            raise ValueError(f"angles must be int or Fraction, got {angle!r}")
    common = lcm(*(angle.denominator for angle in angles))
    totals = _circle_sum(basis, [angle.numerator * (common // angle.denominator) if angle else 0
                                 for angle in angles])
    common *= basis.common_weights[0]
    return PhaseVector._trusted(tuple(Fraction(t % common, common) for t in totals))


def equal_mod_center(x: PhaseVector, y: PhaseVector) -> bool:
    """True when x and y differ by an overall scalar phase vector (c, ..., c).

    For special-unitary vectors (phase sum 0 mod 1) the scalar is forced into
    the center of SU(N), so this is the PSU(N) identification; general vectors
    are additionally identified along the hypercharge direction.
    """
    if len(x) != len(y):
        raise ValueError(f"comparing phase vectors of lengths {len(x)} and {len(y)}")
    return x.center_key() == y.center_key()


def direction_weights(basis: TorusBasis, angle_direction: Sequence[int]) -> tuple[int, ...]:
    """Primitive integer per-doublet weights of a one-parameter torus direction.

    ``angle_direction`` is an integer combination of basis circles; the result
    is the corresponding doublet weight vector, divided by its content.  The
    sum is taken in integers over ``common_weights``, whose common scale the
    content divides out.  The weight sum is always zero.
    """
    if len(angle_direction) != basis.n:
        raise ValueError(f"expected {basis.n} components, got {len(angle_direction)}")
    raw = _circle_sum(basis, angle_direction)
    content = gcd(*raw) or 1
    return tuple(x // content for x in raw)
