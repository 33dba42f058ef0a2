"""Maximal torus of PSU(N): basis circles, exact phase vectors, center quotient.

Diagonal transformations are stored as vectors of rational phases in units of
2*pi (so the value 1 means a full turn).  Two phase vectors describe the same
physical transformation when they differ by an overall scalar phase, because
overall rephasings are already taken care of by the hypercharge gauge freedom;
``equal_mod_center`` implements exactly that quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from typing import Sequence

Rational = Fraction | int


@dataclass(frozen=True)
class PhaseVector:
    """Diagonal transformation as rational phases (units of 2*pi), reduced to [0, 1)."""

    phases: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "phases", tuple(Fraction(p) % 1 for p in self.phases))

    @classmethod
    def identity(cls, n_doublets: int) -> "PhaseVector":
        return cls((Fraction(0),) * n_doublets)

    def __len__(self) -> int:
        return len(self.phases)

    def __add__(self, other: "PhaseVector") -> "PhaseVector":
        if len(other) != len(self):
            raise ValueError("length mismatch")
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


@dataclass(frozen=True)
class TorusBasis:
    """The N-1 circles parametrizing the maximal torus of PSU(N).

    ``weights[i]`` holds the per-doublet phase coefficients of the running
    angle of circle i.  Circle i < N-2 rotates the first doublet by -(i+1)
    units and the next i+1 doublets by one unit each; the last circle carries
    the 1/N denominators that reduce it by the center of SU(N).
    """

    n_doublets: int
    weights: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return self.n_doublets - 1

    def __iter__(self):
        return iter(self.weights)

    @cached_property
    def scaled_weights(self) -> tuple[tuple[int, ...], ...]:
        """``n_doublets`` times ``weights``: the same circles as integers."""
        return tuple(tuple(int(self.n_doublets * w) for w in weight) for weight in self.weights)

    @cached_property
    def differences(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """``differences[a][b]``: the integer charge of psi_a - psi_b (0-based doublets)."""
        def charge(a: int, b: int) -> tuple[int, ...]:
            diff = [w[a] - w[b] for w in self.weights]
            if any(d.denominator != 1 for d in diff):
                raise ValueError(f"non-integer charge of psi_{a + 1} - psi_{b + 1}")
            return tuple(d.numerator for d in diff)

        doublets = range(self.n_doublets)
        return tuple(tuple(charge(a, b) for b in doublets) for a in doublets)


@lru_cache(maxsize=None)
def torus_basis(n_doublets: int) -> TorusBasis:
    """Standard torus basis for ``n_doublets`` doublets (at least 2), one shared instance per N."""
    if n_doublets < 2:
        raise ValueError("need at least 2 doublets")
    big_n = n_doublets
    n = big_n - 1
    weights = []
    for i in range(1, n):
        weights.append(tuple(Fraction(-i) if a == 0 else Fraction(1) if a <= i else Fraction(0)
                             for a in range(big_n)))
    weights.append(tuple(Fraction(-n, big_n) if a == 0 else Fraction(1, big_n)
                         for a in range(big_n)))
    return TorusBasis(big_n, tuple(weights))


def element_from_angles(basis: TorusBasis, angles: Sequence[Rational]) -> PhaseVector:
    """Torus element with the given circle angles (units of 2*pi).

    The decomposition of a torus element over the basis circles is unique, and
    the map is a homomorphism: adding angle vectors adds phases mod 1.
    """
    if len(angles) != basis.n:
        raise ValueError(f"expected {basis.n} angles, got {len(angles)}")
    phases = [Fraction(0)] * basis.n_doublets
    for angle, weight in zip(angles, basis.weights):
        if angle:
            frac = Fraction(angle)
            for a in range(basis.n_doublets):
                phases[a] += frac * weight[a]
    return PhaseVector(tuple(phases))


def equal_mod_center(x: PhaseVector, y: PhaseVector) -> bool:
    """True when x and y differ by an overall scalar phase vector (c, ..., c).

    For special-unitary vectors (phase sum 0 mod 1) the scalar is forced into
    the center of SU(N), so this is the PSU(N) identification; general vectors
    are additionally identified along the hypercharge direction.
    """
    if len(x) != len(y):
        raise ValueError("length mismatch")
    return x.center_key() == y.center_key()


def direction_weights(basis: TorusBasis, angle_direction: Sequence[int]) -> tuple[int, ...]:
    """Primitive integer per-doublet weights of a one-parameter torus direction.

    ``angle_direction`` is an integer combination of basis circles; the result
    is the corresponding doublet weight vector, divided by its content.  The
    basis weights have denominators dividing N, so the sum is taken over N
    times the weights, in integers.  The weight sum is always zero.
    """
    if len(angle_direction) != basis.n:
        raise ValueError(f"expected {basis.n} components, got {len(angle_direction)}")
    raw = [0] * basis.n_doublets
    for coeff, weight in zip(angle_direction, basis.scaled_weights):
        if coeff:
            for a, w in enumerate(weight):
                raw[a] += coeff * w
    content = gcd(*raw) or 1
    return tuple(x // content for x in raw)
