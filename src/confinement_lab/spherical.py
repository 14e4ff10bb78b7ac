"""Exact spectrum of the charged-particle Landau problem on the unit sphere.

For integer monopole charge m the angular operator has eigenvalues

    lambda_k = (k(k + 2) - m^2) / 4,   k = |m|, |m| + 2, |m| + 4, ...

with multiplicity k + 1.  The ground level is |m| / 2.  Values are kept as
exact rationals; the only floating point in this module is on demand via
``float()``.  The k-th eigenspace of the 3-sphere Laplacian has dimension
(k + 1)^2 and splits into the k + 1 charge sectors m = -k, -k + 2, ..., k of
dimension k + 1 each, which ``counting_check`` verifies from the reported
multiplicities.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError


@dataclass(frozen=True)
class SphericalLevel:
    k: int
    value: Fraction
    multiplicity: int


@dataclass
class SphericalSpectrum:
    charge: int
    levels: list  # of SphericalLevel, increasing k

    def rows(self):
        """(k, numerator, denominator, multiplicity) tuples, CSV-friendly."""
        return [(lv.k, lv.value.numerator, lv.value.denominator, lv.multiplicity) for lv in self.levels]


def _validate_charge(m):
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValidationError("monopole charge must be an integer")


def spectrum(m: int, k_max: int) -> SphericalSpectrum:
    """Exact eigenvalues lambda_k = (k(k+2) - m^2)/4 for k = |m|, |m|+2, ..., k_max.

    Parameters
    ----------
    m : int
        Monopole charge (flux 2*pi*m through the sphere).
    k_max : int
        Largest level index; must be >= |m| and of the same parity.
    """
    _validate_charge(m)
    if not isinstance(k_max, int):
        raise ValidationError("k_max must be an integer")
    a = abs(m)
    if k_max < a:
        raise ValidationError(f"k_max = {k_max} must be at least |m| = {a}")
    if (k_max - a) % 2 != 0:
        raise ValidationError(f"k_max = {k_max} must have the parity of |m| = {a}")
    levels = [
        SphericalLevel(k=k, value=Fraction(k * (k + 2) - m * m, 4), multiplicity=k + 1)
        for k in range(a, k_max + 1, 2)
    ]
    return SphericalSpectrum(charge=m, levels=levels)


def ground_level(m: int) -> Fraction:
    """Bottom of the angular spectrum: |m| / 2 exactly."""
    _validate_charge(m)
    return Fraction(abs(m), 2)


def counting_check(m: int, k_max: int) -> bool:
    """Verify the 3-sphere eigenspace count from the per-charge multiplicities.

    For every k <= k_max, the multiplicities of level k over the charges
    m' = -k, -k + 2, ..., k (queried from ``spectrum``, not assumed) must sum
    to (k + 1)^2.  The ``m`` argument is validated against ``k_max`` by
    ``spectrum`` itself, so both entry points share one precondition.
    """
    spectrum(m, k_max)
    for k in range(0, k_max + 1):
        total = 0
        for mp in range(-k, k + 1, 2):
            spec = spectrum(mp, k)
            lv = spec.levels[-1]
            if lv.k != k:
                return False
            total += lv.multiplicity
        if total != (k + 1) ** 2:
            return False
    return True
