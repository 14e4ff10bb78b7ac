from fractions import Fraction

import pytest

from confinement_lab.errors import ValidationError
from confinement_lab.spherical import counting_check, ground_level, spectrum


class TestSpectrum:
    def test_ground_is_half_charge(self):
        for m in range(-8, 9):
            assert ground_level(m) == Fraction(abs(m), 2)
            k0 = abs(m)
            assert spectrum(m, k0).levels[0].value == Fraction(abs(m), 2)

    def test_m2_table(self):
        # k = 2, 4, 6 for charge 2: (k(k+2) - 4)/4.
        spec = spectrum(2, 6)
        assert [(lv.k, lv.value, lv.multiplicity) for lv in spec.levels] == [
            (2, Fraction(1), 3),
            (4, Fraction(5), 5),
            (6, Fraction(11), 7),
        ]

    def test_m0_is_sphere_laplacian(self):
        # Charge zero reduces to the ordinary sphere spectrum l(l+2)/4 over even l.
        spec = spectrum(0, 8)
        assert [lv.value for lv in spec.levels] == [Fraction(k * (k + 2), 4) for k in range(0, 9, 2)]

    def test_values_exact_rationals(self):
        spec = spectrum(3, 21)
        for lv in spec.levels:
            assert isinstance(lv.value, Fraction)
            assert lv.value == Fraction(lv.k * (lv.k + 2) - 9, 4)
            assert lv.value.denominator in (1, 2, 4)

    def test_strictly_increasing_in_k(self):
        for m in range(0, 7):
            vals = [lv.value for lv in spectrum(m, m + 20).levels]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_monotone_in_charge_at_fixed_k(self):
        # At fixed admissible k the eigenvalue decreases as |m| grows.
        k = 8
        vals = [spectrum(m, k).levels[-1].value for m in range(0, k + 1, 2)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_parity_and_range_validation(self):
        with pytest.raises(ValidationError):
            spectrum(2, 5)
        with pytest.raises(ValidationError):
            spectrum(3, 1)
        with pytest.raises(ValidationError):
            spectrum(1.5, 5)  # type: ignore[arg-type]

    def test_rows_format(self):
        rows = spectrum(1, 3).rows()
        assert rows == [(1, 1, 2, 2), (3, 7, 2, 4)]


class TestCounting:
    def test_counting_identity_holds(self):
        assert counting_check(0, 20)
        assert counting_check(3, 21)

    def test_counting_validates_input(self):
        with pytest.raises(ValidationError):
            counting_check(2, 7)
        with pytest.raises(ValidationError):
            counting_check(1.5, 5)
        with pytest.raises(ValidationError):
            counting_check(3, 1)
