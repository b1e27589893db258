import pytest
from hypothesis import given, strategies as st

from skymine import units
from skymine.errors import ValidationError


class TestParseBytes:
    @pytest.mark.parametrize("text,want", [
        ("64", 64.0),
        ("64B", 64.0),
        ("1.5KB", 1.5e3),
        ("150MB", 150e6),
        ("120TB", 120e12),
        ("1PB", 1e15),
        ("120tb", 120e12),
    ])
    def test_examples(self, text, want):
        assert units.parse_bytes(text) == want

    def test_rejects_unknown_suffix(self):
        with pytest.raises(ValidationError):
            units.parse_bytes("10XB")

    def test_rejects_garbage(self):
        with pytest.raises(ValidationError):
            units.parse_bytes("lots")


class TestParseRate:
    def test_per_second_suffix(self):
        assert units.parse_rate("150MB/s") == 150e6

    def test_bare_size(self):
        assert units.parse_rate("0.6MB") == 0.6e6


class TestParseBits:
    def test_oc3(self):
        assert units.parse_bits_per_second("155Mbit/s") == 155e6

    def test_gigabit(self):
        assert units.parse_bits_per_second("10Gbit/s") == 10e9

    def test_rejects_byte_rate(self):
        with pytest.raises(ValidationError):
            units.parse_bits_per_second("155MB/s")


class TestParseAngle:
    def test_degrees(self):
        assert units.parse_angle_deg("5d") == 5.0

    def test_arcseconds(self):
        assert units.parse_angle_deg("7200s") == 2.0

    def test_requires_suffix(self):
        with pytest.raises(ValidationError):
            units.parse_angle_deg("5")

    @pytest.mark.parametrize("text", ["nand", "nans", "infd", "-infs", "1e400s"])
    def test_rejects_non_finite(self, text):
        with pytest.raises(ValidationError, match="must be finite"):
            units.parse_angle_deg(text)

    @given(st.floats(0, 1e6, allow_nan=False))
    def test_round_trip_arcsec(self, arcsec):
        deg = units.parse_angle_deg(f"{arcsec!r}s")
        assert deg * units.ARCSEC_PER_DEG == pytest.approx(arcsec, rel=1e-12, abs=1e-12)


class TestFormat:
    @pytest.mark.parametrize("n,want", [
        (120e12, "120 TB"),
        (1e15, "1 PB"),
        (150e6, "150 MB"),
        (12.0, "12 B"),
    ])
    def test_examples(self, n, want):
        assert units.fmt_bytes(n) == want

    @given(st.floats(1, 1e17))
    def test_parse_inverts_format(self, n):
        assert units.parse_bytes(units.fmt_bytes(n).replace(" ", "")) == \
            pytest.approx(n, rel=1e-3)
