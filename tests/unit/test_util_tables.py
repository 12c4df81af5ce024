"""Tests for ASCII table rendering and units."""

import pytest

from repro.util.tables import format_float, render_table
from repro.util.units import GIB, KIB, MIB, format_bytes


class TestRenderTable:
    def test_contains_headers_and_cells(self):
        text = render_table(("A", "B"), [("x", 1), ("y", 2)])
        assert "A" in text and "B" in text
        assert "x" in text and "2" in text

    def test_title_rendered(self):
        text = render_table(("A",), [("v",)], title="My Table")
        assert text.startswith("My Table")

    def test_none_rendered_as_dash(self):
        text = render_table(("A",), [(None,)])
        assert "-" in text.splitlines()[-1]

    def test_floats_two_decimals(self):
        text = render_table(("A",), [(1.2345,)])
        assert "1.23" in text

    def test_misaligned_row_raises(self):
        with pytest.raises(ValueError):
            render_table(("A", "B"), [("only-one",)])

    def test_columns_aligned(self):
        text = render_table(("Name", "V"), [("a", 1), ("longer", 2)])
        lines = text.splitlines()
        assert len(set(line.index("|") for line in lines if "|" in line)) == 1


class TestFormatFloat:
    def test_digits(self):
        assert format_float(1.23456, digits=3) == "1.235"

    def test_none(self):
        assert format_float(None) == "-"

    def test_nan(self):
        assert format_float(float("nan")) == "-"


class TestUnits:
    def test_constants(self):
        assert KIB == 1024
        assert MIB == 1024 * KIB
        assert GIB == 1024 * MIB

    def test_format_bytes_exact(self):
        assert format_bytes(32 * KIB) == "32 KiB"
        assert format_bytes(8 * MIB) == "8 MiB"

    def test_format_bytes_whole_kib_preferred(self):
        assert format_bytes(int(1.5 * MIB)) == "1536 KiB"

    def test_format_bytes_fractional(self):
        assert format_bytes(int(1.3 * MIB)) == "1.3 MiB"

    def test_format_bytes_small(self):
        assert format_bytes(100) == "100 B"

    def test_format_bytes_negative_raises(self):
        with pytest.raises(ValueError):
            format_bytes(-1)
