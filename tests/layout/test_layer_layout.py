"""Tests for Layer and Layout containers."""

import pytest

from repro.geometry import Rect, RectilinearPolygon
from repro.layout import DrcRules, Layer, Layout


class TestLayer:
    def test_numbering_starts_at_one(self):
        with pytest.raises(ValueError):
            Layer(0)

    def test_default_name(self):
        assert Layer(3).name == "metal3"

    def test_odd_even(self):
        assert Layer(1).is_odd
        assert not Layer(2).is_odd

    def test_add_wire(self):
        layer = Layer(1)
        layer.add_wire(Rect(0, 0, 10, 10))
        assert layer.num_wires == 1
        assert layer.num_fills == 0

    def test_degenerate_wire_rejected(self):
        layer = Layer(1)
        with pytest.raises(ValueError):
            layer.add_wire(Rect(0, 0, 0, 10))

    def test_add_wire_polygon_decomposes(self):
        layer = Layer(1)
        poly = RectilinearPolygon(
            [(0, 0), (10, 0), (10, 4), (4, 4), (4, 10), (0, 10)]
        )
        added = layer.add_wire_polygon(poly)
        assert len(added) >= 2
        assert sum(r.area for r in added) == poly.area
        assert layer.num_wires == len(added)

    def test_fills_separate_from_wires(self):
        layer = Layer(1)
        layer.add_wire(Rect(0, 0, 10, 10))
        layer.add_fill(Rect(20, 20, 30, 30))
        assert layer.num_wires == 1
        assert layer.num_fills == 1
        assert len(layer.shapes) == 2

    def test_clear_fills(self):
        layer = Layer(1)
        layer.add_fill(Rect(0, 0, 5, 5))
        layer.clear_fills()
        assert layer.num_fills == 0

    def test_wire_area_in_window_deduplicates(self):
        layer = Layer(1)
        layer.add_wire(Rect(0, 0, 10, 10))
        layer.add_wire(Rect(5, 0, 15, 10))  # overlaps the first
        assert layer.wire_area_in(Rect(0, 0, 20, 20)) == 150

    def test_wire_area_clipped(self):
        layer = Layer(1)
        layer.add_wire(Rect(0, 0, 10, 10))
        assert layer.wire_area_in(Rect(5, 5, 20, 20)) == 25

    def test_fill_area_in(self):
        layer = Layer(1)
        layer.add_fill(Rect(0, 0, 10, 10))
        layer.add_fill(Rect(20, 0, 30, 10))
        assert layer.fill_area_in(Rect(0, 0, 25, 10)) == 150

    def test_filter_wires(self):
        layer = Layer(1)
        layer.add_wires([Rect(0, 0, 5, 5), Rect(10, 10, 15, 15)])
        removed = layer.filter_wires(lambda w: w.xl < 8)
        assert removed == 1
        assert layer.num_wires == 1

    def test_filter_fills_keeps_order(self):
        layer = Layer(1)
        fills = [Rect(k * 10, 0, k * 10 + 5, 5) for k in range(5)]
        layer.add_fills(fills)
        layer.add_wire(Rect(0, 20, 5, 25))
        removed = layer.filter_fills(lambda f: f.xl != 20)
        assert removed == 1
        assert layer.fills == fills[:2] + fills[3:]
        assert layer.num_wires == 1


class TestLayout:
    def make(self):
        return Layout(Rect(0, 0, 1000, 1000), num_layers=3)

    def test_layers_created(self):
        layout = self.make()
        assert layout.num_layers == 3
        assert layout.layer_numbers == [1, 2, 3]

    def test_zero_layers_rejected(self):
        with pytest.raises(ValueError):
            Layout(Rect(0, 0, 10, 10), num_layers=0)

    def test_unknown_layer_raises(self):
        with pytest.raises(KeyError):
            self.make().layer(9)

    def test_adjacent_pairs(self):
        layout = self.make()
        pairs = [(lo.number, hi.number) for lo, hi in layout.adjacent_pairs()]
        assert pairs == [(1, 2), (2, 3)]

    def test_counts(self):
        layout = self.make()
        layout.layer(1).add_wire(Rect(0, 0, 10, 10))
        layout.layer(2).add_fill(Rect(0, 0, 20, 20))
        assert layout.num_wires == 1
        assert layout.num_fills == 1
        assert layout.num_shapes == 2

    def test_clear_fills(self):
        layout = self.make()
        layout.layer(2).add_fill(Rect(0, 0, 20, 20))
        layout.clear_fills()
        assert layout.num_fills == 0

    def test_validate_wires_in_die(self):
        layout = self.make()
        layout.layer(1).add_wire(Rect(0, 0, 10, 10))
        layout.layer(1).add_wire(Rect(990, 990, 1200, 1200))  # escapes
        assert len(layout.validate_wires_in_die()) == 1

    def test_copy_without_fills(self):
        layout = self.make()
        layout.layer(1).add_wire(Rect(0, 0, 10, 10))
        layout.layer(1).add_fill(Rect(50, 50, 70, 70))
        copy = layout.copy_without_fills()
        assert copy.num_wires == 1
        assert copy.num_fills == 0
        assert copy.die == layout.die
        # Deep independence: adding to the copy leaves original alone.
        copy.layer(1).add_wire(Rect(100, 100, 110, 110))
        assert layout.num_wires == 1

    def test_default_rules(self):
        assert isinstance(self.make().rules, DrcRules)
