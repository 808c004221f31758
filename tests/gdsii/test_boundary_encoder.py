"""The vectorized BOUNDARY encoder against the per-record oracle.

``_boundary_bytes`` below is the record-at-a-time encoder the writer
used before every rectangle went through
:func:`repro.gdsii.writer.boundaries_bytes`: five ``pack_record`` calls
per rectangle.  The batch encoder must equal it byte for byte and
raise ``struct.error`` on the same out-of-range inputs.
"""

import io
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generator import LayoutSpec, generate_layout
from repro.gdsii import GdsiiStreamWriter, gdsii_bytes
from repro.gdsii.records import (
    DataType,
    RecordType,
    encode_int2,
    encode_int4,
    pack_record,
)
from repro.gdsii.writer import CHUNK, DIE_LAYER, boundaries_bytes
from repro.geometry import Rect

INT4_MIN, INT4_MAX = -(2**31), 2**31 - 1


def _boundary_bytes(layer, datatype, rect):
    xy = [
        rect.xl, rect.yl,
        rect.xh, rect.yl,
        rect.xh, rect.yh,
        rect.xl, rect.yh,
        rect.xl, rect.yl,
    ]
    return b"".join(
        (
            pack_record(RecordType.BOUNDARY, DataType.NO_DATA),
            pack_record(RecordType.LAYER, DataType.INT2, encode_int2([layer])),
            pack_record(RecordType.DATATYPE, DataType.INT2, encode_int2([datatype])),
            pack_record(RecordType.XY, DataType.INT4, encode_int4(xy)),
            pack_record(RecordType.ENDEL, DataType.NO_DATA),
        )
    )


def _oracle(layer, datatype, rects):
    return b"".join(_boundary_bytes(layer, datatype, r) for r in rects)


#: sides drawn so both corners stay in int4, extremes included
coords = st.one_of(
    st.integers(INT4_MIN, INT4_MAX),
    st.sampled_from([INT4_MIN, INT4_MIN + 1, -1, 0, 1, INT4_MAX - 1, INT4_MAX]),
)
rects = st.tuples(coords, coords, coords, coords).map(
    lambda c: Rect(min(c[0], c[2]), min(c[1], c[3]), max(c[0], c[2]), max(c[1], c[3]))
)


class TestBoundaryEncoder:
    @given(
        layer=st.integers(0, 32767),
        datatype=st.sampled_from([0, 1]),
        group=st.lists(rects, max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_per_record_oracle(self, layer, datatype, group):
        assert boundaries_bytes(layer, datatype, group) == _oracle(
            layer, datatype, group
        )

    def test_empty_group_encodes_to_nothing(self):
        assert boundaries_bytes(5, 1, []) == b""
        # like the oracle, an empty group checks nothing
        assert boundaries_bytes(40000, 1, []) == _oracle(40000, 1, []) == b""

    @pytest.mark.parametrize(
        "layer, datatype, rect",
        [
            (32768, 0, Rect(0, 0, 1, 1)),
            (-32769, 0, Rect(0, 0, 1, 1)),
            (1, 40000, Rect(0, 0, 1, 1)),
            (1, -32769, Rect(0, 0, 1, 1)),
            (1, 0, Rect(0, 0, INT4_MAX + 1, 5)),
            (1, 0, Rect(INT4_MIN - 1, 0, 5, 5)),
            (1, 0, Rect(0, 0, 2**70, 5)),
            (1, 0, Rect(-(2**70), 0, 5, 5)),
            (1, 0, Rect(0, 0, 2**63, 5)),
            (1, 0, Rect(0.5, 0, 5, 5)),
            (1.0, 0, Rect(0, 0, 5, 5)),
        ],
    )
    def test_out_of_range_raises_like_oracle(self, layer, datatype, rect):
        with pytest.raises(struct.error):
            _boundary_bytes(layer, datatype, rect)
        group = [Rect(0, 0, 10, 10), rect, Rect(1, 1, 2, 2)]
        with pytest.raises(struct.error):
            boundaries_bytes(layer, datatype, group)

    def test_bool_coordinates_accepted_like_oracle(self):
        rect = Rect(False, False, True, True)
        assert boundaries_bytes(1, 0, [rect]) == _boundary_bytes(1, 0, rect)


def _stream(emit):
    buf = io.BytesIO()
    writer = GdsiiStreamWriter(buf)
    emit(writer)
    total = writer.close()
    assert total == len(buf.getvalue())
    return buf.getvalue()


class TestStreamWriterRectangles:
    @pytest.mark.parametrize("count", [CHUNK - 1, CHUNK, CHUNK + 1])
    def test_equals_per_shape_boundary(self, count):
        shapes = [Rect(k, -k, k + 3, 7) for k in range(count)]

        def per_shape(writer):
            for rect in shapes:
                writer.boundary(4, 1, rect)

        def grouped(writer):
            writer.rectangles(4, 1, iter(shapes))  # a one-pass iterable

        data = _stream(grouped)
        assert data == _stream(per_shape)
        assert _oracle(4, 1, shapes) in data

    def test_empty_group_writes_nothing(self):
        assert _stream(lambda w: w.rectangles(1, 0, [])) == _stream(lambda w: None)

    def test_closed_writer_rejects_rectangles(self):
        writer = GdsiiStreamWriter(io.BytesIO())
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            writer.rectangles(1, 0, [Rect(0, 0, 1, 1)])

    @pytest.mark.parametrize("include_wires", [True, False])
    def test_gdsii_bytes_equals_oracle_file(self, include_wires):
        spec = LayoutSpec(name="enc", die_size=900, seed=4, num_cell_rects=30)
        layout = generate_layout(spec)
        for layer in layout.layers:
            layer.add_fills(Rect(k * 20, 880, k * 20 + 10, 890) for k in range(40))

        def per_shape(writer):
            writer.boundary(DIE_LAYER, 0, layout.die)
            for layer in layout.layers:
                if include_wires:
                    for wire in layer.wires:
                        writer.boundary(layer.number, 0, wire)
                for fill in layer.fills:
                    writer.boundary(layer.number, 1, fill)

        body = b"".join(
            [_boundary_bytes(DIE_LAYER, 0, layout.die)]
            + [
                _oracle(layer.number, 0, layer.wires if include_wires else [])
                + _oracle(layer.number, 1, layer.fills)
                for layer in layout.layers
            ]
        )
        data = gdsii_bytes(layout, include_wires=include_wires)
        assert data == _stream(per_shape)
        assert body in data
