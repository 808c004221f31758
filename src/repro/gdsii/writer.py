"""GDSII writer for filled layouts.

Emits a single-structure GDSII library containing every wire and fill
of a :class:`~repro.layout.Layout` as BOUNDARY elements.  Wires carry
GDSII datatype 0 and dummy fills datatype 1 — the convention the
ICCAD 2014 contest used to let the evaluator separate signal geometry
from inserted fill.

The byte count of the emitted stream is the raw input to the contest
file-size score s_fs (Eqn. (3)); the paper's observation that
*fewer, larger* fills shrink the output file is directly visible here,
since every fill costs one fixed-size BOUNDARY element.

:class:`GdsiiStreamWriter` is the incremental form: header on
construction, shape groups through
:meth:`~GdsiiStreamWriter.rectangles` (or single shapes through
:meth:`~GdsiiStreamWriter.boundary`), trailer on
:meth:`~GdsiiStreamWriter.close` — at most one bounded block of shapes
is buffered, so the out-of-core pipeline can append fills as bands
complete while staying byte-identical to :func:`write_gdsii` for the
same shape sequence.  Every rectangle goes through the one vectorized
encoder :func:`boundaries_bytes`.
"""

from __future__ import annotations

import io
from itertools import islice
from operator import attrgetter
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from ..geometry import Rect
from ..layout import Layout
from .records import DataType, RecordType, encode_ascii, encode_int2, encode_int4, encode_real8, pack_record

__all__ = [
    "GdsiiStreamWriter",
    "boundaries_bytes",
    "write_gdsii",
    "gdsii_bytes",
    "WIRE_DATATYPE",
    "FILL_DATATYPE",
    "DIE_LAYER",
]

WIRE_DATATYPE = 0
FILL_DATATYPE = 1
#: The die outline is stored as a boundary on this reserved layer so a
#: round-trip through GDSII preserves the window dissection frame.
DIE_LAYER = 0

# Fixed timestamp: deterministic output so file-size scores and the
# byte-identity round-trip tests are reproducible.
_TIMESTAMP = (2014, 11, 1, 0, 0, 0)


#: One rectangle BOUNDARY element is a fixed 64-byte record sequence:
#: BOUNDARY, LAYER + int2, DATATYPE + int2, XY + 10 x int4 (a closed
#: counter-clockwise loop of 5 points), ENDEL.  The constant record
#: headers are fields of the structured dtype, so a whole shape group
#: encodes as one array and one ``tobytes()``.
_BOUNDARY_DTYPE = np.dtype(
    {
        "names": ["boundary", "layer_head", "layer", "datatype_head",
                  "datatype", "xy_head", "xy", "endel"],
        "formats": [">u4", ">u4", ">i2", ">u4", ">i2", ">u4", (">i4", (10,)), ">u4"],
        "offsets": [0, 4, 8, 10, 14, 16, 20, 60],
        "itemsize": 64,
    }
)
_HEADS = {
    name: int.from_bytes(pack_record(rec, data, bytes(size))[:4], "big")
    for name, rec, data, size in (
        ("boundary", RecordType.BOUNDARY, DataType.NO_DATA, 0),
        ("layer_head", RecordType.LAYER, DataType.INT2, 2),
        ("datatype_head", RecordType.DATATYPE, DataType.INT2, 2),
        ("xy_head", RecordType.XY, DataType.INT4, 40),
        ("endel", RecordType.ENDEL, DataType.NO_DATA, 0),
    )
}
#: (xl, yl, xh, yh) columns -> the XY loop xl,yl xh,yl xh,yh xl,yh xl,yl
_LOOP = [0, 1, 2, 1, 2, 3, 0, 3, 0, 1]
_INT4_MIN, _INT4_MAX = -(2**31), 2**31 - 1
_CORNERS = attrgetter("xl", "yl", "xh", "yh")

#: rectangles per encoded block of :meth:`GdsiiStreamWriter.rectangles`
CHUNK = 4096


def _coordinates(rects: Sequence[Rect]) -> np.ndarray:
    """The rects' ``(xl, yl, xh, yh)`` rows as int64, int4-range checked.

    NumPy casts wrap silently, so anything that is not an in-range
    integer is handed to :func:`encode_int4`, which raises the
    ``struct.error`` the per-record encoder always raised.
    """
    corners = list(map(_CORNERS, rects))
    coords = np.array(corners)
    if coords.dtype.kind not in "biu":  # floats, ints beyond int64
        encode_int4([v for c in corners for v in c])
        coords = np.array(corners, dtype=np.int64)
    if coords.min() < _INT4_MIN or coords.max() > _INT4_MAX:
        encode_int4([v for c in corners for v in c])
    return coords


def boundaries_bytes(layer: int, datatype: int, rects: Sequence[Rect]) -> bytes:
    """One rectangle BOUNDARY element per rect, as one byte string.

    Raises ``struct.error`` for a layer or datatype outside int2 or a
    coordinate outside int4, as record encoding does; an empty group
    encodes to nothing.
    """
    if not rects:
        return b""
    encode_int2([layer, datatype])
    coords = _coordinates(rects)
    out = np.empty(len(rects), dtype=_BOUNDARY_DTYPE)
    for name, head in _HEADS.items():
        out[name] = head
    out["layer"] = layer
    out["datatype"] = datatype
    out["xy"] = coords[:, _LOOP]
    return out.tobytes()


class GdsiiStreamWriter:
    """Incremental GDSII emitter.

    Writes the library/structure header on construction, then one
    BOUNDARY element per rectangle handed to :meth:`rectangles` or
    :meth:`boundary`, and the ENDSTR/ENDLIB trailer on :meth:`close`.
    Emitting the same shapes in the same order as :func:`write_gdsii`
    produces the same bytes — the writer holds no state beyond the
    running byte count.
    """

    def __init__(
        self,
        stream: BinaryIO,
        *,
        library_name: str = "FILL",
        structure_name: str = "TOP",
        user_unit: float = 1e-3,
        db_unit_meters: float = 1e-9,
    ):
        self._stream = stream
        self._bytes_written = 0
        self._closed = False
        self._write(
            pack_record(RecordType.HEADER, DataType.INT2, encode_int2([600]))
        )
        self._write(
            pack_record(
                RecordType.BGNLIB, DataType.INT2, encode_int2(list(_TIMESTAMP * 2))
            )
        )
        self._write(
            pack_record(
                RecordType.LIBNAME, DataType.ASCII, encode_ascii(library_name)
            )
        )
        self._write(
            pack_record(
                RecordType.UNITS,
                DataType.REAL8,
                encode_real8(user_unit) + encode_real8(db_unit_meters),
            )
        )
        self._write(
            pack_record(
                RecordType.BGNSTR, DataType.INT2, encode_int2(list(_TIMESTAMP * 2))
            )
        )
        self._write(
            pack_record(
                RecordType.STRNAME, DataType.ASCII, encode_ascii(structure_name)
            )
        )

    def _write(self, data: bytes) -> None:
        self._stream.write(data)
        self._bytes_written += len(data)

    @property
    def bytes_written(self) -> int:
        return self._bytes_written

    def boundary(self, layer: int, datatype: int, rect: Rect) -> None:
        """Emit one rectangle BOUNDARY element (e.g. the die outline)."""
        self.rectangles(layer, datatype, (rect,))

    def rectangles(
        self, layer: int, datatype: int, rects: Iterable[Rect]
    ) -> None:
        """Emit one BOUNDARY element per rect, in iteration order.

        The rects are encoded :data:`CHUNK` at a time, so an iterable
        streamed off disk is never held in full.
        """
        if self._closed:
            raise ValueError("writer is closed")
        it = iter(rects)
        while chunk := list(islice(it, CHUNK)):
            self._write(boundaries_bytes(layer, datatype, chunk))

    def close(self) -> int:
        """Write the ENDSTR/ENDLIB trailer; returns total bytes written."""
        if not self._closed:
            self._write(pack_record(RecordType.ENDSTR, DataType.NO_DATA))
            self._write(pack_record(RecordType.ENDLIB, DataType.NO_DATA))
            self._closed = True
        return self._bytes_written

    def __enter__(self) -> "GdsiiStreamWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def write_gdsii(
    layout: Layout,
    stream: BinaryIO,
    *,
    library_name: str = "FILL",
    structure_name: str = "TOP",
    user_unit: float = 1e-3,
    db_unit_meters: float = 1e-9,
    include_wires: bool = True,
) -> int:
    """Serialise ``layout`` as GDSII; returns the number of bytes written.

    ``include_wires=False`` emits a fill-only file, matching contest
    submissions where only inserted geometry is returned.
    """
    writer = GdsiiStreamWriter(
        stream,
        library_name=library_name,
        structure_name=structure_name,
        user_unit=user_unit,
        db_unit_meters=db_unit_meters,
    )
    writer.boundary(DIE_LAYER, WIRE_DATATYPE, layout.die)
    for layer in layout.layers:
        if include_wires:
            writer.rectangles(layer.number, WIRE_DATATYPE, layer.wires)
        writer.rectangles(layer.number, FILL_DATATYPE, layer.fills)
    return writer.close()


def gdsii_bytes(layout: Layout, **kwargs) -> bytes:
    """Serialise ``layout`` to an in-memory GDSII byte string."""
    buf = io.BytesIO()
    write_gdsii(layout, buf, **kwargs)
    return buf.getvalue()
