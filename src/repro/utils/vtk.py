"""VTK output for solution fields.

The paper's software stack writes ``.vtu`` files 'in binary format with
compression enabled' via ZLib (Appendix, library dependencies).  Our
fields live on uniform grids, so the natural VTK container is ImageData
(``.vti``) — same XML family, structured variant.  This module writes
zlib-compressed binary ``.vti`` files (readable by ParaView/VisIt);
``tests/vti_reader.py`` reads them back.
"""

from __future__ import annotations

import base64
import struct
import zlib
from pathlib import Path
from xml.etree import ElementTree

import numpy as np

__all__ = ["write_vti"]

_HEADER_DTYPE = "UInt64"


def _encode_block(raw: bytes, level: int = 6) -> str:
    """VTK 'binary' (base64) encoding of one zlib-compressed block.

    Layout: header [nblocks, blocksize, lastsize, compressed_size] as
    UInt64, base64-encoded separately, then the compressed payload.
    """
    compressed = zlib.compress(raw, level)
    header = struct.pack("<4Q", 1, len(raw), len(raw), len(compressed))
    return (base64.b64encode(header).decode("ascii")
            + base64.b64encode(compressed).decode("ascii"))


def write_vti(path: str | Path, fields: dict[str, np.ndarray],
              spacing: float | None = None) -> Path:
    """Write nodal fields on a uniform grid with its origin at 0 to a
    compressed ``.vti`` file.

    Parameters
    ----------
    fields:
        Name -> array of shape (R,)*2 or (R,)*3 (all identical shapes).
        2D fields are written as one-cell-thick 3D volumes.
    spacing:
        Grid spacing; defaults to ``1 / (R - 1)`` (unit domain).
    """
    if not fields:
        raise ValueError("no fields given")
    shapes = {f.shape for f in fields.values()}
    if len(shapes) != 1:
        raise ValueError(f"field shapes differ: {shapes}")
    shape = shapes.pop()
    if len(shape) not in (2, 3):
        raise ValueError("fields must be 2D or 3D")
    dims = tuple(shape) + (1,) * (3 - len(shape))
    h = spacing if spacing is not None else 1.0 / (max(dims) - 1)

    extent = f"0 {dims[0] - 1} 0 {dims[1] - 1} 0 {dims[2] - 1}"
    root = ElementTree.Element("VTKFile", {
        "type": "ImageData", "version": "1.0",
        "byte_order": "LittleEndian",
        "header_type": _HEADER_DTYPE,
        "compressor": "vtkZLibDataCompressor"})
    image = ElementTree.SubElement(root, "ImageData", {
        "WholeExtent": extent,
        "Origin": "0.0 0.0 0.0",
        "Spacing": f"{h} {h} {h}"})
    piece = ElementTree.SubElement(image, "Piece", {"Extent": extent})
    pdata = ElementTree.SubElement(piece, "PointData",
                                   {"Scalars": next(iter(fields))})
    for name, field in fields.items():
        arr = np.asarray(field, dtype=np.float64)
        # VTK iterates x fastest; our arrays are (x, y[, z]) C-order, so
        # transpose to put x last before ravelling.
        flat = np.ascontiguousarray(arr.T).ravel()
        da = ElementTree.SubElement(pdata, "DataArray", {
            "type": "Float64", "Name": name, "format": "binary",
            "NumberOfComponents": "1"})
        da.text = _encode_block(flat.tobytes())

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    ElementTree.ElementTree(root).write(path, xml_declaration=True,
                                        encoding="UTF-8")
    return path
