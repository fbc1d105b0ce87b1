"""Read back a ``.vti`` written by ``repro.utils.vtk.write_vti``: the
round-trip check of the writer and of the CLI's ``--output``."""

from __future__ import annotations

import base64
import struct
import zlib
from pathlib import Path
from xml.etree import ElementTree

import numpy as np


def _decode_block(text: str) -> bytes:
    header_len = len(base64.b64encode(b"\0" * 32))  # 4 x UInt64 -> 44 chars
    header = base64.b64decode(text[:header_len])
    _, _, _, comp_size = struct.unpack("<4Q", header)
    payload = base64.b64decode(text[header_len:])
    return zlib.decompress(payload[:comp_size])


def read_vti(path: str | Path) -> tuple[dict[str, np.ndarray], float]:
    """Read back a ``.vti`` written by :func:`write_vti`.

    Returns (fields, spacing); one-cell-thick volumes are squeezed back
    to 2D.
    """
    tree = ElementTree.parse(path)
    root = tree.getroot()
    image = root.find("ImageData")
    if image is None:
        raise ValueError("not an ImageData .vti file")
    spacing = float(image.get("Spacing").split()[0])
    extent = [int(v) for v in image.get("WholeExtent").split()]
    dims = (extent[1] + 1, extent[3] + 1, extent[5] + 1)

    fields: dict[str, np.ndarray] = {}
    for da in image.iter("DataArray"):
        raw = _decode_block(da.text.strip())
        flat = np.frombuffer(raw, dtype=np.float64)
        arr = flat.reshape(dims[::-1]).T  # undo the x-fastest transpose
        if dims[2] == 1:
            arr = arr[:, :, 0]
        fields[da.get("Name")] = arr.copy()
    return fields, spacing
