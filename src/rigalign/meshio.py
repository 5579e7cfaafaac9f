"""File formats: OBJ and binary PLY geometry, FMAP feature maps, EMIT cost
tables, PGM masks and camera JSON (pose-track JSON lives in `align`).

All distances on disk are meters. PLY files are binary little-endian.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import InvalidInput
from .geometry import Camera, PointCloud, TriangleMesh

FMAP_MAGIC = b"FMAP"
EMIT_MAGIC = b"EMIT"


def write_atomic(path, data: bytes) -> None:
    """Write `data` to a temporary file beside `path`, then rename it over
    `path`: a reader sees the old file or the whole new one, never a part."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_input(path, what: str, *, text: bool = False):
    """The bytes of an input file, or its UTF-8 text with `text`. A file that
    cannot be read, or is not UTF-8 text, raises InvalidInput."""
    path = Path(path)
    try:
        blob = path.read_bytes()
        return blob.decode("utf-8") if text else blob
    except OSError as e:
        raise InvalidInput(f"cannot read {what} {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise InvalidInput(f"{path}: invalid {what}: {e}") from e


def json_text(obj) -> str:
    """The layout of every JSON file written: indent 2, sorted keys, final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def json_int(value, what: str) -> int:
    """`value` when it is a JSON integer; a float, a bool or a string raises
    ValueError naming `what`, where int() would truncate or convert it."""
    if type(value) is not int:
        raise ValueError(f"{what} is {json.dumps(value)}, not an integer")
    return value


def json_float(value, what: str) -> float:
    """`value` as a float when it is a JSON number; a bool or a string raises
    ValueError naming `what`, where float() would convert it. An integer too
    large for a float raises OverflowError."""
    if type(value) not in (int, float):
        raise ValueError(f"{what} is {json.dumps(value)}, not a number")
    return float(value)


def frame_file(kind: str, t: int, ext: str) -> str:
    """Frame t's `kind` file name, `<kind>_NNNNNN.<ext>`: six-digit frame index."""
    return f"{kind}_{t:06d}.{ext}"


# ---------------------------------------------------------------------------
# OBJ (ASCII).


def load_obj(path) -> TriangleMesh:
    """ASCII OBJ: `v` and `f` lines, 1-based indices, polygons fan-triangulated."""
    path = Path(path)
    vertices: list[list[float]] = []
    faces: list[list[int]] = []
    text = read_input(path, "OBJ file", text=True)
    for ln, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "v":
            if len(parts) < 4:
                raise InvalidInput(f"{path}:{ln}: vertex needs 3 coordinates")
            try:
                vertices.append([float(x) for x in parts[1:4]])
            except ValueError as e:
                raise InvalidInput(f"{path}:{ln}: bad vertex coordinate: {e}") from e
        elif parts[0] == "f":
            idx = []
            for tok in parts[1:]:
                try:
                    i = int(tok.split("/")[0])
                except ValueError as e:
                    raise InvalidInput(f"{path}:{ln}: bad face index: {e}") from e
                if i < 1:
                    raise InvalidInput(f"{path}:{ln}: face indices must be positive (1-based)")
                idx.append(i - 1)
            if len(idx) < 3:
                raise InvalidInput(f"{path}:{ln}: face needs at least 3 vertices")
            for k in range(1, len(idx) - 1):
                faces.append([idx[0], idx[k], idx[k + 1]])
    try:
        return TriangleMesh(np.array(vertices, dtype=float).reshape(-1, 3), np.array(faces, dtype=np.int64).reshape(-1, 3))
    except ValueError as e:
        raise InvalidInput(f"{path}: {e}") from e


def save_obj(mesh: TriangleMesh, path) -> None:
    lines = [f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}" for v in mesh.vertices]
    lines += [f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}" for f in mesh.faces]
    write_atomic(path, ("\n".join(lines) + "\n").encode("ascii"))


# ---------------------------------------------------------------------------
# PLY (binary little-endian).

_PLY_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}


def _parse_ply_header(blob: bytes, path):
    if not blob.startswith(b"ply"):
        raise InvalidInput(f"{path}: not a PLY file")
    end = blob.find(b"end_header\n")
    if end < 0:
        raise InvalidInput(f"{path}: PLY header is not terminated")
    header = blob[: end + len(b"end_header\n")].decode("ascii", errors="replace")
    body = blob[end + len(b"end_header\n"):]
    # (name, count, props): a scalar prop is (name, dtype), a list prop
    # (name, count_dtype, item_dtype); each name is declared once
    elements = []
    fmt_seen = False
    for line in header.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "format":
            if parts[1:2] != ["binary_little_endian"]:
                raise InvalidInput(f"{path}: only binary_little_endian PLY is supported")
            fmt_seen = True
        elif parts[0] == "element":
            if len(parts) < 3 or not parts[2].isdigit():
                raise InvalidInput(f"{path}: bad PLY element line '{line}'")
            if parts[1] in {name for name, _, _ in elements}:
                raise InvalidInput(f"{path}: PLY element '{parts[1]}' is declared twice")
            elements.append((parts[1], int(parts[2]), []))
        elif parts[0] == "property":
            if not elements:
                raise InvalidInput(f"{path}: property before any element")
            try:
                if parts[1] == "list":
                    prop = (parts[4], _PLY_TYPES[parts[2]], _PLY_TYPES[parts[3]])
                else:
                    prop = (parts[2], _PLY_TYPES[parts[1]])
            except (IndexError, KeyError):
                raise InvalidInput(f"{path}: bad PLY property line '{line}'") from None
            if len(prop) == 3 and not (prop[1][0] in "iu" and prop[2][0] in "iu"):
                raise InvalidInput(f"{path}: list property '{prop[0]}' needs integer count "
                                   f"and item types, not '{parts[2]} {parts[3]}'")
            element, _, props = elements[-1]
            if prop[0] in {p[0] for p in props}:
                raise InvalidInput(f"{path}: PLY property '{prop[0]}' of element '{element}' "
                                   f"is declared twice")
            props.append(prop)
    if not fmt_seen:
        raise InvalidInput(f"{path}: PLY format line missing")
    return elements, body


def _read_ply(path):
    """Returns {element_name: dict of property arrays} for vertex/face elements."""
    path = Path(path)
    blob = read_input(path, "PLY file")
    elements, body = _parse_ply_header(blob, path)

    def take(dtype, count, offset):
        if count < 0 or offset + dtype.itemsize * count > len(body):
            raise InvalidInput(f"{path}: PLY body is truncated")
        return np.frombuffer(body, dtype, count, offset)

    out: dict[str, dict[str, np.ndarray]] = {}
    offset = 0
    for name, count, props in elements:
        if any(len(p) == 3 for p in props):
            if len(props) != 1:
                raise InvalidInput(f"{path}: mixed list/scalar element '{name}' unsupported")
            prop_name, cnt_t, item_t = props[0]
            cnt_dt = np.dtype("<" + cnt_t)
            item_dt = np.dtype("<" + item_t)
            rows = []
            for _ in range(count):
                n = int(take(cnt_dt, 1, offset)[0])
                offset += cnt_dt.itemsize
                rows.append(take(item_dt, n, offset).astype(np.int64))
                offset += item_dt.itemsize * n
            out[name] = {prop_name: rows}
        else:
            dt = np.dtype([(pn, "<" + pt) for pn, pt in props])
            arr = take(dt, count, offset)
            offset += dt.itemsize * count
            out[name] = {pn: arr[pn] for pn, _ in props}
    if offset < len(body):
        raise InvalidInput(f"{path}: PLY body has {len(body) - offset} bytes "
                           "after its last element")
    return out


def _face_rows(data, path) -> list:
    face = data.get("face", {})
    for name in ("vertex_indices", "vertex_index"):
        if name in face:
            if not isinstance(face[name], list):  # list properties are read as lists of rows
                raise InvalidInput(f"{path}: face property '{name}' is a scalar, not a list")
            return face[name]
    return []


def load_ply_cloud(path) -> PointCloud:
    """Point cloud with optional uchar red/green/blue and uchar label properties."""
    return _cloud_from(_read_ply(path), path)


def _vertex_points(v, path) -> np.ndarray:
    """(N, 3) float positions of a PLY vertex element, which must have x, y and z."""
    for k in ("x", "y", "z"):
        if k not in v:
            raise InvalidInput(f"{path}: vertex element lacks property '{k}'")
    return np.stack([v["x"], v["y"], v["z"]], axis=1).astype(float)


def _cloud_from(data, path) -> PointCloud:
    if "vertex" not in data:
        raise InvalidInput(f"{path}: PLY has no vertex element")
    v = data["vertex"]
    points = _vertex_points(v, path)
    for k in ("red", "green", "blue"):
        if k in v and v[k].dtype != np.uint8:  # a float 0.5 would load as 0.5 / 255
            raise InvalidInput(f"{path}: vertex property '{k}' must have type uchar, "
                               f"not {v[k].dtype}")
    colors = None
    if all(k in v for k in ("red", "green", "blue")):
        colors = np.stack([v["red"], v["green"], v["blue"]], axis=1).astype(float) / 255.0
    labels = None
    if "label" in v:
        if v["label"].dtype.kind not in "iu":  # a float label would be truncated
            raise InvalidInput(f"{path}: vertex property 'label' must have an integer type, "
                               f"not {v['label'].dtype}")
        labels = v["label"].astype(np.int64)
    try:
        return PointCloud(points, colors, labels)
    except ValueError as e:
        raise InvalidInput(f"{path}: {e}") from e


def save_ply_cloud(cloud: PointCloud, path) -> None:
    n = len(cloud)
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {n}",
              "property float x", "property float y", "property float z"]
    fields = [cloud.points.astype("<f4")]
    if cloud.colors is not None:
        header += ["property uchar red", "property uchar green", "property uchar blue"]
        fields.append(np.clip(np.round(cloud.colors * 255.0), 0, 255).astype("u1"))
    if cloud.labels is not None:
        header += ["property uchar label"]
        fields.append(cloud.labels.astype("u1").reshape(-1, 1))
    header += ["end_header"]
    dtype = []
    for k, arr in enumerate(fields):
        for c in range(arr.shape[1]):
            dtype.append((f"p{k}_{c}", arr.dtype.str))
    rec = np.empty(n, dtype=dtype)
    for k, arr in enumerate(fields):
        for c in range(arr.shape[1]):
            rec[f"p{k}_{c}"] = arr[:, c]
    write_atomic(path, "\n".join(header).encode("ascii") + b"\n" + rec.tobytes())


def load_ply_mesh(path) -> TriangleMesh:
    return _mesh_from(_read_ply(path), path)


def _mesh_from(data, path) -> TriangleMesh:
    if "vertex" not in data or "face" not in data:
        raise InvalidInput(f"{path}: PLY mesh needs vertex and face elements")
    points = _vertex_points(data["vertex"], path)
    faces = []
    for row in _face_rows(data, path):
        if len(row) < 3:
            raise InvalidInput(f"{path}: face with fewer than 3 indices")
        for k in range(1, len(row) - 1):
            faces.append([row[0], row[k], row[k + 1]])
    try:
        return TriangleMesh(points, np.array(faces, dtype=np.int64).reshape(-1, 3))
    except ValueError as e:
        raise InvalidInput(f"{path}: {e}") from e


def save_ply_mesh(mesh: TriangleMesh, path) -> None:
    nv, nf = len(mesh.vertices), len(mesh.faces)
    header = ("ply\nformat binary_little_endian 1.0\n"
              f"element vertex {nv}\n"
              "property float x\nproperty float y\nproperty float z\n"
              f"element face {nf}\n"
              "property list uchar int vertex_indices\nend_header\n")
    verts = mesh.vertices.astype("<f4").tobytes()
    face_dt = np.dtype([("n", "u1"), ("i", "<i4", (3,))])
    rec = np.empty(nf, dtype=face_dt)
    rec["n"] = 3
    rec["i"] = mesh.faces.astype("<i4")
    write_atomic(path, header.encode("ascii") + verts + rec.tobytes())


def load_mesh(path) -> TriangleMesh:
    """Dispatch on extension: .obj or .ply."""
    suffix = Path(path).suffix.lower()
    if suffix == ".obj":
        return load_obj(path)
    if suffix == ".ply":
        return load_ply_mesh(path)
    raise InvalidInput(f"{path}: unsupported mesh format '{suffix}'")


def load_ply_geometry(path):
    """PLY as a TriangleMesh when faces are present, else a PointCloud."""
    data = _read_ply(path)
    if any(len(r) for r in _face_rows(data, path)):
        return _mesh_from(data, path)
    return _cloud_from(data, path)


# ---------------------------------------------------------------------------
# FMAP: dense feature maps with a silhouette mask.
# Layout: magic 'FMAP', u32 version=1, u32 H, u32 W, u32 C,
#         H*W*C float32 row-major, then H*W uint8 mask (nonzero = in).


def save_fmap(features: np.ndarray, mask: np.ndarray, path) -> None:
    feats = np.ascontiguousarray(features, dtype="<f4")
    h, w, c = feats.shape
    m = np.ascontiguousarray(mask.astype(bool), dtype="u1")
    if m.shape != (h, w):
        raise InvalidInput("mask shape must match feature grid")
    write_atomic(path, FMAP_MAGIC + struct.pack("<IIII", 1, h, w, c) + feats.tobytes()
                 + m.tobytes())


def load_fmap(path):
    """Returns (features (H, W, C) float32, mask (H, W) bool); the features
    are a read-only view of the file's bytes, not a copy. Every feature
    value must be finite, masked in or not: a mask file may override the
    map's own mask."""
    path = Path(path)
    blob = read_input(path, "feature map")
    if blob[:4] != FMAP_MAGIC:
        raise InvalidInput(f"{path}: bad FMAP magic")
    if len(blob) < 20:
        raise InvalidInput(f"{path}: truncated FMAP header")
    version, h, w, c = struct.unpack("<IIII", blob[4:20])
    if version != 1:
        raise InvalidInput(f"{path}: unsupported FMAP version {version}")
    need = 20 + h * w * c * 4 + h * w
    if len(blob) != need:
        raise InvalidInput(f"{path}: FMAP payload size mismatch ({len(blob)} != {need})")
    feats = np.frombuffer(blob, "<f4", h * w * c, 20).reshape(h, w, c)
    bad = np.argwhere(~np.isfinite(feats))
    if len(bad):
        i, j, k = bad[0]
        raise InvalidInput(f"{path}: feature value at row {i}, column {j}, channel {k} "
                           f"is not finite")
    mask = np.frombuffer(blob, "u1", h * w, 20 + h * w * c * 4).reshape(h, w) != 0
    return feats, mask


# ---------------------------------------------------------------------------
# EMIT: precomputed emission cost tables.
# Layout: magic 'EMIT', u32 frames T, u32 states S, T*S float32.


def save_emission_table(costs: np.ndarray, path) -> None:
    arr = np.ascontiguousarray(costs, dtype="<f4")
    t, s = arr.shape
    write_atomic(path, EMIT_MAGIC + struct.pack("<II", t, s) + arr.tobytes())


def load_emission_table(path) -> np.ndarray:
    path = Path(path)
    blob = read_input(path, "emission table")
    if blob[:4] != EMIT_MAGIC:
        raise InvalidInput(f"{path}: bad EMIT magic")
    if len(blob) < 12:
        raise InvalidInput(f"{path}: EMIT header cut short ({len(blob)} of 12 bytes)")
    t, s = struct.unpack("<II", blob[4:12])
    if len(blob) != 12 + t * s * 4:
        raise InvalidInput(f"{path}: EMIT payload size mismatch")
    return np.frombuffer(blob, "<f4", t * s, 12).reshape(t, s).astype(float)


# ---------------------------------------------------------------------------
# PGM (P5) masks: nonzero = in.


def save_pgm_mask(mask: np.ndarray, path) -> None:
    m = np.ascontiguousarray(mask.astype(bool), dtype="u1") * np.uint8(255)
    h, w = m.shape
    write_atomic(path, f"P5\n{w} {h}\n255\n".encode("ascii") + m.tobytes())


def load_pgm_mask(path) -> np.ndarray:
    path = Path(path)
    blob = read_input(path, "mask")
    if not blob.startswith(b"P5"):
        raise InvalidInput(f"{path}: only binary PGM (P5) masks are supported")
    # header tokens: P5, width, height, maxval; '#' comments allowed
    tokens: list[bytes] = []
    i = 2
    while len(tokens) < 3 and i < len(blob):
        if blob[i : i + 1].isspace():
            i += 1
        elif blob[i : i + 1] == b"#":
            i = blob.find(b"\n", i)
            if i < 0:
                break
            i += 1
        else:
            j = i
            while j < len(blob) and not blob[j : j + 1].isspace():
                j += 1
            tokens.append(blob[i:j])
            i = j
    if len(tokens) < 3:
        raise InvalidInput(f"{path}: truncated PGM header")
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError:
        raise InvalidInput(f"{path}: non-numeric PGM header") from None
    if w < 0 or h < 0:
        raise InvalidInput(f"{path}: negative PGM size {w}x{h}")
    if maxval != 255:
        raise InvalidInput(f"{path}: PGM maxval must be 255")
    i += 1  # single whitespace after maxval
    data = blob[i : i + w * h]
    if len(data) != w * h:
        raise InvalidInput(f"{path}: PGM payload size mismatch")
    return np.frombuffer(data, "u1").reshape(h, w) != 0


# ---------------------------------------------------------------------------
# Camera and pose-track JSON.


_CAMERA_KEYS = ("fx", "fy", "cx", "cy", "width", "height")


def load_camera(path) -> Camera:
    path = Path(path)
    text = read_input(path, "camera file", text=True)
    try:
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("not a JSON object")
        unknown = [key for key in obj if key not in _CAMERA_KEYS]
        if unknown:
            raise ValueError(f"unknown key {', '.join(map(repr, unknown))}")
        return Camera(**{key: json_float(obj[key], key) for key in ("fx", "fy", "cx", "cy")},
                      width=json_int(obj["width"], "width"),
                      height=json_int(obj["height"], "height"))
    except (KeyError, TypeError, ValueError, OverflowError, json.JSONDecodeError) as e:
        raise InvalidInput(f"{path}: invalid camera file: {e}") from e


def save_camera(camera: Camera, path) -> None:
    obj = {"fx": camera.fx, "fy": camera.fy, "cx": camera.cx, "cy": camera.cy,
           "width": camera.width, "height": camera.height}
    write_atomic(path, json_text(obj).encode("ascii"))
