"""Interchange file formats.

Profile CSV: header ``t,phi``, strictly increasing t.
Polygon CSV: header ``x,y``, counterclockwise vertex cycle.
Function CSV: header ``x,value``.
Stack file: plain text, ``dim=N levels=K`` header, then K lines of
``t=<height> profile=<path to profile CSV>`` (paths relative to the stack
file).

Content that does not parse, or that the loaded object's constructor
rejects (a NaN radius, heights out of order, bodies not nested, ...), is a
configuration error: the loaders raise ``ConfigError`` naming the file.
Every file is written through ``write_lines``, so a failed write never
leaves a half-written file.
"""

from __future__ import annotations

import os

import numpy as np

from .bodies import ConvexPolygon, RevolutionBody
from .errors import ConfigError
from .pl1d import WHOLE_LINE, GridFn1D
from .pln import LevelStack


def _build(path: str, kind, *args, **kwargs):
    """``kind(*args, **kwargs)``, with a rejection of the file's content
    reported as a ``ConfigError`` that names the file."""
    try:
        return kind(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None


def write_lines(path: str, lines) -> None:
    """Write the text lines to a sibling temporary file and rename it over
    ``path``, so an interrupted write leaves any previous file untouched."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_columns(path: str, header: str, a, b) -> None:
    write_lines(path, [header] + [f"{x:.17g},{y:.17g}" for x, y in zip(a, b)])


def _read_two_columns(path: str, expected_header: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != expected_header:
            raise ConfigError(
                f"{path}: expected header {expected_header!r}, got {header!r}"
            )
        data = _build(path, np.loadtxt, fh, delimiter=",", ndmin=2)
    if data.shape[1] != 2:
        raise ConfigError(f"{path}: expected two columns")
    return data


def sniff_body_header(path: str) -> str:
    """'profile' for t,phi files and 'polygon' for x,y files."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().replace(" ", "")
    if header == "t,phi":
        return "profile"
    if header == "x,y":
        return "polygon"
    raise ConfigError(f"{path}: unrecognized body header {header!r}")


def load_profile(path: str, dim: int) -> RevolutionBody:
    data = _read_two_columns(path, "t,phi")
    return _build(path, RevolutionBody, dim, data[:, 0], data[:, 1])


def save_profile(path: str, body: RevolutionBody) -> None:
    _write_columns(path, "t,phi", body.t, body.radius)


def load_polygon(path: str) -> ConvexPolygon:
    data = _read_two_columns(path, "x,y")
    return _build(path, ConvexPolygon, data)


def save_polygon(path: str, poly: ConvexPolygon) -> None:
    _write_columns(path, "x,y", poly.vertices[:, 0], poly.vertices[:, 1])


def load_body(path: str, dim: int = 3):
    """The body a file holds, by its header: a ``dim``-dimensional body of
    revolution for ``t,phi`` and a polygon for ``x,y``."""
    if sniff_body_header(path) == "profile":
        return load_profile(path, dim)
    return load_polygon(path)


def load_gridfn(path: str, domain: str = WHOLE_LINE) -> GridFn1D:
    data = _read_two_columns(path, "x,value")
    return _build(path, GridFn1D, data[:, 0], data[:, 1], domain=domain)


def save_gridfn(path: str, f: GridFn1D) -> None:
    _write_columns(path, "x,value", f.grid, f.values)


def _stack_fields(path: str, line: str, form: str, **types) -> dict:
    """The typed key=value fields of one stack-file line; ``form`` is the
    documented line shape, quoted when a field is missing or malformed."""
    try:
        fields = dict(part.split("=", 1) for part in line.split())
        return {key: convert(fields[key]) for key, convert in types.items()}
    except (KeyError, ValueError):
        raise ConfigError(f"{path}: expected {form!r}, got {line!r}") from None


def load_stack(path: str) -> LevelStack:
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ConfigError(f"{path}: empty stack file")
    head = _stack_fields(path, lines[0], "dim=N levels=K", dim=int, levels=int)
    dim = head["dim"]
    count = head["levels"]
    if len(lines) - 1 != count:
        raise ConfigError(f"{path}: header promises {count} levels, found {len(lines) - 1}")
    heights = []
    bodies = []
    for ln in lines[1:]:
        fields = _stack_fields(path, ln, "t=<height> profile=<path>", t=float, profile=str)
        heights.append(fields["t"])
        prof = fields["profile"]
        if not os.path.isabs(prof):
            prof = os.path.join(base, prof)
        bodies.append(load_profile(prof, dim))
    return _build(path, LevelStack, dim, np.asarray(heights), tuple(bodies))


def save_stack(path: str, stack: LevelStack) -> None:
    """Write the stack file and, next to it, one profile CSV per level named
    ``<stack file stem>_levelKKK.csv``; the stack file is written last."""
    base = os.path.dirname(os.path.abspath(path))
    prefix = os.path.splitext(os.path.basename(path))[0]
    lines = [f"dim={stack.dim} levels={len(stack.levels)}"]
    for k, (t, body) in enumerate(zip(stack.levels, stack.bodies)):
        rel = f"{prefix}_level{k:03d}.csv"
        save_profile(os.path.join(base, rel), body)
        lines.append(f"t={t:.17g} profile={rel}")
    write_lines(path, lines)
