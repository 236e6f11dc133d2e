"""File IO shared by the modules: UTF-8 reads whose decode errors name the
file, the JSON-lines format of every such file but the corpus (keys sorted,
non-ASCII as it is, lines split only at line feeds, so U+2028 stays inside a
text), content hashes read in chunks, and crash-safe writes (a temp file
beside the target, then a rename)."""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, TextIO, get_args, get_origin

# A scalar field takes a value of exactly its type (a bool is not an int),
# and a float field also an integer.  No field takes NaN or an infinity, which
# Python's json reads but RFC 8259 JSON does not have.
_SCALARS = {
    bool: "true or false", int: "an integer", float: "a number", str: "a string", type(None): "null"
}

_REJECTED = object()

# The text of one JSON line (json.dumps with options builds an encoder per call).
encode = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode


def _convert(annotation: Any, value: Any) -> Any:
    """value in annotation's form, or _REJECTED."""
    if type(value) is float and not math.isfinite(value):
        return _REJECTED
    if type(value) is annotation:
        return value
    if annotation in _SCALARS:
        if annotation is not float or type(value) is not int:
            return _REJECTED
        try:
            return float(value)
        except OverflowError:  # beyond the float range
            return _REJECTED
    args = get_args(annotation)
    if not args:
        return dict(value) if isinstance(value, Mapping) else _REJECTED
    if get_origin(annotation) is tuple:
        if not isinstance(value, (list, tuple)):
            return _REJECTED
        items = tuple([_convert(args[0], v) for v in value])
        return _REJECTED if _REJECTED in items else items
    for arg in args:
        converted = _convert(arg, value)
        if converted is not _REJECTED:
            return converted
    return _REJECTED


def _describe(annotation: Any) -> str:
    if annotation in _SCALARS:
        return _SCALARS[annotation]
    args = get_args(annotation)
    if get_origin(annotation) is tuple:
        return f"a list (each item {_describe(args[0])})"
    if args:
        return " or ".join(_describe(a) for a in args)
    return "an object"


def typed(name: str, annotation: Any, value: Any) -> Any:
    """A JSON value in the form a field annotated `annotation` holds: a
    scalar as it is, except that an integer for a float becomes that float
    (one beyond the float range is of the wrong type, and so are NaN and the
    infinities);
    a list for `tuple[X, ...]` a tuple of X; for `X | Y` the first that
    takes it; an object (any other annotation) a dict.  A value of another
    JSON type raises TypeError("<name> must be <types>, got <value>")."""
    converted = _convert(annotation, value)
    if converted is _REJECTED:
        raise TypeError(f"{name} must be {_describe(annotation)}, got {value!r}")
    return converted


def normalized(annotation: Any, value: Any) -> Any:
    """value in the form typed() gives it; a value that typed() refuses, which
    a field set in Python may hold, as it is."""
    converted = _convert(annotation, value)
    return value if converted is _REJECTED else converted


@contextmanager
def read_text(path: str | Path) -> Iterator[TextIO]:
    """Open path for reading UTF-8 text.  Bytes that are not UTF-8, met while
    the block reads, raise a ValueError that names the file."""
    with open(path, encoding="utf-8") as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc


def read_records(path: str | Path, what: str, parse: Callable) -> Iterator[tuple[int, Any]]:
    """(line number, parse(record)) for each JSON object line of path, in
    order; blank lines are skipped.  A line that is not a JSON object, or
    whose record parse rejects with a KeyError, TypeError or ValueError,
    raises ValueError("<path>:<line>: bad <what>: <reason>")."""
    with read_text(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, parse(typed("the line", dict, json.loads(line)))
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: bad {what}: no {exc} field") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad {what}: {exc}") from exc


def claim_id(line_of: dict[str, int], id: str, path: str | Path, lineno: int) -> None:
    """Record that line lineno of path has id; an id that line_of gives an
    earlier line raises ValueError naming both lines."""
    if id in line_of:
        raise ValueError(f"{path}:{lineno}: id {id!r} is already used on line {line_of[id]}")
    line_of[id] = lineno


def write_records(path: Path, records: Iterable[Mapping]) -> str:
    """Write each record as one encoded line, through atomic_write; return
    the sha256 of the bytes written, as file_hash would give it."""
    digest = hashlib.sha256()
    with atomic_write(path) as handle:
        for record in records:
            line = encode(record) + "\n"
            digest.update(line.encode("utf-8"))
            handle.write(line)
    return digest.hexdigest()


def file_hash(path: str | Path) -> str | None:
    """The sha256 of path's content, read 64 KiB at a time; None if there is
    no such file."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(65536), b""):
                digest.update(chunk)
    except (FileNotFoundError, NotADirectoryError):
        return None
    return digest.hexdigest()


@contextmanager
def atomic_write(path: Path) -> Iterator[TextIO]:
    """Open a temp file in path's directory for UTF-8 text writing, with line
    feeds written as they are; when the block ends normally, `os.replace` it
    onto path.

    If the block raises (or the process dies) the previous file at path is
    left as it was: readers see either the old or the new content, never a
    partial one.  A killed process may leave its hidden temp file.  The data
    is not fsync'ed, so this guards against an interrupted or crashed
    process, not against a power loss.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
