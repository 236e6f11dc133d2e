"""File IO shared by the modules: UTF-8 reads whose decode errors name the
file, and crash-safe writes (a temp file beside the target, then a rename)."""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO


@contextmanager
def read_text(path: str | Path) -> Iterator[TextIO]:
    """Open path for reading UTF-8 text.  Bytes that are not UTF-8, met while
    the block reads, raise a ValueError that names the file."""
    with open(path, encoding="utf-8") as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc


@contextmanager
def atomic_write(path: Path) -> Iterator[TextIO]:
    """Open a temp file in path's directory for text writing; when the block
    ends normally, `os.replace` it onto path.

    If the block raises (or the process dies) the previous file at path is
    left as it was: readers see either the old or the new content, never a
    partial one.  A killed process may leave its hidden temp file.  The data
    is not fsync'ed, so this guards against an interrupted or crashed
    process, not against a power loss.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
