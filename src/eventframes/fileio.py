"""Crash-safe file writes: write a temp file beside the target, then rename."""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO


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
