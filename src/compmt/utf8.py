"""Where a text file stops being UTF-8."""

from __future__ import annotations


def undecodable(path) -> str:
    """``path:line: not UTF-8 (reason)`` for the first byte of ``path`` that
    does not decode.  Meant for after a text-mode read has failed: that read
    decodes in chunks, so its error can surface lines before the bad one and
    gives offsets into the chunk, not the file; the file is read again as
    bytes, only on this error path."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return f"{path}:{line}: not UTF-8 ({exc.reason})"
    return f"{path}: not UTF-8"
