"""Atomic file replacement for every file the package writes, and checked
UTF-8 reading of the text inputs (datasets, corpora, vocabularies)."""

import contextlib
import io
import os
import secrets

from .errors import DataError


@contextlib.contextmanager
def atomic_open(path: str, binary: bool = False):
    """Write a new file beside path, then os.replace it onto path.

    Text mode is UTF-8 with newlines written as given. If the block raises,
    the partial file is removed and path keeps its previous bytes. (The data
    is not fsynced: this guards against a failing or killed process, not
    against power loss.)
    """
    head, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(head, f".{name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def read_text(path: str, newline: str | None = None) -> io.StringIO:
    """The file decoded as UTF-8, as a stream whose lines split as open()'s
    would with this newline; DataError naming the file and line of the first
    byte that is not UTF-8."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return io.StringIO(raw.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}: line {line}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
