"""Atomic file replacement for every file the package writes."""

import contextlib
import os
import secrets


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
