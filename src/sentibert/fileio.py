"""Atomic file replacement for every file the package writes, checked UTF-8
reading of the text inputs (datasets, corpora, vocabularies), and checked
JSON parsing (config, metrics, JSONL records and checkpoint headers)."""

import contextlib
import io
import json
import os
import secrets

from .errors import DataError


def write_file(path: str, data: str | bytes) -> None:
    """Write data to a new file beside path, then os.replace it onto path.

    A str is written as UTF-8 with newlines as given, bytes as they are. On
    any failure path keeps its previous bytes and no temp file is left, and
    an OSError on the temp file is raised again naming path. (The data is
    not fsynced: this guards against a failing or killed process, not
    against power loss.)
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    head, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(head, f".{name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:  # name the file the caller asked for
            raise OSError(exc.errno, exc.strerror, path) from exc
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


def parse_json(text: str, where: str):
    """json.loads(text); DataError prefixed by where if text is not JSON, holds
    an integer longer than int() converts, or nests deeper than the parser
    can recurse."""
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or int()'s digit limit
        raise DataError(f"{where}: invalid JSON ({exc})") from exc
    except RecursionError as exc:
        raise DataError(f"{where}: JSON nested too deeply to parse") from exc
