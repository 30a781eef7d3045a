"""Canonical JSON persistence: versioned documents, byte-stable dumps."""
import json
import os
from contextlib import contextmanager

from .errors import DataFormatError

SCHEMA_VERSION = 1


def dumps_canonical(obj) -> str:
    """Serialize with sorted keys and fixed separators so equal inputs give equal bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_json(path, obj, secret: bool = False) -> None:
    """Write ``obj`` canonically and atomically; a secret document is 0600 before any byte lands.

    The document goes to a fresh temp file beside ``path``, is fsynced and then
    renamed over ``path``, so a reader or a crash sees the old file or the new
    one, never a torn one.  The directory is fsynced after the rename, so that
    a power loss cannot undo it and bring back the old file.
    """
    doc = dict(obj)
    doc.setdefault("schema_version", SCHEMA_VERSION)
    tmp = f"{os.fspath(path)}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600 if secret else 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical(doc))
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def read_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: expected a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DataFormatError(f"{path}: unsupported schema_version {version!r}")
    return doc


@contextmanager
def decoding(path):
    """Report a missing or ill-typed field while decoding ``path`` as DataFormatError."""
    try:
        yield
    except (AttributeError, KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"{path}: missing or malformed field: {exc}") from exc
