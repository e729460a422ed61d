"""Every file metapop writes, and the versioned envelope of its JSON artifacts.

A write lands in a pid-named sibling temp file that ``os.replace`` moves over
the target, after creating parent directories: a crash or interrupt leaves the
old bytes or the new, never a torn file, and a symlinked target is replaced,
not written through. Without ``fsync`` this does not cover a power loss. New
files get the umask mode of a plain ``open``.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path
from typing import Iterable, Sequence

#: Version written into and required from every JSON artifact.
FORMAT_VERSION = 1


def write_atomic(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    buffer = io.StringIO()
    csv.writer(buffer).writerows([header, *rows])
    write_atomic(path, buffer.getvalue())


def save_json(path: str | Path, payload: dict, pretty: bool = False) -> None:
    """Compact JSON led by ``format_version``; ``pretty`` indents, sorts keys and ends the line."""
    document = {"format_version": FORMAT_VERSION, **payload}
    write_atomic(path, json.dumps(document, indent=2, sort_keys=True) + "\n" if pretty else json.dumps(document))


def load_json(path: str | Path, kind: str) -> dict:
    """Parse and version-check a ``kind`` file; a missing key's error names kind, path and key."""

    class Fields(dict):
        def __missing__(self, key):
            raise ValueError(f"{kind} file {path}: missing key {key!r}")

    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"), object_hook=Fields)
    except json.JSONDecodeError as exc:
        raise ValueError(f"failed to parse {path}: {exc}") from None
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != FORMAT_VERSION:
        raise ValueError(f"{kind} file {path}: unsupported format_version {version!r}, expected {FORMAT_VERSION}")
    return payload
