"""``manifest.txt``, a store's self-describing index.

One ``key=value`` line per :class:`Manifest` field, in field order, then
a checksum line over every earlier byte.  Each field's metadata says how
its value is written and how its text is read back, and a manifest is
read only in the exact form :meth:`Manifest.text` writes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields

from .errors import StoreError

FORMAT_VERSION = 1


def _read_threshold(text: str) -> int | None:
    value = int(text)
    if value < -1:
        raise ValueError(f"prune threshold {value} is below -1")
    return None if value == -1 else value


# How a manifest value is written, and how its text is read back; the
# reader accepts a value only when writing it back gives the same text
_NUMBER = {"write": str, "read": int}
_FLAG = {"write": lambda flag: str(int(flag)), "read": lambda text: bool(int(text))}
_HEX32 = {"write": "{:08x}".format, "read": lambda text: int(text, 16)}
# -1 stands for no threshold
_THRESHOLD = {"write": lambda value: str(-1 if value is None else value), "read": _read_threshold}
_TEXT = {"write": str, "read": str}


@dataclass
class Manifest:
    """``manifest.txt``: one ``key=value`` line per field, in field order,
    then a checksum line.  Each field's metadata writes its value and
    reads the text back."""

    format: int = field(metadata=_NUMBER)
    magic: int = field(metadata=_HEX32)
    tip: int = field(metadata=_NUMBER)
    keep_from: int = field(metadata=_NUMBER)
    prune: bool = field(metadata=_FLAG)
    prune_threshold: int | None = field(metadata=_THRESHOLD)
    minimize: bool = field(metadata=_FLAG)
    slack: bool = field(metadata=_FLAG)
    dedup_requested: bool = field(metadata=_FLAG)
    dedup: bool = field(metadata=_FLAG)
    spine_count: int = field(metadata=_NUMBER)
    body_count: int = field(metadata=_NUMBER)
    kvs_count: int = field(metadata=_NUMBER)
    sha256_spine: str = field(metadata=_TEXT)
    sha256_bodies: str = field(metadata=_TEXT)
    sha256_kvs: str = field(metadata=_TEXT)

    def text(self) -> str:
        lines = [f"{f.name}={f.metadata['write'](getattr(self, f.name))}\n" for f in fields(self)]
        body = "".join(lines)
        # Trailing self-checksum covers every earlier manifest byte, so a
        # flipped digit in tip/keep_from/flags cannot masquerade as a
        # different but internally consistent store.
        check = hashlib.sha256(body.encode("utf-8")).hexdigest()
        return body + f"checksum={check}\n"


def _read_value(f, text: str):
    """Field ``f``'s value, only if writing it back gives ``text`` again."""
    try:
        value = f.metadata["read"](text)
    except ValueError as exc:
        raise ValueError(f"{f.name}: {exc}") from None
    written = f.metadata["write"](value)
    if written != text:
        raise ValueError(f"{f.name} {text!r} is not its written form {written!r}")
    return value


def parse_manifest(text: str) -> Manifest:
    head, sep, tail = text.rpartition("checksum=")
    if not sep or not head.endswith("\n"):
        raise StoreError("manifest is missing its checksum line")
    want = hashlib.sha256(head.encode("utf-8")).hexdigest()
    if tail.strip() != want:
        raise StoreError("manifest checksum mismatch")
    values = {}
    for lineno, line in enumerate(head.splitlines(), 1):
        if not line.strip():
            continue
        if "=" not in line:
            raise StoreError(f"manifest line {lineno} is not key=value: {line!r}")
        key, _, value = line.partition("=")
        values[key] = value
    missing = {f.name for f in fields(Manifest)} - set(values)
    if missing:
        raise StoreError(f"manifest is missing keys: {sorted(missing)}")
    try:
        parsed = {f.name: _read_value(f, values[f.name]) for f in fields(Manifest)}
        manifest = Manifest(**parsed)
    except ValueError as exc:
        raise StoreError(f"manifest has a malformed value: {exc}") from exc
    if manifest.format != FORMAT_VERSION:
        raise StoreError(
            f"unsupported store format {manifest.format} (this build reads {FORMAT_VERSION})"
        )
    # no extra, repeated or reordered line, blank line or padding
    if manifest.text() != text:
        raise StoreError("manifest is not in its written form")
    return manifest
