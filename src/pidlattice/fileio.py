"""The package's file format: the one reader and the one writer of its files.

Every file is UTF-8 text.  Distribution, measure and result files are JSON
objects; a writer renders them with two-space indentation and a trailing
newline, and the CLI prints its JSON documents the same way.  A file that
cannot be read as such (bytes that are not UTF-8, malformed or too deeply
nested JSON, an integer literal too long to convert, a document that is
not an object or lacks a field) raises :class:`ParseError`; a missing or
unreadable file raises the operating system's ``OSError``.  A path is a
``str`` or an ``os.PathLike``; anything else, an int file descriptor
above all, raises :class:`ValidationError` before any file is opened.
The loaders parse their own fields from the returned object, taking
every number through :func:`number`.
"""

from __future__ import annotations

import json
import os
from typing import Iterable

from .errors import ParseError, ValidationError


def _checked_path(path):
    """``path`` if it names a file; an int would be opened, and closed, as a descriptor."""
    if not isinstance(path, (str, os.PathLike)):
        raise ValidationError(f"path must be a str or os.PathLike, got {type(path).__name__}")
    return path


def read_text(path, what: str) -> str:
    """The text of a UTF-8 file; ``what`` names the file in error messages."""
    with open(_checked_path(path), "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except ValueError as exc:
            raise ParseError(f"{what} is not UTF-8 text: {exc}") from None


def read_object(path, what: str, fields: Iterable[str]) -> dict:
    """A file's JSON document, which must be an object holding every one of ``fields``."""
    text = read_text(path, what)
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers both malformed JSON and integer literals beyond
        # the interpreter's digit limit; RecursionError, deep nesting.
        raise ParseError(f"bad JSON in {what}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object")
    for key in fields:
        if key not in doc:
            raise ParseError(f"{what} missing field {key!r}")
    return doc


def number(value, what: str) -> float:
    """A JSON number as a float: bools, non-numbers and ints beyond float range are refused."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{what} is not a number: {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{what} is an integer beyond float range") from None


def render(doc) -> str:
    """A JSON document as the package writes it."""
    return json.dumps(doc, indent=2) + "\n"


def write_text(path, text: str) -> None:
    """Write ``text`` as a UTF-8 file, replacing any file at ``path``."""
    with open(_checked_path(path), "w", encoding="utf-8") as fh:
        fh.write(text)
