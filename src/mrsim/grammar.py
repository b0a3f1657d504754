"""The line format shared by the sequence, object and system description files.

A file is a list of blocks: ``[ kind ]`` opens one, each ``key = value``
line after it sets one of its parameters, ``#`` starts a comment.  A
grammar is a table ``{block kind: {key: value reader}}``; a reader maps
the value's text to its value and raises ``ValueError`` (malformed),
``InvalidParameter`` or ``ParseError``.  Each value is read at its own
line, in file order, so an error names the first offending line.  The
command line reads its own values with the same readers.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple

from .errors import InvalidParameter, ParseError

Reader = Callable[[str], object]


def parse_number(value: str, key: str, line: Optional[int], kind: Reader = float):
    """``kind(value)``, where ``kind`` is ``float``, ``int`` or any other
    value reader; every error becomes a ParseError naming ``key`` at
    ``line``."""
    try:
        return kind(value)
    except ValueError:
        raise ParseError(f"malformed value for {key}: {value!r}", line) from None
    except InvalidParameter as exc:
        raise ParseError(f"{key}: {exc}", line) from None
    except ParseError as exc:
        if exc.line is not None or line is None:
            raise
        raise type(exc)(str(exc), line) from None


def numbers(*counts: int) -> Reader:
    """Reader of a tuple of floats separated by commas or spaces; its
    length must be one of ``counts`` (when empty: at least one)."""

    def read(value: str) -> tuple:
        out = tuple(float(part) for part in value.replace(",", " ").split())
        if not out or counts and len(out) not in counts:
            want = " or ".join(map(str, counts)) + " " if counts else ""
            raise InvalidParameter(f"expected {want}numbers, got {value!r}")
        return out

    return read


def boolean(value: str) -> bool:
    """``true`` / ``false`` (or ``1`` / ``0``), in any case."""
    try:
        return {"true": True, "1": True, "false": False, "0": False}[value.lower()]
    except KeyError:
        raise ValueError(value) from None


def model_reader(models: dict) -> Reader:
    """Reader of a ``name key=value ...`` value, such as a system file's
    ``model = loop center_m=0,0,0.1 ...``.  ``models`` maps each name to
    its parameters' readers and a builder that takes the read parameters
    as a dict; each parameter may be given once."""

    def read(value: str):
        if not value:
            raise InvalidParameter("needs a model")
        name, *parts = value.split()
        if name not in models:
            raise InvalidParameter(f"unknown model {name!r}")
        readers, build = models[name]
        params: dict = {}
        for part in parts:
            key, sep, text = part.partition("=")
            if not sep or key not in readers or key in params:
                raise InvalidParameter(f"{name} takes {list(readers)} once each, got {part!r}")
            params[key] = parse_number(text, key, None, readers[key])
        try:
            return build(params)
        except KeyError as exc:
            raise InvalidParameter(f"{name} model needs {exc}") from None

    return read


def read_blocks(
    text: str, grammar: Dict[str, Dict[str, Reader]], file_wide: Tuple[str, ...] = ()
) -> Iterator[Tuple[str, int, dict]]:
    """Yield ``(kind, block_line, {key: (value, line)})`` per block, keys
    in file order, each block before any later line is read.

    Rejects a malformed header, an unknown block or key, a key outside
    any block, a line without ``=`` and a key given twice in a block, or
    twice in the file for a ``file_wide`` kind.
    """
    kind: Optional[str] = None
    block, block_line = {}, 0
    given: dict = {}  # key -> line, for this block or file-wide kind
    file_given: Dict[str, dict] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if kind is not None:
                yield kind, block_line, block
            if not line.endswith("]"):
                raise ParseError(f"malformed block header {line!r}", lineno)
            kind = line[1:-1].strip()
            if kind not in grammar:
                raise ParseError(f"unknown block [{kind}]", lineno)
            block, block_line = {}, lineno
            given = file_given.setdefault(kind, {}) if kind in file_wide else {}
            continue
        if "=" not in line:
            raise ParseError(f"expected key = value, got {line!r}", lineno)
        if kind is None:
            raise ParseError("key outside of any block", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in grammar[kind]:
            raise ParseError(f"unknown key {key!r} in [{kind}]", lineno)
        if key in given:
            raise ParseError(f"{key} in [{kind}] is already set at line {given[key]}", lineno)
        given[key] = lineno
        block[key] = (parse_number(value, key, lineno, grammar[kind][key]), lineno)
    if kind is not None:
        yield kind, block_line, block
