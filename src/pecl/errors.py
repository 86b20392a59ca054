"""Error types shared across the package."""

import json
import sys
from contextlib import contextmanager


class PeclError(Exception):
    """Base class for all library errors."""


class DataError(PeclError):
    """Bad or missing input data: corpus files, config files, ledgers, matrices."""


class NumericError(PeclError):
    """Non-finite values where finite numbers are required."""


def shown(value, limit: int = 40) -> str:
    """``repr(value)`` for an error message; a repr longer than ``limit``
    characters is cut there and followed by its full length."""
    text = repr(value)
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} chars)"


@contextmanager
def reading(path):
    """Turn an OSError or a decoding error raised while reading ``path`` into a
    DataError naming it."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from exc


def load_json(text: str, where: str):
    """``json.loads(text)``; any rejection, nesting too deep for the parser or an
    integer too long to convert included, is a DataError prefixed by ``where``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise DataError(f"{where}: nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{where}: {exc.msg}") from exc
    except ValueError as exc:  # int() refuses a literal over the interpreter's digit limit
        raise DataError(f"{where}: integer over {sys.get_int_max_str_digits()} digits") from exc
