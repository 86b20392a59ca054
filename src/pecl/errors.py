"""Error types shared across the package."""

from contextlib import contextmanager


class PeclError(Exception):
    """Base class for all library errors."""


class DataError(PeclError):
    """Bad or missing input data: corpus files, config files, ledgers, matrices."""


class NumericError(PeclError):
    """Non-finite values where finite numbers are required."""


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
