"""Exception hierarchy shared by all pipeline stages, the shape check that
input documents run through at their boundaries, the one way a file is
written out, and the loggers every module logs through.

Every error class is a direct subclass of PipelineError that some input
raises, with its own CLI exit code (see cli.EXIT_CODES).
"""

import contextlib
import os
import re
import reprlib
import sys

# At most 4 items of a collection, 2 levels deep, and 30 characters of a
# string or other value: a few hundred characters in all.
_SHORT = reprlib.Repr()
_SHORT.maxlevel = 2
_SHORT.maxlist = _SHORT.maxtuple = _SHORT.maxdict = _SHORT.maxset = 4
_SHORT.maxfrozenset = _SHORT.maxdeque = _SHORT.maxarray = 4
_SHORT.maxstring = _SHORT.maxlong = _SHORT.maxother = 30

# Node, device, control and intent ids: safe in a file name and as a value
# of a `key=value` log line.
ID_RE = re.compile(r"[A-Za-z0-9_.-]+")

# The level of the stderr handler that the next logged line installs
# (log_to_stderr); None when there is none to install.
_stderr_level = None


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class DocumentSyntaxError(PipelineError):
    """Malformed input document (topology, knowledge, catalog, HSPL, MSPL)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(PipelineError):
    """Well-formed document that violates a structural invariant."""


class UnknownEndpoint(PipelineError):
    """Name does not resolve to an endpoint node of the topology."""


class UnknownTemplate(PipelineError):
    """Fact or operation references a template that was never defined."""


class UnknownSlot(PipelineError):
    """Fact binds a slot the template does not declare."""


class UnsupportedAction(PipelineError):
    """HSPL action string is not one this engine can refine."""


class NothingToEnforce(PipelineError):
    """No fact in the knowledge is relevant to the intent's endpoints."""


class Unenforceable(PipelineError):
    """At least one path has no device with a satisfying control."""


class InconsistentNsf(PipelineError):
    """Artifacts assign different controls to the same device."""


class NormalizationError(PipelineError):
    """Capability detail cannot be normalized to its canonical form."""


class UnknownControl(PipelineError):
    """No renderer is registered for the policy's control."""


class UnsupportedCapability(PipelineError):
    """Renderer has no mapping for a condition; never silently dropped."""


class PersistError(PipelineError):
    """Knowledge base or output file could not be written."""


def shown(value) -> str:
    """repr(value), cut short. A document value can be far larger than the
    document: YAML aliases share one object, so six levels of ten aliases
    each make a million-element list of a few hundred bytes."""
    return _SHORT.repr(value)


def require_list(value, place, error=DocumentSyntaxError) -> list:
    """`value`, which must be a list; an absent value (None) is an empty one.
    Otherwise raises `error` naming `place`."""
    if value is None:
        return []
    if not isinstance(value, list):
        raise error(f"{place} must be a list, got {shown(value)}")
    return value


def require_id(value: str, what: str) -> str:
    """`value`, which must be an id (ID_RE); otherwise raises
    ValidationError naming `what`."""
    if not ID_RE.fullmatch(value):
        raise ValidationError(f"invalid {what} {value!r}")
    return value


def write_atomic(path: str, content: str, what: str) -> None:
    """Write `content` to `path` through a temporary file beside it and one
    rename, so a reader sees the old file or the new one, never part of one.
    The temporary file is created with mode 0o666, so the umask sets the
    file's mode as for any file the user creates, and is named after this
    process, since nothing locks an output directory. On failure it is
    removed, and an OSError becomes a PersistError `cannot {what}: …`."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            with open(fd, "w", encoding="utf-8") as fh:
                fh.write(content)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise PersistError(f"cannot {what}: {exc}")


def log_to_stderr(level: str | None) -> None:
    """Log each record at `level` ("DEBUG", "INFO", …) and above to stderr,
    as its bare message, through the handler logging.basicConfig installs.
    If `logging` is loaded, the handler is installed at once; otherwise the
    first logged line imports `logging` and installs it, bound to the
    sys.stderr of that moment, so a process that logs nothing never imports
    it. None withdraws a handler not yet installed."""
    global _stderr_level
    _stderr_level = level
    if "logging" in sys.modules:
        _install_stderr_handler()


def _install_stderr_handler() -> None:
    global _stderr_level
    if _stderr_level is not None:
        import logging

        logging.basicConfig(stream=sys.stderr, format="%(message)s", level=_stderr_level)
        _stderr_level = None


class LazyLogger:
    """logging.getLogger(name), imported and looked up at the first lookup
    of its debug, info or warning. That lookup keeps the Logger's own three
    methods on this object and returns one of them, so every call, the first
    too, goes straight to the Logger and names its caller as the origin."""

    def __init__(self, name: str):
        self.name = name

    def __getattr__(self, attr: str):
        if attr not in ("debug", "info", "warning"):
            raise AttributeError(attr)
        import logging

        _install_stderr_handler()
        logger = logging.getLogger(self.name)
        self.debug, self.info, self.warning = logger.debug, logger.info, logger.warning
        return getattr(logger, attr)
