"""Injectable filesystem shim for the durability-critical write paths.

Every file operation the repository's persistence layers depend on —
journal appends and reads (:mod:`repro.journal`: sweep manifests,
telemetry event files, experience journals), policy/checkpoint atomic
writes (:mod:`repro.rl.persistence`), and policy artifact loads
(:mod:`repro.serve.artifact`) — is routed through the thin wrappers in
this module.  With no shim installed (the production default, and the
only state the library itself ever runs in) each wrapper is a single
``is None`` branch in front of the exact seed-behaviour call, so an
uninjected run is bit-identical to pre-shim behaviour (golden-tested in
``tests/test_chaos.py``).

The chaos harness (:mod:`repro.chaos`) installs a
:class:`FilesystemShim` to simulate infrastructure faults — out-of-disk
(``ENOSPC``) appends, torn partial writes, pathologically slow I/O —
without patching any library internals, then verifies the documented
recovery invariants hold.  A shim sees the *logical* destination path of
every operation, so it can target one artifact (just the manifest, just
one ``.rpa``) and leave the rest of the run untouched.

Shims are process-local state, installed/removed explicitly
(:func:`install_shim` / :func:`uninstall_shim`) or scoped with the
:func:`shimmed` context manager.  Installation is deliberately not
re-entrant: installing over an active shim raises, because two
overlapping fault injections would make a campaign's fault schedule
ambiguous.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional, Union

from repro.errors import ChaosError, PersistenceError

PathLike = Union[str, Path]


class FilesystemShim:
    """Base interception points; every default is pure pass-through.

    Subclasses override the hooks they want to corrupt.  Each hook
    receives the logical destination ``path`` (the artifact being
    persisted — for atomic tmp-then-rename writes this is the *final*
    path, not the temporary sibling) and a ``default`` callable that
    performs the real operation; a hook may call it with modified
    arguments (partial data = a torn write), delay before calling it
    (slow I/O), or raise ``OSError`` instead (``ENOSPC``, ``EIO``).
    """

    def write(self, path: Optional[Path], data: bytes,
              default: Callable[[bytes], Optional[int]]) -> Optional[int]:
        """One logical write of ``data`` toward ``path``."""
        return default(data)

    def fsync(self, path: Optional[Path],
              default: Callable[[], None]) -> None:
        """One fsync of the descriptor backing ``path``."""
        default()

    def replace(self, src: Path, dst: Path,
                default: Callable[[], None]) -> None:
        """One atomic rename of ``src`` over ``dst``."""
        default()

    def read(self, path: Optional[Path], size: Optional[int],
             default: Callable[[], bytes]) -> bytes:
        """One logical read of up to ``size`` bytes from ``path``.

        ``size=None`` reads the whole file.  Added for the serving
        layer's artifact loads; a shim may delay before calling
        ``default`` (slow storage) or raise ``OSError`` (failed read).
        """
        return default()


_SHIM: Optional[FilesystemShim] = None


def current_shim() -> Optional[FilesystemShim]:
    """The installed shim, or None (the production state)."""
    return _SHIM


def install_shim(shim: FilesystemShim) -> None:
    """Install ``shim`` as the process-wide write interceptor."""
    global _SHIM
    if not isinstance(shim, FilesystemShim):
        raise ChaosError(
            f"filesystem shims must subclass FilesystemShim; "
            f"got {type(shim).__name__}")
    if _SHIM is not None:
        raise ChaosError(
            "a filesystem shim is already installed; overlapping fault "
            "injections would make the fault schedule ambiguous "
            "(uninstall_shim first)")
    _SHIM = shim


def uninstall_shim() -> None:
    """Remove the installed shim (idempotent)."""
    global _SHIM
    _SHIM = None


@contextmanager
def shimmed(shim: FilesystemShim):
    """Install ``shim`` for the duration of the block, then remove it."""
    install_shim(shim)
    try:
        yield shim
    finally:
        uninstall_shim()


# -- wrappers used by the persistence layers --------------------------------
#
# Each wrapper's no-shim branch is exactly the call the layer made before
# the shim existed; keep it first and branch-free beyond the None check.

def os_write(fd: int, data: bytes, path: Optional[PathLike] = None) -> int:
    """``os.write`` with shim interception (journal appends)."""
    if _SHIM is None:
        return os.write(fd, data)
    result = _SHIM.write(_as_path(path), data, lambda b: os.write(fd, b))
    return len(data) if result is None else result


def file_write(fh, data, path: Optional[PathLike] = None) -> None:
    """``fh.write`` with shim interception (atomic policy writes).

    ``data`` may be ``str`` or ``bytes``, matching the mode ``fh`` was
    opened with; a shim always sees bytes (UTF-8 for text handles).
    """
    if _SHIM is None:
        fh.write(data)
        return
    if isinstance(data, str):
        _SHIM.write(_as_path(path), data.encode("utf-8"),
                    lambda b: fh.write(b.decode("utf-8")))
    else:
        _SHIM.write(_as_path(path), data, lambda b: fh.write(b))


def fsync(fd: int, path: Optional[PathLike] = None) -> None:
    """``os.fsync`` with shim interception."""
    if _SHIM is None:
        os.fsync(fd)
        return
    _SHIM.fsync(_as_path(path), lambda: os.fsync(fd))


def replace(src: PathLike, dst: PathLike) -> None:
    """``os.replace`` with shim interception (atomic rename-into-place)."""
    if _SHIM is None:
        os.replace(src, dst)
        return
    _SHIM.replace(Path(src), Path(dst), lambda: os.replace(src, dst))


def read_bytes(path: PathLike, size: Optional[int] = None) -> bytes:
    """Read up to ``size`` bytes of ``path`` (all when ``None``).

    Artifact loads and journal reads go through here so the chaos
    harness can inject slow or failing storage on the *read* side; with
    no shim installed this is a plain open-and-read.
    """
    def _read() -> bytes:
        with open(path, "rb") as fh:
            return fh.read() if size is None else fh.read(size)
    if _SHIM is None:
        return _read()
    return _SHIM.read(_as_path(path), size, _read)


def fsync_directory(directory: PathLike) -> None:
    """Best-effort fsync of ``directory`` (durability of a rename).

    After ``os.replace`` the *file* contents are durable but the
    directory entry pointing at them may not be; fsyncing the parent
    directory closes that window.  Platforms/filesystems that refuse to
    fsync a directory descriptor degrade silently — the rename itself
    already happened, so this is strictly additional durability.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:  # containment: directory fsync is best-effort hardening
        return
    try:
        if _SHIM is None:
            os.fsync(fd)
        else:
            _SHIM.fsync(Path(directory), lambda: os.fsync(fd))
    except OSError:  # containment: some filesystems cannot fsync directories
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically (tmp file + ``os.replace``).

    The temporary sibling is fsynced before the rename and the parent
    directory after it, so the swap is durable, not just atomic.  All
    I/O goes through the wrappers above; an ``OSError`` anywhere —
    ENOSPC, EIO, a chaos shim — surfaces as a
    :class:`repro.errors.PersistenceError` and leaves any previous file
    at ``path`` untouched.
    """
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            file_write(f, payload, path=path)
            f.flush()
            fsync(f.fileno(), path=path)
        replace(tmp, path)
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except OSError:  # containment: best-effort tmp cleanup; the original error re-raises below
            pass
        if isinstance(exc, OSError):
            raise PersistenceError(
                f"{path}: cannot persist ({exc}); the write was aborted "
                "and the previous file, if any, is untouched") from exc
        raise
    fsync_directory(path.parent)


def _as_path(path: Optional[PathLike]) -> Optional[Path]:
    return None if path is None else Path(path)
