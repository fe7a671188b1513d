"""Fault-injecting filesystem shims for the chaos harness.

Each shim subclasses :class:`repro.fsio.FilesystemShim` and corrupts
exactly one failure dimension — disk exhaustion, pathological latency —
while leaving every non-targeted path untouched.  Shims target artifacts
by file *name* substring (``match``), so an experiment can starve just
the sweep manifest while the policy files next to it write normally.

Shims are deterministic: their behaviour depends only on construction
parameters and the sequence of intercepted calls, never on wall-clock or
ambient randomness, which is what lets a chaos campaign replay
bit-identically per seed.
"""

from __future__ import annotations

import errno
import time
from pathlib import Path
from typing import Callable, Optional

from repro.errors import ChaosError
from repro.fsio import FilesystemShim


class TargetedShim(FilesystemShim):
    """Shim base that intercepts only paths whose name contains ``match``.

    ``match=None`` targets every write that carries a logical path;
    writes with no logical path (none exist in the library today) pass
    through untouched, because a shim that cannot tell what it is
    corrupting cannot honour a fault schedule.
    """

    def __init__(self, match: Optional[str] = None):
        self.match = match
        self.intercepted = 0
        """Targeted operations seen so far."""

    def targets(self, path: Optional[Path]) -> bool:
        """True when ``path`` is under this shim's fault schedule."""
        if path is None:
            return False
        return self.match is None or self.match in path.name


class EnospcShim(TargetedShim):
    """Simulated disk exhaustion: the Nth targeted write tears, then fails.

    The first ``fail_after_writes - 1`` targeted writes succeed.  The
    failing write persists only the first ``partial_fraction`` of its
    bytes before raising ``OSError(ENOSPC)`` — exactly what a real full
    disk does to an append: a torn tail, not a clean boundary.  Once
    tripped, every further targeted write and fsync fails too (the disk
    stays full until the experiment "frees space" by uninstalling the
    shim).
    """

    def __init__(self, fail_after_writes: int, partial_fraction: float = 0.5,
                 match: Optional[str] = None):
        super().__init__(match)
        if fail_after_writes < 1:
            raise ChaosError(
                f"fail_after_writes must be >= 1, got {fail_after_writes!r}")
        if not 0.0 <= partial_fraction < 1.0:
            raise ChaosError(
                f"partial_fraction must be in [0, 1), "
                f"got {partial_fraction!r}")
        self.fail_after_writes = int(fail_after_writes)
        self.partial_fraction = float(partial_fraction)
        self.tripped = False
        """True once the simulated disk has filled up."""

    def _enospc(self) -> OSError:
        return OSError(errno.ENOSPC, "No space left on device "
                                     "(chaos injection)")

    def write(self, path: Optional[Path], data: bytes,
              default: Callable[[bytes], Optional[int]]) -> Optional[int]:
        """Pass through until the fuse blows; then tear and fail."""
        if not self.targets(path):
            return default(data)
        self.intercepted += 1
        if self.tripped:
            raise self._enospc()
        if self.intercepted < self.fail_after_writes:
            return default(data)
        self.tripped = True
        torn = data[:int(len(data) * self.partial_fraction)]
        if torn:
            default(torn)
        raise self._enospc()

    def fsync(self, path: Optional[Path],
              default: Callable[[], None]) -> None:
        """A full disk fails fsync on the targeted file too."""
        if self.tripped and self.targets(path):
            raise self._enospc()
        default()


class _StallShim(TargetedShim):
    """Shim base that stalls every targeted operation ``delay_s``."""

    def __init__(self, delay_s: float, match: Optional[str] = None):
        super().__init__(match)
        if not delay_s >= 0:
            raise ChaosError(f"delay_s must be >= 0, got {delay_s!r}")
        self.delay_s = float(delay_s)

    def _stall(self, path: Optional[Path]) -> None:
        if self.targets(path):
            self.intercepted += 1
            time.sleep(self.delay_s)


class SlowReadShim(_StallShim):
    """Pathological read latency: every targeted read stalls ``delay_s``.

    The bytes come back intact — this is the load-side twin of
    :class:`SlowWriteShim`, modelling a policy registry on a throttled
    or flaky volume.  The serving layer's staging deadline is what turns
    this from a stall into a clean, bounded refusal.
    """

    def read(self, path: Optional[Path], size: Optional[int],
             default: Callable[[], bytes]) -> bytes:
        """Stall ``delay_s`` then return the bytes intact."""
        self._stall(path)
        return default()


class SlowWriteShim(_StallShim):
    """Pathological I/O latency: every targeted write stalls ``delay_s``.

    The data still lands intact — this shim tests that the stack stays
    *correct* under degraded storage (NFS hiccup, throttled volume), not
    that it fails cleanly.
    """

    def write(self, path: Optional[Path], data: bytes,
              default: Callable[[bytes], Optional[int]]) -> Optional[int]:
        """Stall ``delay_s`` then write the data intact."""
        self._stall(path)
        return default(data)
