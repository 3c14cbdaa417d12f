"""On-disk content-addressed artifact cache for analysis phases.

Caches the two reusable products of the MAHJONG pipeline —
field-points-to graph and merged-object map — keyed by sha256 over
(artifact kind, printed program text, config component).  Identical
inputs hit; anything else misses and recomputes.

The file format is self-verifying: a magic header naming the format
version, the sha256 of the payload, the payload length, then the
pickled artifact.  *Any* failure to read — missing file, bad magic,
truncated payload, digest mismatch, unpicklable bytes, wrong artifact
type — degrades to a cache miss with an ``obs`` instant event
(``artifact-cache:corrupt``), never a crash or a silently wrong
result.  Writes are atomic (temp file + ``os.replace``) so a crashed
writer leaves either the old artifact or none, not a torn one.

Trust boundary: entries are unpickled, so whoever can write the
directory can run code in the reader.  The header digest only catches
accidents, not a forged entry.  :class:`ArtifactCache` therefore
refuses a directory that is group- or world-writable, and creates
missing directories private (``0o700``).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from dataclasses import dataclass
from typing import Dict

from repro import obs

__all__ = [
    "ArtifactCache",
    "FPGArtifact",
    "MergeArtifact",
    "program_fingerprint",
    "artifact_key",
]

#: Bump when any cached artifact's shape changes: old files then fail
#: the magic check and read as misses instead of unpickling stale
#: shapes into new code.
_MAGIC = b"repro-artifact-v1"


def program_fingerprint(program) -> str:
    """sha256 over the canonical printed form of the program.

    The printer is a faithful round-trip surface (parse ∘ print is
    identity on the IR), so two programs print identically exactly
    when they are the same module source for analysis purposes.
    """
    from repro.ir.printer import print_program

    text = print_program(program)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def artifact_key(kind: str, fingerprint: str, component: str) -> str:
    """Content hash naming one cache entry."""
    material = "\x00".join((kind, fingerprint, component))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class FPGArtifact:
    """The field-points-to graph plus the phase timings that produced
    it.  A hit skips both the ci pre-solve and the FPG build."""

    fpg: object
    ci_seconds: float
    fpg_seconds: float


@dataclass(frozen=True)
class MergeArtifact:
    """The automata-merge result (merged-object map + counters)."""

    merge: object
    seconds: float


_ARTIFACT_TYPES = {
    "fpg": FPGArtifact,
    "merge": MergeArtifact,
}


@dataclass
class _Stats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    store_errors: int = 0


class ArtifactCache:
    """Directory-backed artifact store; safe to share across threads
    and across server requests (entries are immutable once written).

    Raises ``ValueError`` when ``directory`` is group- or
    world-writable: its entries are unpickled, so only its owner may
    write it.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, mode=0o700, exist_ok=True)
        mode = os.stat(directory).st_mode
        if mode & 0o022:
            raise ValueError(
                f"artifact cache directory {directory!r} is group- or "
                f"world-writable (mode {mode & 0o777:#o}); its entries are "
                f"unpickled, so only its owner may write it "
                f"(chmod go-w)"
            )
        self._lock = threading.Lock()
        self._stats = _Stats()

    # ------------------------------------------------------------------
    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.artifact")

    def key_for(self, kind: str, program, component: str) -> str:
        if kind not in _ARTIFACT_TYPES:
            raise ValueError(f"unknown artifact kind {kind!r}")
        return artifact_key(kind, program_fingerprint(program), component)

    # ------------------------------------------------------------------
    def load(self, kind: str, key: str):
        """Return the cached artifact or ``None`` (miss).  Corruption of
        any flavor is a logged miss, never an exception."""
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            with self._lock:
                self._stats.misses += 1
            return None
        artifact = self._decode(raw, kind)
        if artifact is None:
            self._note_corrupt(kind, key, path)
            return None
        with self._lock:
            self._stats.hits += 1
        return artifact

    def _decode(self, raw: bytes, kind: str):
        try:
            header, rest = raw.split(b"\n", 1)
            if header != _MAGIC:
                return None
            digest_line, rest = rest.split(b"\n", 1)
            length_line, payload = rest.split(b"\n", 1)
            length = int(length_line)
            if len(payload) != length:
                return None
            if hashlib.sha256(payload).hexdigest() != digest_line.decode("ascii"):
                return None
            artifact = pickle.loads(payload)
        except Exception:
            return None
        if not isinstance(artifact, _ARTIFACT_TYPES[kind]):
            return None
        return artifact

    def _note_corrupt(self, kind: str, key: str, path: str) -> None:
        with self._lock:
            self._stats.misses += 1
            self._stats.corrupt += 1
        tracer = obs.current_tracer()
        if tracer is not None:
            tracer.instant("artifact-cache:corrupt", kind=kind, key=key,
                           path=path)
        # A corrupt entry would miss forever; drop it so the next store
        # rewrites a clean one.
        try:
            os.unlink(path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    def store(self, kind: str, key: str, artifact) -> bool:
        """Atomically persist ``artifact``; returns False (and logs) on
        any serialization/IO failure instead of raising — the cache is
        an accelerator, not a dependency."""
        expected = _ARTIFACT_TYPES.get(kind)
        if expected is None or not isinstance(artifact, expected):
            raise TypeError(
                f"artifact kind {kind!r} expects {expected}, "
                f"got {type(artifact)}"
            )
        try:
            payload = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
            digest = hashlib.sha256(payload).hexdigest().encode("ascii")
            blob = b"\n".join(
                (_MAGIC, digest, str(len(payload)).encode("ascii"), payload)
            )
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp, self._path(key))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:
            with self._lock:
                self._stats.store_errors += 1
            tracer = obs.current_tracer()
            if tracer is not None:
                tracer.instant("artifact-cache:store-error", kind=kind,
                               key=key)
            return False
        with self._lock:
            self._stats.stores += 1
        return True

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        with self._lock:
            s = self._stats
            return {
                "hits": s.hits,
                "misses": s.misses,
                "stores": s.stores,
                "corrupt": s.corrupt,
                "store_errors": s.store_errors,
            }
