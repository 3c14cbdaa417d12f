"""The on-disk artifact cache: roundtrips, content addressing, and the
corruption contract (any unreadable entry is a logged miss, never a
crash or a wrong artifact)."""

from __future__ import annotations

import os
import pickle

import pytest

from repro import obs
from repro.analysis.pipeline import run_pre_analysis
from repro.incr import (
    ArtifactCache,
    FPGArtifact,
    MergeArtifact,
    PreSummaryArtifact,
    program_fingerprint,
)
from repro.obs import InMemorySink, Instant, Tracer
from repro.workloads import corpus_program


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    yield
    obs.uninstall()


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(str(tmp_path))


def _fpg_artifact():
    return FPGArtifact(fpg={"edges": [(1, "f", 2)]}, ci_seconds=0.1,
                       fpg_seconds=0.2)


class TestRoundtrip:
    @pytest.mark.parametrize("kind,artifact", [
        ("pre", PreSummaryArtifact(stats=(("methods", 3),), seconds=0.5)),
        ("fpg", _fpg_artifact()),
        ("merge", MergeArtifact(merge={"o1": "o2"}, seconds=0.3)),
    ])
    def test_store_then_load(self, cache, kind, artifact):
        assert cache.store(kind, "key", artifact)
        assert cache.load(kind, "key") == artifact
        stats = cache.stats()
        assert stats["stores"] == 1 and stats["hits"] == 1

    def test_absent_key_is_a_miss(self, cache):
        assert cache.load("fpg", "never-stored") is None
        assert cache.stats()["misses"] == 1

    def test_wrong_kind_rejected_at_store(self, cache):
        with pytest.raises(TypeError):
            cache.store("fpg", "key", MergeArtifact(merge={}, seconds=0.0))
        with pytest.raises(ValueError):
            cache.key_for("unknown-kind", corpus_program("cache"), "c")


class TestPickleHygiene:
    """The artifact dataclasses must survive a pickle roundtrip intact
    — they are the on-disk payload format."""

    @pytest.mark.parametrize("artifact", [
        PreSummaryArtifact(stats=(("methods", 3), ("sites", 9)),
                           seconds=0.5),
        _fpg_artifact(),
        MergeArtifact(merge={"o1": "o2"}, seconds=0.3),
    ])
    def test_roundtrip_equality(self, artifact):
        clone = pickle.loads(pickle.dumps(
            artifact, protocol=pickle.HIGHEST_PROTOCOL))
        assert clone == artifact
        assert type(clone) is type(artifact)

    def test_real_pipeline_artifacts_are_picklable(self, cache):
        """The FPG and merge artifacts the pipeline actually stores
        (containing real FPG/merge objects) must serialize."""
        program = corpus_program("cache")
        run_pre_analysis(program, artifact_cache=cache)
        assert cache.stats()["stores"] == 2
        warm = run_pre_analysis(program, artifact_cache=cache)
        assert set(warm.cache_hits) == {"fpg", "merge"}
        assert warm.result is None  # served from disk; no ci re-solve


def _traced_sink():
    sink = InMemorySink()
    tracer = Tracer(sinks=(sink,))
    obs.install(tracer)
    return sink


def _corrupt_instants(sink):
    return [event for event in sink.events
            if isinstance(event, Instant)
            and event.name == "artifact-cache:corrupt"]


class TestCorruptionIsAMiss:
    """Fault injection: every flavor of on-disk damage must read as a
    logged miss (with the entry dropped so a later store heals it)."""

    def _stored_path(self, cache):
        cache.store("fpg", "key", _fpg_artifact())
        (name,) = [n for n in os.listdir(cache.directory)
                   if n.endswith(".artifact")]
        return os.path.join(cache.directory, name)

    @pytest.mark.parametrize("damage", [
        lambda raw: b"not-the-magic\n" + raw.split(b"\n", 1)[1],
        lambda raw: raw[: len(raw) // 2],          # truncated payload
        lambda raw: raw[:-8] + b"\x00" * 8,        # scribbled payload
        lambda raw: raw + b"trailing-garbage",     # length mismatch
        lambda raw: b"",                           # empty file
    ], ids=["bad-magic", "truncated", "scribbled", "lengthened", "empty"])
    def test_damaged_entry(self, cache, damage):
        sink = _traced_sink()
        path = self._stored_path(cache)
        with open(path, "rb") as handle:
            raw = handle.read()
        with open(path, "wb") as handle:
            handle.write(damage(raw))

        assert cache.load("fpg", "key") is None
        stats = cache.stats()
        assert stats["corrupt"] == 1 and stats["misses"] == 1
        events = _corrupt_instants(sink)
        assert len(events) == 1 and events[0].attrs["kind"] == "fpg"
        # the corrupt file is dropped, so a re-store heals the entry
        assert not os.path.exists(path)
        assert cache.store("fpg", "key", _fpg_artifact())
        assert cache.load("fpg", "key") == _fpg_artifact()

    def test_valid_pickle_of_wrong_type_is_a_miss(self, cache):
        sink = _traced_sink()
        path = self._stored_path(cache)
        # a well-formed entry whose payload unpickles to the wrong class
        other = ArtifactCache(cache.directory)
        other.store("merge", "other", MergeArtifact(merge={}, seconds=0.0))
        merge_path = other._path("other")
        os.replace(merge_path, path)
        assert cache.load("fpg", "key") is None
        assert _corrupt_instants(sink)

    def test_unpicklable_store_is_a_logged_failure(self, cache):
        sink = _traced_sink()
        unpicklable = FPGArtifact(fpg=lambda: None, ci_seconds=0.0,
                                  fpg_seconds=0.0)
        assert cache.store("fpg", "key", unpicklable) is False
        assert cache.stats()["store_errors"] == 1
        assert any(isinstance(e, Instant)
                   and e.name == "artifact-cache:store-error"
                   for e in sink.events)


class TestTrustBoundary:
    """Entries are unpickled, so a directory other users can write is
    refused before any entry is read."""

    @pytest.mark.parametrize("mode", [0o770, 0o702, 0o777],
                             ids=["group", "world", "both"])
    def test_shared_writable_directory_is_refused(self, tmp_path,
                                                  monkeypatch, mode):
        directory = str(tmp_path / "shared")
        planted = ArtifactCache(directory)
        assert planted.store("fpg", "key", _fpg_artifact())
        os.chmod(directory, mode)
        loads = []
        monkeypatch.setattr("repro.incr.cache.pickle.loads",
                            lambda payload: loads.append(payload))
        with pytest.raises(ValueError, match="writable"):
            ArtifactCache(directory)
        assert loads == []

    def test_missing_directory_is_created_private(self, tmp_path):
        directory = tmp_path / "fresh" / "cache"
        ArtifactCache(str(directory))
        assert not os.stat(directory).st_mode & 0o077

    def test_owner_only_directory_is_accepted(self, tmp_path):
        os.chmod(tmp_path, 0o755)
        cache = ArtifactCache(str(tmp_path))
        assert cache.store("fpg", "key", _fpg_artifact())
        assert cache.load("fpg", "key") == _fpg_artifact()


class TestContentAddressing:
    def test_key_varies_with_program_text(self, cache):
        a = cache.key_for("fpg", corpus_program("cache"), "c")
        b = cache.key_for("fpg", corpus_program("listeners"), "c")
        assert a != b

    def test_key_varies_with_component_and_kind(self, cache):
        program = corpus_program("cache")
        assert (cache.key_for("fpg", program, "scc=on")
                != cache.key_for("fpg", program, "scc=off"))
        assert (cache.key_for("fpg", program, "c")
                != cache.key_for("merge", program, "c"))

    def test_key_varies_with_env_knobs(self, cache, monkeypatch):
        program = corpus_program("cache")
        monkeypatch.delenv("REPRO_SCC", raising=False)
        before = cache.key_for("fpg", program, "c")
        monkeypatch.setenv("REPRO_SCC", "off")
        assert cache.key_for("fpg", program, "c") != before

    def test_fingerprint_is_stable_across_parses(self):
        assert (program_fingerprint(corpus_program("cache"))
                == program_fingerprint(corpus_program("cache")))
