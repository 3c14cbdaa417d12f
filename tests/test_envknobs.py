"""The :mod:`repro.envknobs` registry: every ``REPRO_*`` variable the
source tree reads is classified, and every cache key in the system
folds the result-affecting ones in by default."""

from __future__ import annotations

import os
import re

import pytest

from repro.envknobs import ENV_KNOBS, env_knobs
from repro.incr.cache import artifact_key
from repro.serve import protocol

SRC_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, "src")

_KNOB_RE = re.compile(r"\bREPRO_[A-Z0-9_]+\b")

#: a registered knob and a value of it, for the rendering tests
SAMPLE_KNOB = "REPRO_FAULTS"
SAMPLE_VALUE = "main-boundary:times=1"


def _knobs_read_in_source():
    found = set()
    for dirpath, _dirnames, filenames in os.walk(SRC_ROOT):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, "r", encoding="utf-8") as handle:
                found.update(_KNOB_RE.findall(handle.read()))
    return found


class TestRegistryCoverage:
    def test_every_source_knob_is_classified(self):
        """A ``REPRO_*`` variable referenced anywhere in ``src/`` must
        be registered as result-affecting — otherwise cache keys
        silently collide across its settings."""
        read = _knobs_read_in_source()
        assert "REPRO_FAULTS" in read  # the scan sees the tree
        unclassified = read - set(ENV_KNOBS)
        assert not unclassified, (
            f"unregistered REPRO_* knobs {sorted(unclassified)}; add them "
            f"to repro.envknobs.ENV_KNOBS"
        )

    def test_registry_is_sorted_and_disjoint(self):
        assert list(ENV_KNOBS) == sorted(ENV_KNOBS)
        assert len(set(ENV_KNOBS)) == len(ENV_KNOBS)

    def test_retired_knobs_are_neither_registered_nor_read(self):
        """Switches whose code was deleted must leave the registry (and
        so every cache key) with it."""
        retired = {"REPRO_INCR", "REPRO_JOBS", "REPRO_NUMBERING",
                   "REPRO_PTS_BACKEND", "REPRO_SCC"}
        assert not retired & set(ENV_KNOBS)
        assert not retired & _knobs_read_in_source()


class TestEnvKnobsString:
    def test_mentions_every_registered_knob(self):
        rendered = env_knobs()
        for name in ENV_KNOBS:
            assert f"{name}=" in rendered

    def test_unset_and_empty_render_identically(self, monkeypatch):
        monkeypatch.delenv(SAMPLE_KNOB, raising=False)
        unset = env_knobs()
        monkeypatch.setenv(SAMPLE_KNOB, "")
        assert env_knobs() == unset

    def test_set_knob_changes_rendering(self, monkeypatch):
        monkeypatch.delenv(SAMPLE_KNOB, raising=False)
        before = env_knobs()
        monkeypatch.setenv(SAMPLE_KNOB, SAMPLE_VALUE)
        assert env_knobs() != before


class TestCacheKeyFoldsKnobs:
    """Regression for the satellite fix: ``protocol.cache_key`` used to
    ignore the environment entirely (the server bolted one knob on by
    hand; direct callers got colliding keys)."""

    @pytest.mark.parametrize("knob", ENV_KNOBS)
    def test_every_result_knob_changes_the_key(self, monkeypatch, knob):
        monkeypatch.delenv(knob, raising=False)
        before = protocol.cache_key("source", "M-2obj")
        monkeypatch.setenv(knob, "some-distinct-value")
        assert protocol.cache_key("source", "M-2obj") != before

    def test_explicit_environment_overrides_the_default(self, monkeypatch):
        key = protocol.cache_key("source", "M-2obj", environment="pinned")
        monkeypatch.setenv(SAMPLE_KNOB, SAMPLE_VALUE)
        assert protocol.cache_key("source", "M-2obj",
                                  environment="pinned") == key

    def test_artifact_key_folds_knobs_too(self, monkeypatch):
        monkeypatch.delenv(SAMPLE_KNOB, raising=False)
        before = artifact_key("fpg", "fingerprint", "component")
        monkeypatch.setenv(SAMPLE_KNOB, SAMPLE_VALUE)
        assert artifact_key("fpg", "fingerprint", "component") != before
