"""Incremental cache for the whole-program pass.

Two tiers, both keyed so stale data can never be served:

* **summaries** — per file, keyed on the SHA-256 of the file's bytes.  A
  summary is a pure function of the text, so an unchanged file is never
  re-parsed (this is what makes warm runs fast).
* **constant environments** — per module, keyed on a *closure digest*:
  the hash of the module's own content hash plus the content hashes of
  every module transitively reachable through its top-level imports.
  Editing ``repro/tpwire/constants.py`` therefore changes the digest of
  every dependent module, invalidating exactly the environments whose
  propagated values could have moved — dependents are found through the
  module graph, not by guessing.

The cache file is a single JSON document; a version bump or any decode
problem silently discards it (a cold run is always correct).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

from repro.lint.project.graph import ModuleGraph

# 2: ModuleSummary grew the `flow` concurrency-fact field; version-1
# summaries lack it and must be recomputed, not deserialised.
# 3: ModuleSummary grew the `effects` seed field and the cache grew the
# project-digest effects tier; version-2 entries must be recomputed.
# 4: ModuleSummary dropped the `flow` concurrency-fact field; version-3
# summaries carry it and would not deserialise.
# 5: a seed cause in the effects tier may carry the `via` call edge;
# version-4 effect blobs lack it and must be re-inferred.
CACHE_VERSION = 5


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class ProjectCache:
    """Load/store layer for summaries and constant environments."""

    def __init__(self, path: Optional[Path] = None):
        self.path = path
        self.summaries: dict[str, dict] = {}  # file path -> {"sha", "summary"}
        self.envs: dict[str, dict] = {}       # module -> {"digest", "env"}
        self.effects: dict = {}               # {"digest", "data"} (one blob)
        self.loaded_from_disk = False

    # -- persistence -------------------------------------------------------

    @classmethod
    def load(cls, path: Optional[Path]) -> "ProjectCache":
        cache = cls(path)
        if path is None or not path.is_file():
            return cache
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return cache
        if not isinstance(data, dict) or data.get("version") != CACHE_VERSION:
            return cache
        summaries = data.get("summaries")
        envs = data.get("envs")
        effects = data.get("effects")
        if isinstance(summaries, dict):
            cache.summaries = summaries
            cache.loaded_from_disk = True
        if isinstance(envs, dict):
            cache.envs = envs
        if isinstance(effects, dict):
            cache.effects = effects
        return cache

    def save(self) -> None:
        if self.path is None:
            return
        payload = {
            "version": CACHE_VERSION,
            "summaries": self.summaries,
            "envs": self.envs,
            "effects": self.effects,
        }
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(self.path.suffix + ".tmp")
            tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
            tmp.replace(self.path)
        except OSError:
            # Caching is an optimisation; a read-only checkout must not
            # break the lint run.
            pass

    # -- summaries ---------------------------------------------------------

    def summary_for(self, path: str, sha: str) -> Optional[dict]:
        entry = self.summaries.get(path)
        if entry and entry.get("sha") == sha:
            return entry.get("summary")
        return None

    def store_summary(self, path: str, sha: str, summary: dict) -> None:
        self.summaries[path] = {"sha": sha, "summary": summary}

    def prune(self, live_paths: set[str], live_modules: set[str]) -> None:
        """Drop entries for files/modules no longer in the project."""
        self.summaries = {
            p: e for p, e in self.summaries.items() if p in live_paths
        }
        self.envs = {m: e for m, e in self.envs.items() if m in live_modules}

    # -- constant environments --------------------------------------------

    @staticmethod
    def closure_digest(
        module: str, graph: ModuleGraph, module_sha: dict[str, str]
    ) -> str:
        """Digest of a module plus everything it transitively imports."""
        parts = [f"{module}={module_sha.get(module, '')}"]
        for dep in sorted(graph.transitive_deps(module)):
            parts.append(f"{dep}={module_sha.get(dep, '')}")
        return hashlib.sha256(";".join(parts).encode("utf-8")).hexdigest()

    def env_for(self, module: str, digest: str) -> Optional[dict]:
        entry = self.envs.get(module)
        if entry and entry.get("digest") == digest:
            return entry.get("env")
        return None

    def store_env(self, module: str, digest: str, env: dict) -> None:
        self.envs[module] = {"digest": digest, "env": env}

    # -- inferred effects ---------------------------------------------------
    #
    # A single blob for the whole project, keyed on a *project digest*
    # (every module's content hash plus the inference options — see
    # :func:`repro.lint.effects.infer.effects_digest`).  Any file edit
    # changes the digest, so staleness is impossible; pruning is
    # unnecessary for the same reason.

    def effects_for(self, digest: str) -> Optional[dict]:
        if self.effects.get("digest") == digest:
            return self.effects.get("data")
        return None

    def store_effects(self, digest: str, data: dict) -> None:
        self.effects = {"digest": digest, "data": data}
