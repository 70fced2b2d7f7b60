"""The determinism rule pack over inferred effects.

Five project rules riding the :mod:`repro.lint.effects.infer` fixpoint
(see ``docs/determinism.md`` for the contract they enforce):

* ``nondet-in-sim``          — no wall-clock / OS-entropy / real-io
  effect reachable from a sim-critical entry: DES-scheduled callbacks,
  trace/VCD/export emission, chaos ``fingerprint()``/``stream()``.
  Findings carry the cross-file call-chain witness as a SARIF codeFlow.
* ``unstable-iter-order``    — no hash-ordered or OS-ordered iteration
  reachable from trace/codec/fingerprint sinks (byte-stable goldens).
* ``obs-hook-mutation``      — the observability layer stays read-only:
  no global/argument mutation inside ``repro.obs``, and no calls from
  obs code into project methods that mutate their own state.
* ``effect-annotation-drift``— ``# lint: effect=pure|sim-safe`` def-line
  annotations are *verified* against the inference, never trusted.
* ``async-unsafe-call``      — coroutines must not block, directly or
  through a callee, or spawn threads.

All rules consume the inference result only — sources are never
re-read — so a warm run serves them entirely from the project cache.
"""

from __future__ import annotations

from fnmatch import fnmatch
from typing import Iterator

from repro.lint.effects.infer import effect_index
from repro.lint.effects.model import (
    BLOCKING,
    GLOBAL_MUTATION,
    NONDET_KINDS,
    SIM_SAFE_FORBIDDEN,
    THREAD_SPAWN,
    UNSTABLE_ITER,
)
from repro.lint.findings import Finding
from repro.lint.registry import ProjectRule, register


def _node_module(node: str) -> str:
    return node.partition(":")[0]


def _node_qual(node: str) -> str:
    return node.partition(":")[2]


class _EffectRule(ProjectRule):
    """Shared scaffolding: options, allow-listing, witness rendering."""

    def _allowed(self, node: str) -> bool:
        return any(fnmatch(node, pattern) for pattern in self.options.get("allow", ()))

    def _witness_flow(self, effects, node: str, kind: str, head=None) -> list:
        steps = list(head or [])
        steps.extend(
            [line, note, path] for line, note, path in effects.witness(node, kind)
        )
        return steps

    def _seed_what(self, effects, node: str, kind: str) -> str:
        chain = effects.witness(node, kind)
        return chain[-1][1] if chain else kind


@register
class NondetInSimRule(_EffectRule):
    id = "nondet-in-sim"
    summary = (
        "no wall-clock, OS-entropy or real-I/O effect may be reachable "
        "from DES-scheduled callbacks, trace/VCD emission or chaos "
        "fingerprint paths — sim runs must replay bit-for-bit"
    )

    #: Sim-critical entry functions beyond scheduled callbacks.  The
    #: tracer/VCD/export writers produce the byte-stable goldens, and a
    #: chaos plan's stream/fingerprint pair is what makes fault runs
    #: replayable.
    default_entries = (
        "repro.des.simulator:Simulator.*",
        "repro.des.scheduler:*",
        "repro.obs.tracer:*",
        "repro.obs.vcd:*",
        "repro.obs.export:*",
        "repro.chaos.plan:FaultPlan.stream",
        "repro.chaos.plan:FaultPlan.fingerprint",
    )

    def check(self, index) -> Iterator[Finding]:
        effects = effect_index(index)
        entries = tuple(self.options.get("entries", self.default_entries))
        reported: set[tuple[str, str]] = set()

        # Scheduled callbacks: report at the registration site, where
        # the nondeterministic target enters the simulator.
        for caller, target, line in effects.scheduled:
            if not self.in_scope(_node_module(caller)) or self._allowed(target):
                continue
            for kind in sorted(NONDET_KINDS & set(effects.effects_of(target))):
                if (target, kind) in reported:
                    continue
                reported.add((target, kind))
                head = [
                    [line, f"{_node_qual(target)} scheduled here", effects.path_of(caller)]
                ]
                yield self.finding_at(
                    effects.path_of(caller),
                    line,
                    f"scheduled callback {_node_qual(target)} has a {kind} "
                    f"effect ({self._seed_what(effects, target, kind)}); "
                    "sim-scheduled code must be deterministic — inject the "
                    "sim clock / a seeded stream instead",
                    code_flow=self._witness_flow(effects, target, kind, head),
                )

        for node in effects.nodes():
            if not self.in_scope(_node_module(node)) or self._allowed(node):
                continue
            if not any(fnmatch(node, pattern) for pattern in entries):
                continue
            rec = effects.record(node)
            for kind in sorted(NONDET_KINDS & set(effects.effects_of(node))):
                if (node, kind) in reported:
                    continue
                reported.add((node, kind))
                yield self.finding_at(
                    effects.path_of(node),
                    rec.get("line", 1),
                    f"sim-critical entry {_node_qual(node)} reaches a "
                    f"{kind} effect "
                    f"({self._seed_what(effects, node, kind)}); replayed "
                    "runs will diverge — inject the sim clock / a seeded "
                    "stream instead",
                    code_flow=self._witness_flow(effects, node, kind),
                )


@register
class UnstableIterOrderRule(_EffectRule):
    id = "unstable-iter-order"
    summary = (
        "no set/OS-ordered iteration may feed trace, codec or "
        "fingerprint sinks — golden artifacts must be byte-stable; "
        "wrap the iterable in sorted()"
    )

    default_entries = (
        "repro.obs.tracer:*",
        "repro.obs.vcd:*",
        "repro.obs.export:*",
        "repro.core.xmlcodec:*",
        "repro.chaos.plan:FaultPlan.*",
    )

    def check(self, index) -> Iterator[Finding]:
        effects = effect_index(index)
        entries = tuple(self.options.get("entries", self.default_entries))
        seen_seeds: set[tuple] = set()
        for node in effects.nodes():
            if not self.in_scope(_node_module(node)) or self._allowed(node):
                continue
            if not any(fnmatch(node, pattern) for pattern in entries):
                continue
            if UNSTABLE_ITER not in effects.effects_of(node):
                continue
            chain = effects.witness(node, UNSTABLE_ITER)
            seed = chain[-1] if chain else None
            if seed is None or (seed[2], seed[0]) in seen_seeds:
                continue
            seen_seeds.add((seed[2], seed[0]))
            yield self.finding_at(
                seed[2],
                seed[0],
                f"{seed[1]} — this iteration order reaches the "
                f"byte-stable sink {_node_qual(node)}",
                code_flow=[[line, note, path] for line, note, path in chain],
            )


@register
class ObsHookMutationRule(_EffectRule):
    id = "obs-hook-mutation"
    summary = (
        "observability code (repro.obs) must stay read-only: no "
        "global/argument mutation, and no calls into methods that "
        "mutate core state"
    )

    #: Module prefixes that make up the read-only observability layer.
    default_layers = ("repro.obs",)

    @staticmethod
    def _in_layers(module: str, layers: tuple) -> bool:
        return any(
            module == layer or module.startswith(layer + ".") for layer in layers
        )

    def _layer_mutation(self, effects, node: str, layers: tuple):
        """The node's global-mutation cause, but only when the whole
        cause chain down to the seed stays inside the obs layers — a
        mutation that happens inside a *core* callee is that callee's
        own contract (and the call into it, if it mutates instance
        state, is the mutating-callee finding below), not an obs one."""
        seen: set[str] = set()
        current = node
        while current not in seen:
            seen.add(current)
            cause = effects.effects_of(current).get(GLOBAL_MUTATION)
            if cause is None:
                return None
            if cause["t"] == "seed":
                return effects.effects_of(node).get(GLOBAL_MUTATION)
            callee = cause["callee"]
            if not self._in_layers(_node_module(callee), layers):
                return None
            current = callee
        return None

    def check(self, index) -> Iterator[Finding]:
        effects = effect_index(index)
        layers = tuple(self.options.get("layers", self.default_layers))
        for node in effects.nodes():
            module = _node_module(node)
            if not self.in_scope(module) or self._allowed(node):
                continue
            if not self._in_layers(module, layers):
                continue
            rec = effects.record(node)
            cause = self._layer_mutation(effects, node, layers)
            if cause is not None:
                line = cause["line"] if cause["t"] == "seed" else rec.get("line", 1)
                yield self.finding_at(
                    effects.path_of(node),
                    line,
                    f"{_node_qual(node)} mutates state outside its own "
                    f"instance ({self._seed_what(effects, node, GLOBAL_MUTATION)}); "
                    "the observability layer must only read",
                    code_flow=self._witness_flow(effects, node, GLOBAL_MUTATION),
                )
            for callee, line in effects.mutating_callees.get(node, []):
                if self._in_layers(_node_module(callee), layers):
                    continue
                if self._allowed(callee):
                    continue
                yield self.finding_at(
                    effects.path_of(node),
                    line,
                    f"{_node_qual(node)} calls {_node_qual(callee)}(), "
                    "which mutates its instance state; observability "
                    "hooks must not drive core-state changes",
                )


@register
class EffectAnnotationDriftRule(_EffectRule):
    id = "effect-annotation-drift"
    summary = (
        "'# lint: effect=pure|sim-safe' def-line annotations are "
        "checked against the inferred effects — an annotation that "
        "drifts from reality is worse than none"
    )

    def check(self, index) -> Iterator[Finding]:
        effects = effect_index(index)
        for node in effects.nodes():
            if not self.in_scope(_node_module(node)) or self._allowed(node):
                continue
            rec = effects.record(node)
            annotation = rec.get("annotation")
            if annotation is None:
                continue
            forbidden = (
                set(effects.effects_of(node))
                if annotation == "pure"
                else SIM_SAFE_FORBIDDEN & set(effects.effects_of(node))
            )
            for kind in sorted(forbidden):
                yield self.finding_at(
                    effects.path_of(node),
                    rec.get("line", 1),
                    f"{_node_qual(node)} is annotated effect={annotation} "
                    f"but has an inferred {kind} effect "
                    f"({self._seed_what(effects, node, kind)}); fix the "
                    "function or drop the annotation",
                    code_flow=self._witness_flow(effects, node, kind),
                )


@register
class AsyncUnsafeCallRule(_EffectRule):
    id = "async-unsafe-call"
    summary = (
        "coroutines must not block the event loop, directly or through "
        "a callee, or spawn OS threads"
    )

    def check(self, index) -> Iterator[Finding]:
        effects = effect_index(index)
        for node in effects.nodes():
            if not self.in_scope(_node_module(node)) or self._allowed(node):
                continue
            rec = effects.record(node)
            if not rec.get("is_async"):
                continue
            node_effects = effects.effects_of(node)
            blocking = node_effects.get(BLOCKING)
            if blocking is not None and blocking["t"] == "seed":
                for site in rec["effects"][BLOCKING]:
                    yield self.finding_at(
                        effects.path_of(node),
                        site["line"],
                        f"blocking call {site['what']} inside async def "
                        f"{_node_qual(node)}; it stalls the event loop",
                    )
                # A direct block must not hide one through a callee.
                blocking = blocking.get("via")
            if blocking is not None:
                callee = blocking["callee"]
                head = [[
                    blocking["line"],
                    f"calls {_node_qual(callee)}()",
                    effects.path_of(node),
                ]]
                yield self.finding_at(
                    effects.path_of(node),
                    blocking["line"],
                    f"async def {_node_qual(node)} calls "
                    f"{_node_qual(callee)}(), which blocks "
                    f"(via {self._seed_what(effects, callee, BLOCKING)}); "
                    "it stalls the event loop",
                    code_flow=self._witness_flow(
                        effects, callee, BLOCKING, head=head
                    ),
                )
            spawn = node_effects.get(THREAD_SPAWN)
            if spawn is not None:
                line = spawn["line"]
                yield self.finding_at(
                    effects.path_of(node),
                    line,
                    f"async def {_node_qual(node)} spawns OS-scheduled "
                    f"work ({self._seed_what(effects, node, THREAD_SPAWN)}); "
                    "hand it to the loop's executor instead",
                    code_flow=self._witness_flow(effects, node, THREAD_SPAWN),
                )
