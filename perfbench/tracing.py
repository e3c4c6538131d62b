"""Span tracing installed from outside the program, for the traced run only.

Every public function of each ``adversim`` module is wrapped on every module
attribute that binds it (``step_fts`` is bound in ``sync_engine``,
``checking``, ``nondecider``, ``cli`` and the package itself; ``core`` looks it
up lazily in ``sync_engine``).  The protocol, wrapper, scheduler and trace I/O
methods are wrapped on their classes.  Functions reached only through a
private table (the protocol registry and ``simulations._WRAPPERS``) are
constructors and stay untraced.

Each call records a span: name, start, end, parent span and the job id.
Spans are kept in typed arrays and written out at the end.  A layer is the
module that defines the callable; its self time is its spans' durations
minus the time their child spans cover.  A few boundary hooks record the
counts behind the ratios (distinct configurations, repeated probes, payload
sizes); the time a hook takes is excluded from the enclosing span.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from array import array

LAYERS = (
    "cli",
    "core",
    "protocols",
    "sync_engine",
    "async_engine",
    "checking",
    "nondecider",
    "simulations",
)

CLASS_METHODS = {
    "core": {"ExecutionTrace": ("write", "read", "to_jsonl", "from_jsonl")},
    "protocols": {
        "PhaseKingLite": ("message", "transition"),
        "NaiveMajority": ("message", "transition"),
        "Constant": ("message", "transition"),
    },
    "async_engine": {
        "RoundRobinScheduler": ("next_event",),
        "SeededFairScheduler": ("next_event",),
        "ScriptedScheduler": ("next_event",),
    },
    "simulations": {
        "GetCoreWrapper": ("message", "transition"),
        "SynchronizerWrapper": ("step",),
        "PiggybackWrapper": ("message", "transition"),
    },
}

TRACE_IO = {"core.ExecutionTrace." + m for m in CLASS_METHODS["core"]["ExecutionTrace"]}
PROTOCOL_METHODS = {
    f"protocols.{cls}.{m}" for cls, ms in CLASS_METHODS["protocols"].items() for m in ms
}
WRAPPER_METHODS = {
    f"simulations.{cls}.{m}" for cls, ms in CLASS_METHODS["simulations"].items() for m in ms
}
STEPS = {"sync_engine.step_fts", "sync_engine.step_ftr"}
PROBES = {"nondecider.failure_free_decision", "nondecider.silent_decision"}
REPORTS = {
    "simulations.getcore_rounds",
    "simulations.project_synchronized_run",
    "simulations.piggyback_ledger",
}

# Metrics that are counts or ratios of counts: they must repeat exactly.
COUNT_METRICS = (
    "core.artefact_bytes",
    "protocols.calls",
    "sync_engine.rounds",
    "async_engine.steps",
    "async_engine.in_flight_max",
    "async_engine.in_flight_to_crashed",
    "checking.rounds",
    "checking.distinct_config_ratio",
    "checking.repeat_transition_ratio",
    "nondecider.attack_rounds",
    "nondecider.probes",
    "nondecider.probe_rounds",
    "nondecider.probe_repeat_ratio",
    "nondecider.probes_per_attack_round",
    "nondecider.oracle_cap_hits",
    "simulations.wrapper_calls",
    "simulations.payload_bytes_max",
    "simulations.payload_bytes_mean",
)


class Tracer:
    """Span recorder plus the boundary counters; one per traced run."""

    def __init__(self, adversim):
        self.adversim = adversim
        self.modules = {name: getattr(adversim, name) for name in LAYERS}
        self.job = -1
        self.span_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.excluded = array("q")  # hook time inside this span's interval
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        # boundary counters
        self.artefact_bytes = 0
        self.exhaustive_seen = None
        self.exhaustive_calls = 0
        self.exhaustive_distinct = 0
        self.fuzz_seen = None
        self.fuzz_steps = 0
        self.fuzz_repeats = 0
        self.checked_rounds = 0
        self.in_probe = 0
        self.probe_rounds = 0
        self.probe_repeats = 0
        self.job_probes: set = set()
        self.cap_hits = 0
        self.attack_rounds = 0
        self.in_flight_max = 0
        self.in_flight_to_crashed = 0
        self.payload_max = 0
        self.payload_sum = 0
        self.payload_count = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        bindings: dict[int, list[tuple[object, str]]] = {}
        for ns in [self.adversim, *self.modules.values()]:
            for attr, value in vars(ns).items():
                if inspect.isfunction(value):
                    bindings.setdefault(id(value), []).append((ns, attr))
        for layer, module in self.modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                traced = self._wrap(name, fn, *hooks.get(name, (None, None)))
                for ns, bound_as in bindings[id(fn)]:
                    self._patch(ns, bound_as, traced)
            for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for m in methods:
                    raw = cls.__dict__[m]
                    name = f"{layer}.{cls_name}.{m}"
                    enter, leave = hooks.get(name, (None, None))
                    if isinstance(raw, classmethod):
                        traced = classmethod(self._wrap(name, raw.__func__, enter, leave))
                    else:
                        traced = self._wrap(name, raw, enter, leave)
                    self._patch(cls, m, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name, fn, enter=None, leave=None):
        nid = self._ids.setdefault(name, len(self.span_names))
        if nid == len(self.span_names):
            self.span_names.append(name)
        names, parents, jobs = self.name, self.parent, self.job_id
        starts, ends, excluded = self.start, self.end, self.excluded
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            idx = len(names)
            names.append(nid)
            parents.append(parent)
            jobs.append(tracer.job)
            starts.append(0)
            ends.append(0)
            excluded.append(0)
            if enter is not None:
                t0 = clock()
                enter(args, kwargs)
                if parent >= 0:
                    excluded[parent] += clock() - t0
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                if leave is not None:
                    leave(args, kwargs, None, exc)
                raise
            ends[idx] = clock()
            stack.pop()
            if leave is not None:
                leave(args, kwargs, result, None)
                if parent >= 0:
                    excluded[parent] += clock() - ends[idx]
            return result

        return traced

    def begin_job(self, index: int) -> None:
        self.job = index
        self.job_probes = set()

    # -- boundary hooks -----------------------------------------------------

    def _hooks(self):
        oracle_cap = self.modules["nondecider"].OracleCapExceeded

        def step_leave(args, kwargs, result, exc):
            if exc is not None:
                return
            if self.in_probe:
                self.probe_rounds += 1
            if self.exhaustive_seen is not None:
                self.exhaustive_seen.add(result)
                self.exhaustive_calls += 1
            if self.fuzz_seen is not None:
                key = (args[0], args[2])
                self.fuzz_steps += 1
                if key in self.fuzz_seen:
                    self.fuzz_repeats += 1
                else:
                    self.fuzz_seen.add(key)

        def exhaustive_enter(args, kwargs):
            self.exhaustive_seen = set()

        def exhaustive_leave(args, kwargs, result, exc):
            self.exhaustive_distinct += len(self.exhaustive_seen)
            self.exhaustive_seen = None
            if result is not None:
                self.checked_rounds += result.explored

        def fuzz_enter(args, kwargs):
            self.fuzz_seen = set()

        def fuzz_leave(args, kwargs, result, exc):
            self.fuzz_seen = None
            if result is not None:
                self.checked_rounds += result.explored

        def probe_enter(process):
            def enter(args, kwargs):
                self.in_probe += 1
                key = (args[0], args[1] if process else None)
                if key in self.job_probes:
                    self.probe_repeats += 1
                else:
                    self.job_probes.add(key)

            return enter

        def probe_leave(args, kwargs, result, exc):
            self.in_probe -= 1
            if isinstance(exc, oracle_cap):
                self.cap_hits += 1

        def attack_leave(args, kwargs, result, exc):
            if result is not None:
                self.attack_rounds += result.rounds_built

        def write_leave(args, kwargs, result, exc):
            if exc is None:
                self.artefact_bytes += os.path.getsize(args[1])

        def async_step_leave(args, kwargs, result, exc):
            if result is not None:
                self.in_flight_max = max(self.in_flight_max, len(result[0].in_flight))

        def run_async_leave(args, kwargs, result, exc):
            if result is not None:
                final = result.final_state
                if final.crashed is not None:
                    self.in_flight_to_crashed += sum(
                        1 for m in final.in_flight if m.dest == final.crashed
                    )

        def payloads(sizes):
            for size in sizes:
                self.payload_max = max(self.payload_max, size)
                self.payload_sum += size
                self.payload_count += 1

        def message_leave(args, kwargs, result, exc):
            if result is not None:
                payloads((len(result),))

        def sync_step_leave(args, kwargs, result, exc):
            if result is not None:
                payloads(len(payload) for _, payload in result[1])

        return {
            "sync_engine.step_fts": (None, step_leave),
            "sync_engine.step_ftr": (None, step_leave),
            "checking.check_exhaustive": (exhaustive_enter, exhaustive_leave),
            "checking.check_fuzz": (fuzz_enter, fuzz_leave),
            "nondecider.failure_free_decision": (probe_enter(False), probe_leave),
            "nondecider.silent_decision": (probe_enter(True), probe_leave),
            "nondecider.build_nondeciding_execution": (None, attack_leave),
            "core.ExecutionTrace.write": (None, write_leave),
            "async_engine.step_async": (None, async_step_leave),
            "async_engine.run_async": (None, run_async_leave),
            "simulations.GetCoreWrapper.message": (None, message_leave),
            "simulations.PiggybackWrapper.message": (None, message_leave),
            "simulations.SynchronizerWrapper.step": (None, sync_step_leave),
        }

    # -- results ------------------------------------------------------------

    def span_totals(self) -> tuple[dict[str, dict[str, int]], int]:
        """Per span name: call count, inclusive and self nanoseconds; and the
        inclusive time of trace-I/O spans not nested in another one."""
        count = len(self.name)
        if count and min(self.end) == 0:
            raise RuntimeError("a span was left open")
        covered = array("q", bytes(8 * count))
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        excluded = self.excluded
        for i in range(count):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        k = len(self.span_names)
        calls, incl, self_ns = [0] * k, [0] * k, [0] * k
        io_ids = {self._ids[n] for n in TRACE_IO if n in self._ids}
        io_outer = 0
        for i in range(count):
            nid = names[i]
            d = ends[i] - starts[i]
            calls[nid] += 1
            incl[nid] += d
            self_ns[nid] += d - covered[i] - excluded[i]
            p = parents[i]
            if nid in io_ids and (p < 0 or names[p] not in io_ids):
                io_outer += d
        totals = {
            name: {"calls": calls[i], "incl_ns": incl[i], "self_ns": self_ns[i]}
            for i, name in enumerate(self.span_names)
            if calls[i]
        }
        return totals, io_outer

    def metrics(self, totals, trace_io_ns) -> dict[str, float]:
        """The 30 per-layer metrics of this run."""

        def pick(field, names):
            return sum(totals[n][field] for n in names if n in totals)

        def layer(prefix):
            return [n for n in totals if n.startswith(prefix + ".")]

        def ms(ns):
            return ns / 1e6

        def ratio(a, b):
            return a / b if b else 0.0

        sync_self = pick("self_ns", layer("sync_engine"))
        rounds = pick("calls", STEPS)
        async_self = pick("self_ns", layer("async_engine"))
        steps = pick("calls", ["async_engine.step_async"])
        probes = pick("calls", PROBES)
        schedulers = [n for n in totals if n.endswith(".next_event")]
        return {
            "cli.self_ms": ms(pick("self_ns", layer("cli"))),
            "core.validate_ms": ms(pick("incl_ns", ["core.validate_trace"])),
            "core.trace_io_ms": ms(trace_io_ns),
            "core.artefact_bytes": self.artefact_bytes,
            "protocols.calls": pick("calls", PROTOCOL_METHODS),
            "protocols.self_ms": ms(pick("self_ns", PROTOCOL_METHODS)),
            "sync_engine.rounds": rounds,
            "sync_engine.self_ms": ms(sync_self),
            "sync_engine.us_per_round": ratio(sync_self / 1e3, rounds),
            "async_engine.steps": steps,
            "async_engine.us_per_step": ratio(async_self / 1e3, steps),
            "async_engine.scheduler_ms": ms(pick("incl_ns", schedulers)),
            "async_engine.in_flight_max": self.in_flight_max,
            "async_engine.in_flight_to_crashed": self.in_flight_to_crashed,
            "checking.rounds": self.checked_rounds,
            "checking.self_ms": ms(pick("self_ns", layer("checking"))),
            "checking.distinct_config_ratio": ratio(self.exhaustive_distinct, self.exhaustive_calls),
            "checking.repeat_transition_ratio": ratio(self.fuzz_repeats, self.fuzz_steps),
            "nondecider.attack_rounds": self.attack_rounds,
            "nondecider.probes": probes,
            "nondecider.probe_rounds": self.probe_rounds,
            "nondecider.probe_repeat_ratio": ratio(self.probe_repeats, probes),
            "nondecider.probes_per_attack_round": ratio(probes, self.attack_rounds),
            "nondecider.self_ms": ms(pick("self_ns", layer("nondecider"))),
            "nondecider.oracle_cap_hits": self.cap_hits,
            "simulations.wrapper_calls": pick("calls", WRAPPER_METHODS),
            "simulations.wrapper_self_ms": ms(pick("self_ns", WRAPPER_METHODS)),
            "simulations.payload_bytes_max": self.payload_max,
            "simulations.payload_bytes_mean": ratio(self.payload_sum, self.payload_count),
            "simulations.report_ms": ms(pick("incl_ns", REPORTS)),
        }

    def write_spans(self, directory: str) -> None:
        """Spans as raw little-endian columns plus a JSON index of names."""
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.span_names,
                    "count": len(self.name),
                    "columns": {
                        "name": "int32 index into names",
                        "parent": "int32 span index, -1 at a job root",
                        "job": "int32 job index",
                        "start": "int64 perf_counter_ns",
                        "end": "int64 perf_counter_ns",
                    },
                },
                fh,
                indent=1,
            )
        for column, data in (
            ("name", self.name),
            ("parent", self.parent),
            ("job", self.job_id),
            ("start", self.start),
            ("end", self.end),
        ):
            with open(os.path.join(directory, column + ".bin"), "wb") as fh:
                data.tofile(fh)
