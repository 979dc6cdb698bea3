"""Run one ``python -m repro`` command with every layer in ``layers.TARGETS`` timed.

Usage::

    python tracer.py SPANS.json COMMAND_ID -- run --spec darkgates ...

The wrappers are installed from outside the program: each target is
replaced on its class, or, for a module-level function, in every loaded
``repro`` module that imported it by name.  Spans stay in memory and are
written to ``SPANS.json`` when the command ends, as
``{"command", "exit_code", "names", "spans": [[name, start, end, parent]],
"counters"}`` with ``time.perf_counter`` timestamps (the system-wide
monotonic clock, so the parent can compare them with its own).  The counters
are ``store.hits`` (lookups that found the run), ``sim.steps`` (run-steps
or die-steps stepped) and ``process.starts`` (there should be none).  The
``import`` span covers ``import repro.store.cli`` only, as ``setup_s`` does;
the ``trace.install`` span imports the other target modules (such as
``repro.analysis.fleet``, which the CLI imports only for ``--profile``) so
that they can be wrapped.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, List

from layers import TARGETS


class Tracer:
    """In-memory span recorder; the innermost open span is the parent."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.spans: List[List[float]] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        index = len(self.spans)
        span = [self._name_id(name), time.perf_counter(), 0.0, self._stack[-1]]
        self.spans.append(span)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        observe = OBSERVERS.get(name)

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def dump(self, path: str, command: str, exit_code: int) -> None:
        payload = {
            "command": command,
            "exit_code": exit_code,
            "names": self.names,
            "spans": self.spans,
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, allow_nan=False)


def _count_hit(tracer: Tracer, found: Any) -> None:
    if found:
        tracer.add("store.hits", 1)


def _count_batch_steps(tracer: Tracer, results: Any) -> None:
    tracer.add("sim.steps", sum(len(result.times_s) for result in results))


def _count_die_steps(tracer: Tracer, traces: Any) -> None:
    tracer.add("sim.steps", traces.steps * traces.count)


#: Counters read off a wrapped call's return value, after its span closed.
OBSERVERS: Dict[str, Callable[[Tracer, Any], None]] = {
    "store.lookup": _count_hit,
    "sim.run_batch": _count_batch_steps,
    "sim.run_population": _count_die_steps,
}


def _patch_function(tracer: Tracer, name: str, module: Any, attribute: str) -> None:
    original = getattr(module, attribute)
    inner = getattr(original, "__wrapped__", None)
    if inner is not None and hasattr(original, "cache_clear"):
        # An lru_cache'd function (build_engine): time cache misses only.  The
        # fresh cache is empty, as the original's is at this point.
        replacement = functools.lru_cache(maxsize=None)(tracer.wrap(name, inner))
    else:
        replacement = tracer.wrap(name, original)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").split(".")[0] != "repro":
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, replacement)


def _patch_method(tracer: Tracer, name: str, owner: type, attribute: str) -> None:
    raw = owner.__dict__[attribute]
    if isinstance(raw, classmethod):
        setattr(owner, attribute, classmethod(tracer.wrap(name, raw.__func__)))
    else:
        setattr(owner, attribute, tracer.wrap(name, raw))


def install(tracer: Tracer) -> None:
    """Wrap every target, and count process starts (there should be none)."""
    import multiprocessing.process

    # Import every target module before patching, so that a module imported
    # later cannot keep a by-name reference to an unpatched function.
    modules = [importlib.import_module(module_name) for _, module_name, _ in TARGETS]
    for (name, _, path), module in zip(TARGETS, modules):
        if "." in path:
            class_name, attribute = path.split(".")
            _patch_method(tracer, name, getattr(module, class_name), attribute)
        else:
            _patch_function(tracer, name, module, path)

    start = multiprocessing.process.BaseProcess.start

    def counted_start(process: Any) -> None:
        tracer.add("process.starts", 1)
        start(process)

    multiprocessing.process.BaseProcess.start = counted_start


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(
            "usage: tracer.py SPANS.json COMMAND_ID -- REPRO-ARGS...", file=sys.stderr
        )
        return 2
    spans_path, command, repro_argv = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    exit_code = 1
    try:
        index = tracer.open("import")
        import repro.store.cli as cli

        tracer.close(index)
        index = tracer.open("trace.install")
        install(tracer)
        tracer.close(index)
        index = tracer.open("cli")
        try:
            exit_code = cli.main(repro_argv)
        finally:
            tracer.close(index)
    finally:
        tracer.dump(spans_path, command, exit_code)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
