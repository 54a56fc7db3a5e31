"""Spans around the program's layers, recorded from outside the package.

`install` replaces the public names that each calling module looks up at
call time (for example `tasec.secrecy.draw_gain_blocks`, which
`_chunk_moments` calls) with wrappers that record a span: name, start, end
and the span that caused it on the same thread. Spans and counters are kept
per thread in memory; `harvest` reduces them to per-layer metrics after each
pass and clears them. A layer's self time is its span time minus the time of
its direct child spans.
"""

import functools
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._threads = []  # (thread, spans, counters)
        self._local = threading.local()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], [], defaultdict(int))  # spans, open-span stack, counters
            self._local.state = state
            with self._lock:
                self._threads.append((threading.current_thread(), state))
        return state

    def count(self, name: str, amount: int = 1) -> None:
        self._state()[2][name] += amount

    def wrap(self, name: str, fn, counts=None):
        """`fn` recording a span `name`; `counts(args, kwargs, result,
        duration_ns)` returns counters to add for the call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack, counters = tracer._state()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counts is not None:
                for key, amount in counts(args, kwargs, result, end - start).items():
                    counters[key] += amount
            return result

        return traced

    def harvest(self) -> dict:
        """Per-layer metrics of everything recorded since the last harvest.
        Call between passes, when no span is open."""
        with self._lock:
            threads, self._threads = self._threads, [
                entry for entry in self._threads if entry[0].is_alive()]
        total, child, calls, counters = (defaultdict(int), defaultdict(int),
                                         defaultdict(int), defaultdict(int))
        for _, (spans, _, thread_counters) in threads:
            for name, start, end, parent in spans:
                duration = end - start
                total[name] += duration
                calls[name] += 1
                if parent >= 0:
                    parent_name = spans[parent][0]
                    child[parent_name] += duration
                    if (parent_name, name) == ("experiments.crossover",
                                               "secrecy.closed_btas"):
                        counters["experiments.crossover_gap_evals"] += 1
            for key, amount in thread_counters.items():
                counters[key] += amount
            spans.clear()
            thread_counters.clear()
        return _layer_metrics(total, child, calls, counters)


def _layer_metrics(total, child, calls, counters) -> dict:
    def seconds(ns):
        return ns * 1e-9

    def self_s(*names):
        return seconds(sum(total[n] - child[n] for n in names))

    gains = counters["channel.gains_drawn"]
    capacity = counters["secrecy.mc_thread_ns"]
    return {
        "channel.draw_s": self_s("channel.draw"),
        "channel.draw_ns_per_gain": (total["channel.draw"] - child["channel.draw"])
                                    / gains if gains else 0.0,
        "channel.gains_drawn": gains,
        "channel.draw_bytes": counters["channel.draw_bytes"],
        "channel.stream_setup_s": seconds(total["channel.stream"]),
        "channel.streams_built": counters["channel.streams_built"],
        "selection.select_s": self_s("selection.select"),
        "selection.rows": counters["selection.rows"],
        "secrecy.mc_self_s": self_s("secrecy.chunk"),
        "secrecy.mc_calls": calls["secrecy.mc_asc"],
        "secrecy.mc_chunks": calls["secrecy.chunk"],
        "secrecy.mc_busy_ratio": total["secrecy.chunk"] / capacity if capacity else 0.0,
        "secrecy.closed_self_s": self_s("secrecy.closed_btas", "secrecy.closed_etas"),
        "secrecy.integrand_s": seconds(total["secrecy.integrand"]),
        "expint.delta_e_s": seconds(total["expint.delta_e"]),
        "expint.delta_e_calls": calls["expint.delta_e"],
        "quadrature.self_s": self_s("quadrature.integrate"),
        "quadrature.panels": calls["secrecy.integrand"],
        "quadrature.calls": calls["quadrature.integrate"],
        "experiments.crossover_s": seconds(total["experiments.crossover"]),
        "experiments.crossover_gap_evals": counters["experiments.crossover_gap_evals"],
        "experiments.sweep_self_s": self_s("experiments.sweep"),
        "cli.self_s": self_s("cli.main"),
        "cli.csv_bytes": counters["cli.csv_bytes"],
    }


def _draw_counts(args, kwargs, result, duration_ns):
    bob, eve = result
    return {"channel.gains_drawn": bob.size + eve.size,
            "channel.draw_bytes": bob.nbytes + eve.nbytes}


def _mc_counts(args, kwargs, result, duration_ns):
    threads = kwargs.get("threads", args[4] if len(args) > 4 else 1)
    return {"secrecy.mc_thread_ns": threads * duration_ns}


def _patch(tracer: Tracer, module, attr: str, name: str, counts=None) -> None:
    original = getattr(module, attr, None)
    if original is None:
        print(f"spans: {module.__name__}.{attr} not found; layer {name} reads 0",
              file=sys.stderr)
        return
    setattr(module, attr, tracer.wrap(name, original, counts))


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported `tasec`."""
    from tasec import channel, cli, experiments, secrecy

    _patch(tracer, secrecy, "draw_gain_blocks", "channel.draw", _draw_counts)
    _patch(tracer, secrecy, "select_indices", "selection.select",
           lambda a, k, r, d: {"selection.rows": len(r)})
    # One Monte Carlo chunk job: draw, select, then gather, clamp, log2 and
    # the chunk's moments. The only boundary of a worker's busy time.
    _patch(tracer, secrecy, "_chunk_moments", "secrecy.chunk")
    _patch(tracer, secrecy, "delta_e", "expint.delta_e")
    for module in (secrecy, experiments):
        _patch(tracer, module, "asc_btas_closed", "secrecy.closed_btas")
        _patch(tracer, module, "asc_etas_closed", "secrecy.closed_etas")
    _patch(tracer, experiments, "mc_asc", "secrecy.mc_asc", _mc_counts)
    _patch(tracer, experiments, "find_crossover", "experiments.crossover")
    _patch(tracer, cli, "run_sweep", "experiments.sweep")
    _patch(tracer, cli, "main", "cli.main")

    integrate = getattr(secrecy, "integrate_half_line", None)
    if integrate is not None:
        def integrate_traced(f, *args, **kwargs):
            return integrate(tracer.wrap("secrecy.integrand", f), *args, **kwargs)
        secrecy.integrate_half_line = tracer.wrap("quadrature.integrate",
                                                  integrate_traced)

    stream_class = channel.RngStream
    timed_generator = tracer.wrap("channel.stream", stream_class.generator.fget)

    def generator(stream):
        if getattr(stream, "_generator", None) is None:
            tracer.count("channel.streams_built")
        return timed_generator(stream)

    stream_class.generator = property(generator)
