"""Spans around the package's public calls, recorded from outside the package.

A :class:`Tracer` replaces module attributes and two ``SemigroupPlan`` methods
with wrappers that time each call.  Each span is ``(name, start, end,
parent, op)``: ``parent`` is the index of the enclosing span (-1 at top
level) and ``op`` numbers the operation the span belongs to (one
``execute_run`` call or one oracle cross-check).  Spans stay in memory until
:meth:`Tracer.write` dumps them.

Wrapping patches the names the modules look up at call time: ``runner``
imports ``integrate``, ``measure_gradient_constant`` and the check functions
into its own namespace and ``imex`` imports ``diagnostics``, so those
bindings are patched next to the defining ones.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

FFT = "spectral.fft"
OP_SPANS = ("runner.execute_run", "bench.cross_check")


def _targets():
    from chemotaxis_lab import config, constants, imex, mild, runner, spectral

    plan = spectral.SemigroupPlan
    return [
        (plan, "to_spectral", FFT),
        (plan, "to_physical", FFT),
        (spectral, "measure_gradient_constant", "spectral.calibration"),
        (runner, "measure_gradient_constant", "spectral.calibration"),
        (imex, "integrate", "imex.integrate"),
        (runner, "integrate", "imex.integrate"),
        (imex, "diagnostics", "harness.diagnostics"),
        (runner, "check_eventual_bound", "harness.checks"),
        (runner, "check_persistence", "harness.checks"),
        (runner, "check_convergence", "harness.checks"),
        (runner, "auto_fit_window", "harness.checks"),
        (runner, "fit_decay_rate_sum", "harness.checks"),
        (constants, "compute_constants", "constants.compute"),
        (config, "load_config", "config.load"),
        (config, "load_sweep_config", "config.load"),
        (runner, "build_initial_state", "config.initial_state"),
        (runner, "execute_run", "runner.execute_run"),
        (runner, "execute_sweep", "runner.execute_sweep"),
        (mild, "picard_solve", "mild.picard"),
    ]


class Tracer:
    """Span recorder for one process; :meth:`install` puts the wrappers in place."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.op = 0
        self.fft_bytes = 0
        self.picard_iters = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        if name in OP_SPANS:
            self.op += 1
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (name, start, end, parent, self.op)

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, start)

    def wrap(self, fn, name: str):
        tracer = self
        # Bytes moved by a transform are computed from the array sizes.
        count_bytes = name == FFT
        count_iters = name == "mild.picard"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(name)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid, name, start)
            if count_bytes:
                tracer.fft_bytes += args[1].nbytes + out.nbytes
            if count_iters:
                tracer.picard_iters += out.iterations
            return out

        return traced

    def install(self) -> None:
        """Wrap every traced entry point; lasts for the life of the process."""
        for owner, attr, name in _targets():
            setattr(owner, attr, self.wrap(getattr(owner, attr), name))

    def write(self, path: Path) -> None:
        fields = ("name", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals: call counts, summed time and self time.

        Every metric is one that each workload exercises, except the
        ``mild`` counts, which read 0 where no Picard solve ran.
        """
        spans = self.spans
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_time = [0.0] * len(spans)
        fft_under: dict[str, int] = {}
        for name, start, end, parent, _ in spans:
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                child_time[parent] += end - start
                if name == FFT:
                    owner = spans[parent][0]
                    fft_under[owner] = fft_under.get(owner, 0) + 1

        integ, diag = "imex.integrate", "harness.diagnostics"
        integrate_self = sum(
            (s[2] - s[1]) - child_time[i] for i, s in enumerate(spans) if s[0] == integ
        )
        return {
            "spectral.fft_calls": calls.get(FFT, 0),
            "spectral.fft_s": total.get(FFT, 0.0),
            "spectral.fft_bytes": self.fft_bytes,
            "spectral.calibration_s": total.get("spectral.calibration", 0.0),
            "imex.integrate_s": total.get(integ, 0.0),
            "imex.integrate_self_s": integrate_self,
            "imex.fft_calls": fft_under.get(integ, 0),
            "harness.diagnostics_calls": calls.get(diag, 0),
            "harness.diagnostics_s": total.get(diag, 0.0),
            "mild.fft_calls": fft_under.get("mild.picard", 0),
            "mild.picard_iters": self.picard_iters,
        }

    def span_totals(self) -> dict[str, float]:
        """Summed time per span name, every traced layer included."""
        total: dict[str, float] = {}
        for name, start, end, _, _ in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
        return total
