"""Spans around the layer functions the tracker calls, kept in memory.

The tracker's per-frame loop lives in `motrack.pipeline`, which calls
each layer through a name it imported. Replacing those names with
wrappers puts a span at every layer boundary without touching the
program. Calls that the layers make among themselves go through their
own modules' names and are not wrapped, so the Kalman steps inside
`fill_fragment` count toward the fill, not toward `kalman`.

Two wrapper sets exist. The capture set only keeps references to the
gating and assignment inputs and results, which the per-frame oracle
checks need on every round; it reads no clock. The timing set records a
span for every layer call as well. Rounds measured for the end-to-end
metrics use the capture set.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import motrack.pipeline as pipeline
from motrack.alignment import EccError
from motrack.kalman import DegenerateStateError

clock = time.perf_counter_ns

# pipeline name -> layer name
TIMED_LAYERS = {
    "ecc_align": "alignment.ecc",
    "camera_intensity": "alignment.intensity",
    "iml_predict": "kalman.predict",
    "km_predict": "kalman.predict",
    "km_update": "kalman.update",
    "gated_cost": "gating",
    "fully_connected_cost": "gating",
    "km_solve": "assignment",
    "fill_fragment": "reconnect.fill",
    "reconnection_window": "reconnect.window",
}
CAPTURED_LAYERS = {"gating", "assignment", "alignment.ecc", "reconnect.fill"}
# Failures a layer reports by raising, counted where they happen.
COUNTED_ERRORS = {"alignment.ecc": EccError, "kalman.predict": DegenerateStateError}


@dataclass
class Recorder:
    """Spans (layer, round, step, start_ns, end_ns) and captured calls
    (layer, round, step, args, result) of one benchmark process.

    `step` numbers the frames stepped in a round, from 1, while a frame
    is being stepped and is 0 outside steps, so (round, step) identifies
    the spans of one frame.
    """

    timing: bool = False
    round: int = 0
    step: int = 0
    spans: list = field(default_factory=list)
    calls: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)

    def timed(self, layer: str, fn, *args, **kwargs):
        """Call fn, recording a span when timing is on."""
        if not self.timing:
            return fn(*args, **kwargs)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((layer, self.round, self.step, start, clock()))

    def _timing_wrapper(self, layer: str, fn):
        keep = layer in CAPTURED_LAYERS
        counted = COUNTED_ERRORS.get(layer)
        ecc = layer == "alignment.ecc"
        spans, calls = self.spans, self.calls

        def wrapper(*args, **kwargs):
            if ecc:
                kwargs["trace"] = iterations = []
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                end = clock()
                spans.append((layer, self.round, self.step, start, end))
                if counted is not None and isinstance(exc, counted):
                    key = (layer, self.round)
                    self.errors[key] = self.errors.get(key, 0) + 1
                raise
            end = clock()
            spans.append((layer, self.round, self.step, start, end))
            if keep:
                result = (out, len(iterations)) if ecc else out
                calls.append((layer, self.round, self.step, args, result))
            return out

        return wrapper

    def _capture_wrapper(self, layer: str, fn):
        calls = self.calls

        def wrapper(*args):
            out = fn(*args)
            calls.append((layer, self.round, self.step, args, out))
            return out

        return wrapper

    def install(self, originals: dict) -> None:
        """Point motrack.pipeline at the wrapper set for the current mode."""
        for name, fn in originals.items():
            layer = TIMED_LAYERS[name]
            if self.timing:
                wrapped = self._timing_wrapper(layer, fn)
            elif layer in ("gating", "assignment"):
                wrapped = self._capture_wrapper(layer, fn)
            else:
                wrapped = fn
            setattr(pipeline, name, wrapped)

    def calls_of(self, layer: str, round_index: int) -> list:
        return [c for c in self.calls if c[0] == layer and c[1] == round_index]


def pipeline_originals() -> dict:
    return {name: getattr(pipeline, name) for name in TIMED_LAYERS}


def restore(originals: dict) -> None:
    for name, fn in originals.items():
        setattr(pipeline, name, fn)


def write_spans(spans: list, path) -> None:
    with open(path, "w") as fh:
        fh.write("layer\tround\tstep\tstart_ns\tend_ns\n")
        for layer, round_index, step, start, end in spans:
            fh.write(f"{layer}\t{round_index}\t{step}\t{start}\t{end}\n")
