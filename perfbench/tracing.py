"""In-memory span tracer that wraps dialectid's public functions from outside.

Each layer is a `<module>.<function>` name.  `Tracer.install` replaces the
function at the name its caller looks it up (a module global such as
`dialectid.forest.best_split`, or a by-name import such as
`dialectid.acoustics.resample`) with a wrapper that records one span
(name, start, end, parent, operation id) and the layer's counters.
`Tracer.uninstall` puts the originals back, so untraced passes run the
unmodified program.  No source under `src/` changes.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from dialectid import acoustics, audio, evaluation, features, forest, synth, textgrid


# --- counters, called with (counter, args, kwargs, result) after a successful call ---

def _bytes_in(c, args, kwargs, result):
    c["bytes"] += len(args[0])


def _bytes_out(c, args, kwargs, result):
    c["bytes"] += len(result)


def _frame_set(c, args, kwargs, result):
    c["frames"] += len(result.frames)


def _formant_frames(c, args, kwargs, result):
    c["frames"] += len(result)
    c["invalid_frames"] += sum(not f.valid for f in result)


def _pitch_frames(c, args, kwargs, result):
    c["frames"] += len(result)
    c["unvoiced_frames"] += sum(p.f0 <= 0.0 for p in result)


def _dataset_rows(c, args, kwargs, result):
    dataset, failures = result
    with open(args[0], "rb") as fh:
        c["rows_in"] += len(features.read_manifest(fh.read().decode("utf-8")))
    c["rows_out"] += len(dataset)
    c["failures"] += len(failures)


def _forest_size(c, args, kwargs, result):
    c["trees"] += len(result.trees)
    c["nodes"] += sum(len(tree) for tree in result.trees)


def _split_scan(c, args, kwargs, result):
    c["rows_scanned"] += len(args[1])
    c["no_split"] += result is None


def _predict_rows(c, args, kwargs, result):
    c["rows"] += len(args[1])


def _grid_cells(c, args, kwargs, result):
    _, table = result
    c["cells"] += len(table)
    c["forests"] += sum(len(cell.fold_accuracies) for cell in table)


def _corpus_files(c, args, kwargs, result):
    with open(result, "rb") as fh:
        c["utterances"] += len(features.read_manifest(fh.read().decode("utf-8")))
    with os.scandir(os.path.dirname(result)) as entries:
        c["bytes_written"] += sum(e.stat().st_size for e in entries if e.is_file())


@dataclass(frozen=True)
class Layer:
    module: object
    attr: str
    name: str
    count: Callable | None = None


LAYERS: tuple[Layer, ...] = (
    Layer(audio, "read_wav", "audio.read_wav", _bytes_in),
    Layer(audio, "slice_signal", "audio.slice_signal"),
    Layer(acoustics, "resample", "acoustics.resample"),
    Layer(acoustics, "frame_signal", "acoustics.frame_signal", _frame_set),
    Layer(textgrid, "parse_textgrid", "textgrid.parse_textgrid", _bytes_in),
    Layer(textgrid, "vowel_intervals", "textgrid.vowel_intervals"),
    Layer(acoustics, "formant_track", "acoustics.formant_track", _formant_frames),
    Layer(acoustics, "pitch_track", "acoustics.pitch_track", _pitch_frames),
    Layer(acoustics, "energy_track", "acoustics.energy_track"),
    Layer(acoustics, "intensity_mean", "acoustics.intensity_mean"),
    Layer(features, "build_dataset", "features.build_dataset", _dataset_rows),
    Layer(features, "extract_vowel_features", "features.extract_vowel_features"),
    Layer(features, "sample_six", "features.sample_six"),
    Layer(features, "write_features_csv", "features.write_features_csv", _bytes_out),
    Layer(forest, "train_forest", "forest.train_forest", _forest_size),
    Layer(forest, "grow_tree", "forest.grow_tree"),
    Layer(forest, "best_split", "forest.best_split", _split_scan),
    Layer(forest, "forest_predict", "forest.forest_predict"),
    Layer(forest, "forest_predict_many", "forest.forest_predict_many", _predict_rows),
    Layer(forest, "save_model", "forest.save_model", _bytes_out),
    Layer(forest, "load_model", "forest.load_model", _bytes_in),
    Layer(forest, "grid_search", "forest.grid_search", _grid_cells),
    Layer(evaluation, "stratified_split", "evaluation.stratified_split"),
    Layer(evaluation, "stratified_k_fold", "evaluation.stratified_k_fold"),
    Layer(evaluation, "confusion_matrix", "evaluation.confusion_matrix"),
    Layer(synth, "generate_corpus", "synth.generate_corpus", _corpus_files),
    Layer(synth, "synthesize_vowel", "synth.synthesize_vowel"),
)

# counters reported per layer, in output order; ratios divide the first by the second
COUNTS: dict[str, tuple[str, ...]] = {
    "audio.read_wav": ("bytes",),
    "acoustics.frame_signal": ("frames",),
    "textgrid.parse_textgrid": ("bytes",),
    "acoustics.formant_track": ("frames",),
    "acoustics.pitch_track": ("frames",),
    "features.build_dataset": ("rows_in", "rows_out", "failures"),
    "features.write_features_csv": ("bytes",),
    "forest.train_forest": ("trees", "nodes"),
    "forest.best_split": ("rows_scanned",),
    "forest.forest_predict_many": ("rows",),
    "forest.save_model": ("bytes",),
    "forest.load_model": ("bytes",),
    "forest.grid_search": ("cells", "forests"),
    "synth.generate_corpus": ("utterances", "bytes_written"),
}
RATIOS: dict[str, tuple[str, str, str]] = {
    # layer: (metric, numerator counter, denominator counter or "calls")
    "acoustics.formant_track": ("invalid_frame_ratio", "invalid_frames", "frames"),
    "acoustics.pitch_track": ("unvoiced_frame_ratio", "unvoiced_frames", "frames"),
    "forest.best_split": ("no_split_ratio", "no_split", "calls"),
}
# layers whose exceptions are reported as a failure count (by type in the record)
FAILURE_LAYERS = ("features.extract_vowel_features",)


class Tracer:
    """Spans and counters of one benchmark run, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.op_id = 0                  # set by the runner: 0 is set-up
        self.counts: dict[str, Counter] = {layer.name: Counter() for layer in LAYERS}
        self.errors: dict[str, Counter] = {layer.name: Counter() for layer in LAYERS}
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, Callable]] = []

    def _wrap(self, layer: Layer, original: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        counter, errors = self.counts[layer.name], self.errors[layer.name]

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                errors[type(exc).__name__] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (layer.name, start, end, parent, self.op_id)
            if layer.count is not None:
                layer.count(counter, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for layer in LAYERS:
            original = getattr(layer.module, layer.attr)
            self._originals.append((layer.module, layer.attr, original))
            setattr(layer.module, layer.attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def layer_metrics(self, taken_out: Callable[[float, float], float]) -> dict[str, float]:
        """calls, self_s and total_s of every layer over all spans so far,
        plus the layer counters.  A span's duration leaves out the time
        `taken_out(start, end)` gives (the host-speed gauge's), and its self
        time is that duration less the durations of its child spans."""
        durations = [end - start - taken_out(start, end) for _, start, end, _, _ in self.spans]
        child_s = [0.0] * len(self.spans)
        for (_, _, _, parent, _), duration in zip(self.spans, durations):
            if parent >= 0:
                child_s[parent] += duration
        calls = Counter()
        self_s = Counter()
        total_s = Counter()
        for (name, _, _, _, _), duration, children in zip(self.spans, durations, child_s):
            calls[name] += 1
            total_s[name] += duration
            self_s[name] += duration - children
        out: dict[str, float] = {}
        for layer in LAYERS:
            name = layer.name
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.total_s"] = total_s[name]
            c = self.counts[name]
            for key in COUNTS.get(name, ()):
                out[f"{name}.{key}"] = c[key]
            if name in RATIOS:
                metric, num, den = RATIOS[name]
                denominator = calls[name] if den == "calls" else c[den]
                out[f"{name}.{metric}"] = c[num] / denominator if denominator else 0.0
            if name in FAILURE_LAYERS:
                out[f"{name}.failures"] = sum(self.errors[name].values())
        return out

    def top_level_s(self, lo: float, hi: float,
                    taken_out: Callable[[float, float], float]) -> float:
        """Time covered by outermost spans that start inside [lo, hi], less
        the time `taken_out` gives for each."""
        return sum(end - start - taken_out(start, end) for _, start, end, parent, _ in self.spans
                   if parent < 0 and lo <= start <= hi)

    def write_spans(self, path: str, t0: float) -> None:
        """One CSV line per span; times in seconds from t0, parent is a line
        index (-1 for a top-level span)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,op_id\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent},{op}\n")
