"""The benchmark's tracer (perfbench/tracing.py) wraps dialectid functions by
module and name, and its counters read their arguments and return values.
The tier-1 suite does not run perfbench's own tests, so this checks here
that every name it wraps still exists and that every counter still reads
what the layer returns."""

import importlib.util
import json
import math
import sys
from pathlib import Path

from dialectid import acoustics, evaluation, features, forest, synth
from dialectid.rng import stream

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def _tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    tracing = _tracing(monkeypatch)
    originals = [getattr(layer.module, layer.attr) for layer in tracing.LAYERS]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(getattr(layer.module, layer.attr) is not original
                   for layer, original in zip(tracing.LAYERS, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(layer.module, layer.attr) is original
               for layer, original in zip(tracing.LAYERS, originals))


def test_benchmark_tracer_counts_every_layer(monkeypatch, tmp_path):
    # a small pass through the pipeline, then each layer it does not reach,
    # every call through the module attribute the tracer wraps
    tracing = _tracing(monkeypatch)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        manifest = synth.generate_corpus(synth.dialect_profile("separated"), 2, 2, 3, tmp_path)
        dataset, failures = features.build_dataset(manifest, "phoneme")
        assert len(dataset) == 12 and not failures
        x, y = dataset.matrix(), dataset.labels()
        model = forest.train_forest(dataset, forest.ForestParams(n_estimators=3, seed=1))
        forest.forest_predict_many(model, x)
        forest.forest_predict(model, x[0])
        forest.load_model(forest.save_model(model))
        forest.grid_search(dataset, {"n_estimators": [3], "max_features": [4]}, 2, 1)

        signal = synth.synthesize_vowel(synth.VowelSpec(
            f0=120.0, formants=(700.0, 1220.0, 2600.0), duration=0.3,
            amplitude_rms=0.1, sample_rate=16000))
        acoustics.formant_track(signal)
        acoustics.pitch_track(signal)
        acoustics.energy_track(signal)
        features.extract_vowel_features(features.VowelSegment(
            signal, "a", 0.0, signal.duration, "s", "male", "Imphal"))
        features.sample_six([(0.05, 1.0), (0.15, 2.0), (0.25, 3.0)], 0.0, 0.3)
        features.write_features_csv(dataset)
        forest.grow_tree(x, y, forest.ForestParams(max_features=4), stream(0), 3)
        forest.best_split(x, y, range(4), 3)
        evaluation.stratified_split(dataset, 0.25, 1)
        evaluation.confusion_matrix(y, y, dataset.class_names)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(lambda start, end: 0.0)
    assert all(metrics[f"{layer.name}.calls"] >= 1 for layer in tracing.LAYERS)
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = [m["name"] for m in per_layer if not m["name"].startswith("trace.")]
    assert all(math.isfinite(metrics[name]) for name in names)
    assert metrics["forest.train_forest.nodes"] == len(model.table)
    assert metrics["forest.train_forest.trees"] == 3
    assert metrics["features.build_dataset.rows_out"] == 12
    assert metrics["forest.best_split.no_split_ratio"] == 0.0
