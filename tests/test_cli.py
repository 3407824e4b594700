import csv
import hashlib
import io
import json
import math
import os
import shutil
import struct
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialectid.acoustics import AcousticSettings
from dialectid.cli import build_parser, main
from dialectid.config import ConfigError, PipelineConfig, load_config, parse_config
from dialectid.errors import MalformedAliasTable
from dialectid.features import read_features_csv, write_features_csv
from dialectid.forest import ForestParams
from dialectid.textgrid import parse_alias_table


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Corpus + features + model produced through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    rc = main(["synth-corpus", "--profile", "separated", "--speakers", "2",
               "--vowels-per-speaker", "4", "--seed", "5", "--out", str(corpus)])
    assert rc == 0
    feats = root / "features.csv"
    rc = main(["extract", "--manifest", str(corpus / "manifest.csv"),
               "--tier", "phoneme", "--out", str(feats)])
    assert rc == 0
    model = root / "model.json"
    rc = main(["train", "--features", str(feats), "--group", "all",
               "--n-estimators", "30", "--max-features", "6",
               "--seed", "1", "--split-seed", "42", "--out", str(model)])
    assert rc == 0
    return root


def test_missing_out_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["synth-corpus", "--profile", "separated", "--speakers", "2",
              "--vowels-per-speaker", "2", "--seed", "1"])
    assert exc.value.code == 2


def test_unknown_profile_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["synth-corpus", "--profile", "nope", "--speakers", "2",
              "--vowels-per-speaker", "2", "--out", "x"])
    assert exc.value.code == 2


def test_synth_corpus_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["synth-corpus", "--profile", "identical", "--speakers", "1",
                     "--vowels-per-speaker", "2", "--seed", "3", "--out", str(out)]) == 0
    assert (a / "manifest.csv").read_bytes() == (b / "manifest.csv").read_bytes()
    for name in os.listdir(a):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_extract_counts(workdir):
    lines = (workdir / "features.csv").read_text().splitlines()
    assert len(lines) == 1 + 24  # header + 3 dialects x 2 speakers x 4 vowels


def test_extract_missing_wav_isolated(workdir, tmp_path):
    corpus = workdir / "corpus"
    manifest = tmp_path / "manifest.csv"
    text = (corpus / "manifest.csv").read_text().splitlines()
    text.append("nope.wav,nope.TextGrid,x1,male,Imphal")
    manifest.write_text("\n".join(text) + "\n")
    import shutil
    for f in corpus.iterdir():
        if f.suffix in (".wav", ".TextGrid"):
            shutil.copy(f, tmp_path / f.name)
    out = tmp_path / "f.csv"
    rc = main(["extract", "--manifest", str(manifest), "--tier", "phoneme",
               "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 25


def test_extract_empty_manifest_exit_1(tmp_path):
    manifest = tmp_path / "m.csv"
    manifest.write_text("wav_path,textgrid_path,speaker_id,gender,dialect\n")
    rc = main(["extract", "--manifest", str(manifest), "--tier", "phoneme",
               "--out", str(tmp_path / "f.csv")])
    assert rc == 1


def test_train_writes_model_and_split(workdir):
    model_path = workdir / "model.json"
    doc = json.loads(model_path.read_text())
    assert doc["params"]["n_estimators"] == 30
    assert doc["params"]["max_features"] == 6
    assert len(doc["feature_names"]) == 33
    record = json.loads((workdir / "model.json.split.json").read_text())
    assert set(record["train_indices"]).isdisjoint(record["test_indices"])
    assert len(record["train_indices"]) + len(record["test_indices"]) == 24


def test_train_group_spectral(workdir, tmp_path):
    out = tmp_path / "spec.json"
    rc = main(["train", "--features", str(workdir / "features.csv"),
               "--group", "spectral", "--n-estimators", "10", "--seed", "2",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["feature_names"]) == 18


def test_train_deterministic(workdir, tmp_path):
    outs = []
    for name in ("m1.json", "m2.json"):
        out = tmp_path / name
        rc = main(["train", "--features", str(workdir / "features.csv"),
                   "--group", "all", "--n-estimators", "10",
                   "--seed", "9", "--split-seed", "42", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_evaluate_uses_split_record(workdir, tmp_path, capsys):
    out_csv = tmp_path / "conf.csv"
    rc = main(["evaluate", "--model", str(workdir / "model.json"),
               "--features", str(workdir / "features.csv"), "--out", str(out_csv)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "accuracy:" in captured.out
    assert "evaluating" in captured.err
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("true_class,pred_")
    total = sum(int(v) for line in lines[1:] for v in line.split(",")[1:])
    record = json.loads((workdir / "model.json.split.json").read_text())
    assert total == len(record["test_indices"])


def test_evaluate_mismatched_model_exit_1(workdir, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    rc = main(["evaluate", "--model", str(bad),
               "--features", str(workdir / "features.csv")])
    assert rc == 1


def test_evaluate_header_only_features_without_split_exit_1(workdir, tmp_path, capsys):
    header = (workdir / "features.csv").read_text().splitlines()[0]
    empty = tmp_path / "empty.csv"
    empty.write_text(header + "\n")
    model = tmp_path / "model.json"
    shutil.copy(workdir / "model.json", model)   # no split record beside this copy
    rc = main(["evaluate", "--model", str(model), "--features", str(empty)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: features file {empty} has no rows to evaluate" in err
    assert "Traceback" not in err


def test_evaluate_explicit_missing_split_exit_1(workdir, tmp_path):
    rc = main(["evaluate", "--model", str(workdir / "model.json"),
               "--features", str(workdir / "features.csv"),
               "--split", str(tmp_path / "nope.json")])
    assert rc == 1


def test_train_single_class_exit_1(workdir, tmp_path):
    lines = (workdir / "features.csv").read_text().splitlines()
    only_imphal = [lines[0]] + [ln for ln in lines[1:] if ",Imphal," in ln]
    path = tmp_path / "one_class.csv"
    path.write_text("\n".join(only_imphal) + "\n")
    rc = main(["train", "--features", str(path), "--group", "all",
               "--n-estimators", "5", "--out", str(tmp_path / "m.json")])
    assert rc == 1


def test_evaluate_foreign_feature_names_exit_1(workdir, tmp_path):
    import numpy as np
    from dialectid.features import DIALECTS, Dataset, FeatureVector
    from dialectid.forest import save_model, train_forest
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, (20, 2))
    y = (x[:, 0] > 0.5).astype(np.int64)
    rows = tuple(FeatureVector(x[i], DIALECTS[int(y[i])], "s", "a", f"r{i}")
                 for i in range(20))
    model = train_forest(Dataset(rows, ("alpha", "beta")),
                         ForestParams(n_estimators=2, max_features=2))
    path = tmp_path / "foreign.json"
    path.write_bytes(save_model(model))
    rc = main(["evaluate", "--model", str(path),
               "--features", str(workdir / "features.csv")])
    assert rc == 1


def test_evaluate_model_with_other_classes_exit_1(workdir, tmp_path, capsys):
    doc = json.loads((workdir / "model.json").read_text())
    doc["class_names"] = doc["class_names"][::-1]
    model = tmp_path / "reversed.json"
    model.write_text(json.dumps(doc))
    shutil.copy(workdir / "model.json.split.json", tmp_path / "reversed.json.split.json")
    rc = main(["evaluate", "--model", str(model), "--features", str(workdir / "features.csv")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "accuracy" not in captured.out
    assert "error: model classes Sekmai, Kakching, Imphal differ from the features " \
        "file's Imphal, Kakching, Sekmai" in captured.err
    assert "Traceback" not in captured.err


def test_grid_search_table(workdir, capsys):
    rc = main(["grid-search", "--features", str(workdir / "features.csv"),
               "--group", "all", "--n-estimators", "5,10",
               "--max-features", "2,6", "--folds", "2", "--seed", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    table_lines = [ln for ln in out.splitlines()
                   if ln.strip() and ln.strip()[0].isdigit()]
    assert len(table_lines) == 4
    assert "best:" in out


def test_report(workdir, tmp_path, capsys):
    space = tmp_path / "space.csv"
    rc = main(["report", "--features", str(workdir / "features.csv"),
               "--out", str(space)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "vowel distribution" in out
    assert "dataset summary" in out
    lines = space.read_text().splitlines()
    assert lines[0] == "dialect,vowel,mean_f2,mean_f1"
    assert 1 <= len(lines) - 1 <= 18


def test_report_quotes_a_vowel_label_the_csv_must_quote(workdir, tmp_path):
    records = list(csv.reader(io.StringIO((workdir / "features.csv").read_text("utf-8"))))
    records[1][4] = 'a,"x'
    feats, space = tmp_path / "features.csv", tmp_path / "space.csv"
    with open(feats, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(records)
    assert main(["report", "--features", str(feats), "--out", str(space)]) == 0
    table = list(csv.reader(io.StringIO(space.read_text("utf-8"))))
    assert table[0] == ["dialect", "vowel", "mean_f2", "mean_f1"]
    assert all(len(rec) == 4 for rec in table)
    assert [rec[1] for rec in table].count('a,"x') == 1


def test_importance_sums_to_one(workdir, capsys):
    rc = main(["importance", "--model", str(workdir / "model.json")])
    assert rc == 0
    out = capsys.readouterr().out
    total = [ln for ln in out.splitlines() if ln.strip().startswith("sum")]
    assert total and abs(float(total[0].split()[-1]) - 1.0) < 1e-6


def test_importance_corrupt_model_exit_1(tmp_path):
    bad = tmp_path / "m.json"
    bad.write_text("{}")
    assert main(["importance", "--model", str(bad)]) == 1


# --- config ---

def test_parse_config_overrides():
    cfg = parse_config("voicing_threshold = 0.5\nn_estimators = 99  # comment\n"
                       "bootstrap = false\ntier_name = words\n")
    assert cfg.acoustics.voicing_threshold == 0.5
    assert cfg.forest.n_estimators == 99
    assert cfg.forest.bootstrap is False
    assert cfg.tier_name == "words"
    assert cfg.acoustics == AcousticSettings(voicing_threshold=0.5)


def test_config_and_alias_table_name_the_line_without_equals():
    text = "# comment\n\nno equals sign\n"
    with pytest.raises(ConfigError, match="^line 3: "):
        parse_config(text)
    with pytest.raises(MalformedAliasTable, match="^line 3: "):
        parse_alias_table(text)


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("wibble = 3\n")
    with pytest.raises(ConfigError):
        parse_config("n_estimators = soon\n")


@pytest.mark.parametrize("line", ["n_estimators = 0", "max_features = 0",
                                  "min_samples_split = 1", "max_depth = -1"])
def test_parse_config_rejects_bad_forest_fields(line):
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("# forest\n" + line + "\n")


def test_parse_config_accepts_forest_minimums():
    cfg = parse_config("n_estimators = 1\nmax_features = 1\n"
                       "min_samples_split = 2\nmax_depth = 0\n")
    assert (cfg.forest.n_estimators, cfg.forest.max_features, cfg.forest.min_samples_split,
            cfg.forest.max_depth) == (1, 1, 2, None)


def test_parse_config_cross_field_rule_ignores_line_order():
    for text in ("pitch_min_hz = 600\npitch_max_hz = 800\n",
                 "pitch_max_hz = 800\npitch_min_hz = 600\n"):
        cfg = parse_config(text)
        assert (cfg.acoustics.pitch_min_hz, cfg.acoustics.pitch_max_hz) == (600.0, 800.0)


def test_readme_example_config_parses_to_documented_values():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Configuration file", 1)[1].split("```ini\n", 1)[1]
    cfg = parse_config(example.split("```", 1)[0])
    assert cfg.acoustics.voicing_threshold == 0.45
    assert cfg.acoustics.formant_max_hz == 4500.0
    assert type(cfg.acoustics.formant_max_hz) is float
    assert cfg.forest.n_estimators == 400
    assert (cfg.split_seed, cfg.tier_name) == (42, "phoneme")
    assert cfg == PipelineConfig()  # every value shown is a default


_CONFIG_KEYS = ([f.name for f in fields(AcousticSettings)]
                + ["n_estimators", "max_features", "min_samples_split", "max_depth",
                   "bootstrap", "forest_seed", "tier_name", "alias_table",
                   "test_fraction", "split_seed"])
_config_values = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0", "0", "1", "true", "off", ""]),
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=6))


def _assert_config_valid(cfg):
    a, f = cfg.acoustics, cfg.forest
    for field in fields(a):
        value = getattr(a, field.name)
        assert type(value) is type(field.default) and math.isfinite(value)
    assert 8000 <= a.formant_rate <= 48000 and a.lpc_order >= 1
    assert min(a.formant_frame_ms, a.pitch_frame_ms, a.energy_frame_ms) >= 5
    assert min(a.formant_hop_ms, a.pitch_hop_ms, a.energy_hop_ms) >= 1
    assert min(a.preemphasis_hz, a.max_bandwidth_hz, a.formant_min_hz, a.pitch_min_hz) > 0
    assert a.formant_min_hz < a.formant_max_hz and a.pitch_min_hz < a.pitch_max_hz
    assert 0 <= a.voicing_threshold <= 1 and 0 <= a.silence_rms_fraction <= 1
    assert f.n_estimators >= 1 and f.max_features >= 1 and f.min_samples_split >= 2
    assert f.max_depth is None or f.max_depth >= 1
    assert type(f.bootstrap) is bool and type(f.seed) is int
    assert 0 < cfg.test_fraction < 1 and type(cfg.split_seed) is int


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_CONFIG_KEYS), _config_values), max_size=8))
def test_parse_config_rejects_or_returns_valid_sections(lines):
    text = "\n".join(f"{key} = {value}" for key, value in lines)
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        if str(exc).startswith("line "):
            assert 1 <= int(str(exc).split()[1].rstrip(":")) <= len(text.splitlines())
        return
    _assert_config_valid(cfg)


def test_non_finite_feature_csv_exit_1_without_traceback(workdir, tmp_path, capsys):
    lines = (workdir / "features.csv").read_text().splitlines()
    cells = lines[3].split(",")
    cells[6] = "nan"
    lines[3] = ",".join(cells)
    path = tmp_path / "nan.csv"
    path.write_text("\n".join(lines) + "\n")
    rc = main(["train", "--features", str(path), "--group", "all",
               "--n-estimators", "5", "--out", str(tmp_path / "m.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 4" in err and "finite" in err
    assert "Traceback" not in err


def test_config_flag_pipeline(tmp_path, workdir):
    cfg_path = tmp_path / "pipeline.cfg"
    cfg_path.write_text("n_estimators = 7\nsplit_seed = 42\n")
    out = tmp_path / "m.json"
    rc = main(["train", "--features", str(workdir / "features.csv"),
               "--group", "all", "--config", str(cfg_path),
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["params"]["n_estimators"] == 7


@pytest.mark.parametrize("line, message", [
    ("pitch_min_hz = 0", "line 2: pitch_min_hz must be > 0"),
    ("formant_frame_ms = 1", "line 2: formant_frame_ms must be >= 5"),
    ("pitch_hop_ms = 0", "line 2: pitch_hop_ms must be >= 1"),
    ("formant_frame_ms = 1.797693134862316e+304", "line 2: formant_frame_ms must be <= 1000"),
    ("formant_rate = 5000", "line 2: formant_rate must be in [8000, 48000]"),
    ("lpc_order = 0", "line 2: lpc_order must be >= 1"),
    ("lpc_order = 400", "line 2: lpc_order must be < the formant frame length (250 samples)"),
    ("voicing_threshold = nan", "line 2: voicing_threshold must be finite"),
    ("pitch_max_hz = 50", "line 2: pitch_min_hz must be < pitch_max_hz"),
    ("test_fraction = 1.5", "line 2: test_fraction must be in (0, 1)"),
])
def test_bad_config_value_exit_1_names_line(workdir, tmp_path, capsys, line, message):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("# probe\n" + line + "\n")
    out = tmp_path / "out"
    rc = main(["extract", "--manifest", str(workdir / "corpus" / "manifest.csv"),
               "--config", str(cfg_path), "--out", str(out)])
    assert rc == 1
    rc = main(["train", "--features", str(workdir / "features.csv"),
               "--config", str(cfg_path), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count(f"error: {message}") == 2
    assert "Traceback" not in err
    assert not out.exists()


def _read_text_input(what, path, workdir, out):
    """What the reader of `what` makes of the file at path."""
    if what == "config file":
        return load_config(str(path))
    if what == "feature CSV":
        return write_features_csv(read_features_csv(path.read_bytes()))
    manifest = path if what == "manifest" else workdir / "corpus" / "manifest.csv"
    aliases = ["--alias-table", str(path)] if what == "alias table" else []
    assert main(["extract", "--manifest", str(manifest), "--tier", "phoneme", *aliases,
                 "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("what", ["manifest", "feature CSV", "config file", "alias table"])
def test_text_input_takes_a_byte_order_mark(workdir, tmp_path, what):
    corpus = workdir / "corpus"
    header, *rows = (corpus / "manifest.csv").read_text().splitlines(keepends=True)
    text = {
        # the manifest's audio and TextGrid paths made absolute, as it moves
        "manifest": header + "".join(f"{corpus}/{row.replace(',', f',{corpus}/', 1)}"
                                     for row in rows),
        "feature CSV": (workdir / "features.csv").read_text(),
        "config file": "n_estimators = 7\ntier_name = phoneme\n",
        "alias table": "a = o\n",
    }[what]
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert _read_text_input(what, marked, workdir, tmp_path / "marked.csv") \
        == _read_text_input(what, plain, workdir, tmp_path / "plain.csv")


@pytest.mark.parametrize("flag, what", [
    ("--config", "config file"), ("--alias-table", "alias table"), ("--manifest", "manifest")])
def test_non_utf8_text_input_exit_1(workdir, tmp_path, capsys, flag, what):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"wav_path = \xff\xfe\n")
    argv = {"--manifest": str(workdir / "corpus" / "manifest.csv"), flag: str(bad)}
    rc = main(["extract", *(x for item in argv.items() for x in item),
               "--tier", "phoneme", "--out", str(tmp_path / "f.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {what} {bad} is not UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("rate", [0, 1000])
def test_extract_counts_wav_with_unsupported_rate_as_failure(workdir, tmp_path, capsys, rate):
    corpus = tmp_path / "corpus"
    shutil.copytree(workdir / "corpus", corpus)
    lines = (corpus / "manifest.csv").read_text().splitlines()
    first_wav = lines[1].split(",")[0]
    wav = bytearray((corpus / first_wav).read_bytes())
    wav[24:28] = struct.pack("<I", rate)  # the fmt chunk's sample rate
    (corpus / "odd.wav").write_bytes(bytes(wav))
    lines.append(lines[1].replace(first_wav, "odd.wav", 1))
    (corpus / "manifest.csv").write_text("\n".join(lines) + "\n")
    out = tmp_path / "f.csv"
    rc = main(["extract", "--manifest", str(corpus / "manifest.csv"), "--tier", "phoneme",
               "--out", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert f"failed: odd.wav: sample rate {rate} Hz" in err
    assert "24 vowels, 1 failures" in err
    assert len(out.read_text().splitlines()) == 25


@pytest.mark.parametrize("record", [
    b'{"test_indices":[-1,-2,-3]}', b"not json", b"{}", b"[]", b"[1.5]", b"null",
    b'{"test_indices":[1.5]}', b'{"test_indices":[]}', b'{"test_indices":[true]}',
    b'{"test_indices":[24]}', b'{"test_indices":"0"}', b'{"test_indices":{"0":1}}',
    b'{"test_indices":[0,\xff]}', b'{"test_indices":[0,0]}',
])
def test_bad_split_record_exit_1(workdir, tmp_path, capsys, record):
    split = tmp_path / "split.json"
    split.write_bytes(record)
    rc = main(["evaluate", "--model", str(workdir / "model.json"),
               "--features", str(workdir / "features.csv"), "--split", str(split)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: split record" in err and "in [0, 24)" in err
    assert "Traceback" not in err


def test_split_record_names_the_files_it_was_made_for(workdir):
    record = json.loads((workdir / "model.json.split.json").read_text())
    for name in ("features.csv", "model.json"):
        digest = hashlib.sha256((workdir / name).read_bytes()).hexdigest()
        assert record[name.split(".")[0] + "_sha256"] == digest


def test_evaluate_refuses_a_reordered_features_file(workdir, tmp_path, capsys):
    lines = (workdir / "features.csv").read_text().splitlines()
    reordered = tmp_path / "features.csv"
    reordered.write_text("\n".join(lines[:1] + lines[:0:-1]) + "\n")
    rc = main(["evaluate", "--model", str(workdir / "model.json"),
               "--features", str(reordered)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "accuracy" not in captured.out
    assert "was not made for this features file (re-run train)" in captured.err


def test_evaluate_refuses_another_training_runs_record(workdir, tmp_path, capsys):
    other = tmp_path / "other.json"
    assert main(["train", "--features", str(workdir / "features.csv"), "--n-estimators", "30",
                 "--max-features", "6", "--seed", "1", "--split-seed", "7",
                 "--out", str(other)]) == 0
    rc = main(["evaluate", "--model", str(workdir / "model.json"),
               "--features", str(workdir / "features.csv"),
               "--split", str(other) + ".split.json"])
    assert rc == 1
    assert "was not made for this model file (re-run train)" in capsys.readouterr().err


def test_evaluate_refuses_a_record_without_digests(workdir, tmp_path, capsys):
    record = json.loads((workdir / "model.json.split.json").read_text())
    del record["features_sha256"], record["model_sha256"]
    old = tmp_path / "old.split.json"
    old.write_text(json.dumps(record))
    rc = main(["evaluate", "--model", str(workdir / "model.json"),
               "--features", str(workdir / "features.csv"), "--split", str(old)])
    assert rc == 1
    assert "re-run train" in capsys.readouterr().err


# sha256 of every CLI output on a 36-vowel overlapped corpus, stdout with the
# run directory removed
_PINNED_OUTPUTS = {
    "synth.stdout": "aebb741df94f8763b5895588d35c0d8b8fac70fb6e18d44242816321bc0b4097",
    "extract.stdout": "1e2a21d4d4965f7f2e7e8724e19d19926e8d8bb5b85ad22075bcee7ce87f6417",
    "extract_alias.stdout": "cf5d03820f4d22880fd9b7726c9baa87923d28206b0e7231962ea0f254096f15",
    "train.stdout": "956a5ed6209fbf5334152f26d67ccc7924113c44539fa0d7d17bae642adf16fb",
    "train_spectral.stdout": "46df3d00a6d84bf3d1a4300cea3f04c884051f9d01dc1ce58d7d3314811208ac",
    "evaluate.stdout": "37bd46d0a38d711d6d49aeb7fd2e808695a8337ef178d0f23a7e2f80773809d2",
    "evaluate_spectral.stdout":
        "30f3b979b2cf9b1cbd5a4c8ec28203320783149fcedaa1e3dbcf6f2a2e5860e8",
    "report.stdout": "05a25a1665be6e0ad4386f8df551c711a68231ab17a20b606f0ac26385932787",
    "importance.stdout": "cd16074241d7061df5a337993d8579fae13d8b5e31fa909aec861a145b8fe31d",
    "grid.stdout": "44cd97778d8837bda2b212b7c1b10ebef1cd94bf596c9db6d2493bab9fb2f717",
    "features.csv": "ab37cd09519ed731776a832fe37fe5f7547e98bfc9f8d8452f08b42d9b90d49c",
    "features_alias.csv": "ca55f1a605e39a1fd55a1f8a06607249c7a360b537c88ca9cfa7659753bf015f",
    "model.json": "c11493c80bfe3e00a725faa49aa47e4045272d5fc3e22cab5ad9f7c26cf51fd8",
    "model.json.split.json": "582ded2aa99cf8c3b08828caaf26a287d1961891e9e1563b28508eca6bd457ef",
    "spectral.json": "ec953e983d0463ba6ec49a7824c7e62000702d74a1ff108e5059b2ffd259de40",
    "spectral.json.split.json":
        "bddc9819f00498f44797b2cf7f6ce2b31daf71df5e2bbcbb8d5b526167b1b0f2",
    "confusion.csv": "17d7434b172870c7113e2a772ed8547c12dcc2e612682d468249adbd3f6c5970",
    "confusion_spectral.csv": "3849b6d905a7950c7ae7225a1ef8cc2a9577b6b2fe48212f016f725f478fa2e7",
    "space.csv": "0a2119122a24eae1ee874bfa61eb31e2342a9cc8f2ebc16e2038eb5a32318bc9",
    "grid.json": "d97cb9f83d7b840276a866b74d7b6ce99ca6b112ceb2cca422ad8eb1c957e56e",
}


def test_every_cli_output_is_pinned(tmp_path, capsys):
    root = tmp_path
    corpus = root / "corpus"
    (root / "extract.cfg").write_text("tier_name = phoneme\nvoicing_threshold = 0.4\n")
    (root / "aliases.txt").write_text("a = o\n")
    (root / "train.cfg").write_text("n_estimators = 7\nmax_features = 3\nsplit_seed = 5\n"
                                    "forest_seed = 11\nmin_samples_split = 3\n")
    feats, alias_feats = root / "features.csv", root / "features_alias.csv"
    model, spectral = root / "model.json", root / "spectral.json"
    runs = {
        "synth": ["synth-corpus", "--profile", "overlapped", "--speakers", "2",
                  "--vowels-per-speaker", "6", "--seed", "9", "--out", str(corpus)],
        "extract": ["extract", "--manifest", str(corpus / "manifest.csv"), "--tier", "phoneme",
                    "--out", str(feats)],
        "extract_alias": ["extract", "--manifest", str(corpus / "manifest.csv"),
                          "--config", str(root / "extract.cfg"),
                          "--alias-table", str(root / "aliases.txt"), "--out", str(alias_feats)],
        "train": ["train", "--features", str(feats), "--n-estimators", "25",
                  "--max-features", "6", "--seed", "4", "--split-seed", "42", "--out", str(model)],
        "train_spectral": ["train", "--features", str(alias_feats), "--group", "spectral",
                           "--no-bootstrap", "--config", str(root / "train.cfg"),
                           "--out", str(spectral)],
        "evaluate": ["evaluate", "--model", str(model), "--features", str(feats),
                     "--out", str(root / "confusion.csv")],
        "evaluate_spectral": ["evaluate", "--model", str(spectral), "--features",
                              str(alias_feats), "--out", str(root / "confusion_spectral.csv")],
        "report": ["report", "--features", str(feats), "--out", str(root / "space.csv")],
        "importance": ["importance", "--model", str(model)],
        "grid": ["grid-search", "--features", str(feats), "--n-estimators", "3,6",
                 "--max-features", "2,6", "--folds", "2", "--config", str(root / "train.cfg"),
                 "--out", str(root / "grid.json")],
    }
    outputs = {}
    for name, argv in runs.items():
        assert main(argv) == 0, name
        outputs[name + ".stdout"] = capsys.readouterr().out.replace(str(root), "").encode()
    for name in _PINNED_OUTPUTS:
        if not name.endswith(".stdout"):
            outputs[name] = (root / name).read_bytes()
    assert {name: hashlib.sha256(raw).hexdigest() for name, raw in outputs.items()} \
        == _PINNED_OUTPUTS


# --- forest flags ---

@pytest.mark.parametrize("argv", [
    ["train", "--n-estimators", "0"],
    ["train", "--max-features", "0"],
    ["train", "--n-estimators", "x"],
    ["train", "--max-features", "-3"],
    ["grid-search", "--n-estimators", "0"],
    ["grid-search", "--n-estimators", "x"],
    ["grid-search", "--n-estimators", "5,,10"],
    ["grid-search", "--max-features", "4,0"],
    ["grid-search", "--folds", "0"],
    ["grid-search", "--folds", "1"],
    ["grid-search", "--folds", "x"],
])
def test_bad_forest_flag_is_usage_error(workdir, tmp_path, capsys, argv):
    out = tmp_path / "m.json"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--features", str(workdir / "features.csv"), "--out", str(out)])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--speakers", "0"), ("--speakers", "-2"), ("--speakers", "x"),
    ("--vowels-per-speaker", "0"), ("--vowels-per-speaker", "-1"),
    ("--sample-rate", "100000"), ("--sample-rate", "7999"), ("--sample-rate", "48001"),
    ("--sample-rate", "16k"),
])
def test_bad_synth_flag_is_usage_error(tmp_path, capsys, flag, value):
    argv = {"--speakers": "1", "--vowels-per-speaker": "1", "--sample-rate": "16000"}
    argv[flag] = value
    out = tmp_path / "corpus"
    with pytest.raises(SystemExit) as exc:
        main(["synth-corpus", "--profile", "separated", "--out", str(out)]
             + [part for item in argv.items() for part in item])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("rate", ["8000", "48000"])
def test_synth_sample_rate_bounds_are_accepted(tmp_path, rate):
    out = tmp_path / "corpus"
    assert main(["synth-corpus", "--profile", "separated", "--speakers", "1",
                 "--vowels-per-speaker", "1", "--sample-rate", rate, "--out", str(out)]) == 0
    assert (out / "manifest.csv").exists()


def test_forest_flags_override_config_and_default_to_it(workdir, tmp_path):
    cfg = tmp_path / "forest.cfg"
    cfg.write_text("n_estimators = 7\nmax_features = 3\n")
    train = ["train", "--features", str(workdir / "features.csv"), "--config", str(cfg)]
    assert main(train + ["--out", str(tmp_path / "a.json")]) == 0
    params = json.loads((tmp_path / "a.json").read_text())["params"]
    assert (params["n_estimators"], params["max_features"]) == (7, 3)
    assert main(train + ["--n-estimators", "1", "--max-features", "1",
                         "--out", str(tmp_path / "b.json")]) == 0
    params = json.loads((tmp_path / "b.json").read_text())["params"]
    assert (params["n_estimators"], params["max_features"]) == (1, 1)


def test_load_config_lays_each_given_flag_over_the_file(tmp_path):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("forest_seed = 5\nsplit_seed = 6\ntier_name = words\nbootstrap = false\n")
    assert load_config("") == PipelineConfig()
    assert load_config(str(cfg), seed=None, split_seed=None, tier_name=None) \
        == parse_config(cfg.read_text())
    got = load_config(str(cfg), seed=1, split_seed=2, tier_name="phoneme", n_estimators=3)
    assert (got.forest.seed, got.split_seed, got.tier_name) == (1, 2, "phoneme")
    assert (got.forest.n_estimators, got.forest.bootstrap) == (3, False)


def test_bad_config_value_fails_even_when_a_flag_overrides_it(workdir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_estimators = 0\n")
    out = tmp_path / "m.json"
    rc = main(["train", "--features", str(workdir / "features.csv"), "--config", str(cfg),
               "--n-estimators", "5", "--out", str(out)])
    assert rc == 1
    assert "error: line 1: n_estimators must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, message", [
    ("--speakers", "argument --speakers: invalid integer value: 'x'"),
    ("--sample-rate", "argument --sample-rate: must be in [8000, 48000], got 7999"),
])
def test_usage_error_names_the_integer_type(tmp_path, capsys, flag, message):
    argv = {"--speakers": "1", "--vowels-per-speaker": "1", "--sample-rate": "16000"}
    argv[flag] = message.rsplit(" ", 1)[-1].strip("'")
    with pytest.raises(SystemExit):
        main(["synth-corpus", "--profile", "separated", "--out", str(tmp_path / "c")]
             + [part for item in argv.items() for part in item])
    assert message in capsys.readouterr().err


def test_grid_search_flags_parse_to_lists():
    args = build_parser().parse_args(["grid-search", "--features", "f.csv"])
    assert (args.n_estimators, args.max_features) == ([100, 200, 400], [4, 6, 12])
    args = build_parser().parse_args(["grid-search", "--features", "f.csv",
                                      "--n-estimators", "5,10", "--max-features", "2"])
    assert (args.n_estimators, args.max_features) == ([5, 10], [2])
