"""Independent reference implementations used to check the fast paths.

The CART oracle mirrors the production arithmetic (same float expression
trees) but searches exhaustively with plain Python loops, so agreement is
exact, not approximate.
"""

from types import SimpleNamespace

import numpy as np


def brute_autocorrelation(frame, max_lag):
    x = [float(v) for v in frame]
    out = []
    for lag in range(max_lag + 1):
        acc = 0.0
        for n in range(len(x) - lag):
            acc += x[n] * x[n + lag]
        out.append(acc)
    return np.array(out)


def toeplitz_lpc(r, order):
    """Dense solve of the Yule-Walker normal equations."""
    r = np.asarray(r, dtype=np.float64)
    mat = np.empty((order, order))
    for i in range(order):
        for j in range(order):
            mat[i, j] = r[abs(i - j)]
    return np.linalg.solve(mat, r[1 : order + 1])


def companion_roots(a):
    """Eigenvalues of the companion matrix of z^m - a1 z^{m-1} - ... - am."""
    a = np.asarray(a, dtype=np.float64)
    m = len(a)
    mat = np.diag(np.ones(m - 1), -1).astype(np.float64)
    mat[0, :] = a
    return np.linalg.eigvals(mat)


def match_roots(got, expected):
    """Greedy nearest-neighbour pairing; returns the worst pair distance."""
    got = list(got)
    worst = 0.0
    for e in expected:
        dists = [abs(g - e) for g in got]
        k = int(np.argmin(dists))
        worst = max(worst, dists[k])
        got.pop(k)
    return worst


def brute_best_split(x, y, feature_indices, n_classes):
    """Exhaustive best split; mirrors the production tie-breaks and floats."""
    n = len(y)
    if n < 2:
        return None
    counts = [0] * n_classes
    for label in y:
        counts[int(label)] += 1
    g_parent = 1.0 - sum((c / n) ** 2 for c in counts)
    best = None
    for f in sorted(int(f) for f in feature_indices):
        order = sorted(range(n), key=lambda i: x[i, f])
        values = [float(x[i, f]) for i in order]
        labels = [int(y[i]) for i in order]
        left = [0] * n_classes
        right = list(counts)
        for i in range(n - 1):
            left[labels[i]] += 1
            right[labels[i]] -= 1
            if values[i + 1] <= values[i]:
                continue
            nl = float(i + 1)
            nr = float(n - i - 1)
            g_left = 1.0 - sum((c / nl) ** 2 for c in left)
            g_right = 1.0 - sum((c / nr) ** 2 for c in right)
            gain = g_parent - (nl / n) * g_left - (nr / n) * g_right
            if gain > 0.0 and (best is None or gain > best[2]):
                best = (f, (values[i] + values[i + 1]) / 2.0, gain)
    return best


def brute_tree(x, y, n_classes, min_samples_split=2, max_depth=None):
    """Recursive exhaustive CART over all features (no randomness)."""

    def build(rows, depth):
        counts = [0] * n_classes
        for i in rows:
            counts[int(y[i])] += 1
        klass = max(range(n_classes), key=lambda c: counts[c])
        if sum(1 for c in counts if c > 0) <= 1 or len(rows) < min_samples_split \
                or (max_depth is not None and depth >= max_depth):
            return {"leaf": klass}
        found = brute_best_split(x[rows], y[rows], range(x.shape[1]), n_classes)
        if found is None:
            return {"leaf": klass}
        f, threshold, gain = found
        mask = x[rows, f] <= threshold
        left_rows = rows[mask]
        right_rows = rows[~mask]
        if len(left_rows) == 0 or len(right_rows) == 0:
            return {"leaf": klass}
        return {"feature": f, "threshold": threshold,
                "left": build(left_rows, depth + 1),
                "right": build(right_rows, depth + 1)}

    return build(np.arange(len(y)), 0)


def brute_tree_predict(node, row):
    while "leaf" not in node:
        node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
    return node["leaf"]


def roots_to_formants_walk(roots, analysis_rate, settings):
    """Per-root gating loop: upper-half-plane poles inside the band and
    under the bandwidth gate, as (frequency, bandwidth) sorted ascending."""
    out = []
    for z in np.asarray(roots, dtype=np.complex128):
        if z.imag <= 0.0:
            continue
        freq = analysis_rate / (2.0 * np.pi) * np.angle(z)
        bandwidth = -analysis_rate / np.pi * np.log(np.abs(z))
        if settings.formant_min_hz <= freq <= settings.formant_max_hz \
                and bandwidth < settings.max_bandwidth_hz:
            out.append((float(freq), float(bandwidth)))
    out.sort()
    return out


def formant_track_walk(signal, settings):
    """Frame-by-frame formant track: per-frame companion eigenvalues, the
    residual bound |p(z)| <= 1e-8 max|coeff| on every root, then the
    per-root gate.  Returns (time, (f1, f2, f3), (b1, b2, b3), valid)."""
    from dialectid.acoustics import _autocorr_batch, _levinson_batch
    from dialectid.audio import frame_signal, hamming_window, pre_emphasize, resample

    work = signal
    if signal.sample_rate != settings.formant_rate:
        work = resample(signal, settings.formant_rate)
    work = pre_emphasize(work, settings.preemphasis_hz)
    frames = frame_signal(work, settings.formant_frame_ms, settings.formant_hop_ms)
    flen = frames.frame_length
    r = _autocorr_batch(frames.frames * hamming_window(flen)[None, :], settings.lpc_order)
    coeffs, _, lpc_ok = _levinson_batch(r, settings.lpc_order)
    out = []
    for t, a, ok in zip(frames.frame_centers, coeffs, lpc_ok):
        cands = []
        if ok and np.all(np.isfinite(a)):
            roots = companion_roots(a)
            poly = np.concatenate([[1.0], -a])
            bound = 1e-8 * np.max(np.abs(poly))
            if all(abs(np.polyval(poly, z)) <= bound for z in roots):
                cands = roots_to_formants_walk(roots, settings.formant_rate, settings)
        if len(cands) >= 3:
            (f1, b1), (f2, b2), (f3, b3) = cands[:3]
            out.append((float(t), (f1, f2, f3), (b1, b2, b3), True))
        else:
            out.append((float(t), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), False))
    return out


def pitch_track_walk(signal, settings):
    """Frame-by-frame pitch picker: silence gate, peak lag, voicing
    threshold and parabolic refinement.  Returns (time, f0, strength)."""
    from dialectid.acoustics import _autocorr_batch
    from dialectid.audio import frame_signal

    frames = frame_signal(signal, settings.pitch_frame_ms, settings.pitch_hop_ms)
    rate = signal.sample_rate
    flen = frames.frame_length
    lag_min = int(np.ceil(rate / settings.pitch_max_hz))
    lag_max = min(int(np.floor(rate / settings.pitch_min_hz)), flen - 2)
    if lag_min >= lag_max:
        return [(float(t), 0.0, 0.0) for t in frames.frame_centers]
    spread = max(1, lag_max // 16)
    r_len = min(lag_max + spread + 1, flen - 1)
    r = _autocorr_batch(frames.frames, r_len)
    rms = np.sqrt(np.mean(frames.frames**2, axis=1))
    rms_gate = settings.silence_rms_fraction * rms.max()
    out = []
    for i, t in enumerate(frames.frame_centers):
        r0 = r[i, 0]
        if r0 <= 0.0 or rms[i] < rms_gate or rms.max() == 0.0:
            out.append((float(t), 0.0, 0.0))
            continue
        rho = r[i] / r0
        peak = int(np.argmax(rho[lag_min : lag_max + 1])) + lag_min
        strength = float(min(max(rho[peak], 0.0), 1.0))
        if rho[peak] < settings.voicing_threshold:
            out.append((float(t), 0.0, strength))
            continue
        d = max(1, peak // 16)
        if peak - d < 1 or peak + d >= r_len:
            d = 1
        y0 = r[i, peak - d] / (flen - (peak - d))
        y1 = r[i, peak] / (flen - peak)
        y2 = r[i, peak + d] / (flen - (peak + d))
        curv = y0 - 2.0 * y1 + y2
        delta = d * 0.5 * (y0 - y2) / curv if curv != 0.0 else 0.0
        delta = min(max(delta, -float(d)), float(d))
        f0 = rate / (peak + delta)
        f0 = min(max(f0, settings.pitch_min_hz), settings.pitch_max_hz)
        out.append((float(t), float(f0), strength))
    return out


def subset_walk(rng, n, k):
    """Scalar partial Fisher-Yates draw: k sorted distinct indices of range(n)."""
    k = min(k, n)
    pool = list(range(n))
    u = rng.uniforms(k)
    for i in range(k):
        j = i + min(int(u[i] * (n - i)), n - i - 1)
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:k])


def _square_sum_walk(shares):
    """Sum of squared shares over the last axis, added in class order (an
    np.sum over 8 or more classes adds them pairwise instead)."""
    total = 0.0
    for k in range(shares.shape[-1]):
        total = total + shares[..., k] * shares[..., k]
    return total


def best_split_walk(x, y, features, n_classes):
    """Split search over one node: one stable sort per call, gains for
    every (position, feature) pair, each impurity summing its classes'
    squared shares in class order, ties to the lowest feature and then
    the lowest threshold."""
    n = len(y)
    features = sorted(int(f) for f in features)
    if n < 2 or not features:
        return None
    cols = np.asarray(features, dtype=np.int64)
    xs = x[:, cols]
    order = np.argsort(xs, axis=0, kind="stable")
    sv = np.take_along_axis(xs, order, axis=0)
    sy = y[order]
    onehot = (sy[:, :, None] == np.arange(n_classes)[None, None, :]).astype(np.float64)
    left = np.cumsum(onehot, axis=0)[:-1]            # (n-1, k, c)
    total = np.sum(onehot, axis=0)                   # (k, c)
    right = total[None, :, :] - left
    nl = np.arange(1, n, dtype=np.float64)[:, None]
    nr = n - nl
    pl = left / nl[:, :, None]
    pr = right / nr[:, :, None]
    g_left = 1.0 - _square_sum_walk(pl)
    g_right = 1.0 - _square_sum_walk(pr)
    class_counts = total[0]
    g_parent = 1.0 - _square_sum_walk(class_counts / n)
    gains = g_parent - (nl / n) * g_left - (nr / n) * g_right
    distinct = sv[1:] > sv[:-1]
    gains = np.where(distinct, gains, -np.inf)
    best = float(gains.max()) if gains.size else -np.inf
    if not best > 0.0:
        return None
    hits = np.argwhere(gains == best)
    i, j = hits[np.lexsort((hits[:, 0], hits[:, 1]))][0]
    threshold = (sv[i, j] + sv[i + 1, j]) / 2.0
    return int(cols[j]), float(threshold), best


def split_gain_walk(counts, left, right):
    """Gini decrease of one split, in plain Python floats, each impurity
    summing its classes' squared shares in class order."""
    def impurity(c):
        n = float(sum(c))
        square_sum = 0.0
        for v in c:
            square_sum = square_sum + (v / n) * (v / n)
        return 1.0 - square_sum
    n = float(sum(counts))
    return impurity(counts) - (sum(left) / n) * impurity(left) \
        - (sum(right) / n) * impurity(right)


class _WalkTree:
    """Every node field a tree has, stored or derived, recorded as the walk
    finds it: a node's class when its counts are known, its children and
    gain when its split is made."""

    def __init__(self, n_classes):
        self.n_classes = n_classes
        self.nodes = []

    def add(self):
        self.nodes.append({"feature": -1, "threshold": 0.0, "left": -1, "right": -1,
                           "klass": 0, "gain": 0.0, "counts": [0] * self.n_classes})
        return len(self.nodes) - 1

    def finish(self):
        fields = {name: np.array([node[name] for node in self.nodes])
                  for name in ("feature", "threshold", "left", "right", "klass", "gain")}
        fields["counts"] = np.array([node["counts"] for node in self.nodes], dtype=np.int64)
        fields["sizes"] = np.array([len(self.nodes)], dtype=np.int64)
        return SimpleNamespace(**fields)


def grow_tree_walk(x, y, params, rng, n_classes, rows=None):
    """One tree, one node at a time: an explicit depth-first stack, a
    feature subset drawn per internal node in pre-order (left subtree
    first), and best_split_walk on the node's rows.  Returns every field
    of a NodeTable, the derived ones included, as plain arrays."""
    if rows is None:
        rows = np.arange(len(y), dtype=np.int64)
    n_features = x.shape[1]
    k = min(params.max_features, n_features)
    tree = _WalkTree(n_classes)
    stack = [(rows, 0, tree.add())]
    while stack:
        node_rows, depth, slot = stack.pop()
        node = tree.nodes[slot]
        counts = np.bincount(y[node_rows], minlength=n_classes).tolist()
        node["counts"] = counts
        node["klass"] = int(np.argmax(counts))
        if sum(c > 0 for c in counts) <= 1 or len(node_rows) < params.min_samples_split \
                or (params.max_depth is not None and depth >= params.max_depth):
            continue
        subset = subset_walk(rng, n_features, k)
        found = best_split_walk(x[node_rows], y[node_rows], subset, n_classes)
        if found is None:
            continue
        f_idx, threshold, _ = found
        mask = x[node_rows, f_idx] <= threshold
        left_rows = node_rows[mask]
        right_rows = node_rows[~mask]
        if len(left_rows) == 0 or len(right_rows) == 0:
            continue
        # the gain of the split made: where a midpoint rounds onto the upper
        # value, that differs from the gain best_split_walk found
        node.update(feature=f_idx, threshold=threshold, left=tree.add(), right=tree.add(),
                    gain=split_gain_walk(counts,
                                         np.bincount(y[left_rows], minlength=n_classes).tolist(),
                                         np.bincount(y[right_rows], minlength=n_classes).tolist()))
        stack.append((right_rows, depth + 1, node["right"]))
        stack.append((left_rows, depth + 1, node["left"]))
    return tree.finish()


def feature_importances_walk(model):
    """Mean decrease in impurity, one tree at a time: each tree's vector is
    normalized on its own, the vectors are averaged, and the mean is
    normalized again."""
    n_features = len(model.feature_names)
    acc = np.zeros(n_features)
    for tree in model.trees:
        imp = np.zeros(n_features)
        internal = tree.feature >= 0
        weights = tree.counts[internal].sum(axis=1) / tree.counts[0].sum() * tree.gain[internal]
        np.add.at(imp, tree.feature[internal], weights)
        tree_total = imp.sum()
        if tree_total > 0:
            imp /= tree_total
        acc += imp
    acc /= len(model.trees)
    total = acc.sum()
    if total > 0:
        acc /= total
    return acc


# --- per-segment extraction, as it ran before vowels were queued ---

def formant_track_per_segment(signal, settings):
    """Verbatim formant_track from before segments were stacked: one
    Levinson and one companion-matrix solve per segment."""
    from dialectid.acoustics import (FormantFrame, _autocorr_batch, _companion_roots,
                                     _formant_candidates, _levinson_batch)
    from dialectid.audio import frame_signal, hamming_window, pre_emphasize, resample
    from dialectid.errors import EmptySignal

    if len(signal) == 0:
        raise EmptySignal("cannot analyse an empty signal")
    work = signal
    if signal.sample_rate != settings.formant_rate:
        work = resample(signal, settings.formant_rate)
    work = pre_emphasize(work, settings.preemphasis_hz)
    frames = frame_signal(work, settings.formant_frame_ms, settings.formant_hop_ms)
    flen = frames.frame_length
    order = settings.lpc_order
    r = _autocorr_batch(frames.frames * hamming_window(flen)[None, :], order)
    coeffs, _, lpc_ok = _levinson_batch(r, order)
    roots, _ = _companion_roots(coeffs, lpc_ok)
    freq, bandwidth, keep, by_freq = _formant_candidates(roots, settings.formant_rate, settings)
    valid = keep.sum(axis=1) >= 3
    first = by_freq[:, :3]
    freq = np.take_along_axis(freq, first, axis=1).tolist()
    bandwidth = np.take_along_axis(bandwidth, first, axis=1).tolist()
    return [FormantFrame(t, f[0], f[1], f[2], (b[0], b[1], b[2]), True) if v
            else FormantFrame(t, 0.0, 0.0, 0.0, (0.0, 0.0, 0.0), False)
            for t, v, f, b in zip(frames.frame_centers.tolist(), valid.tolist(),
                                  freq, bandwidth)]


def extract_vowel_features_per_segment(seg, settings, sample_id=""):
    """Verbatim extract_vowel_features from before vowels were queued."""
    from dialectid import acoustics, textgrid
    from dialectid.errors import NoValidFormantFrames, SegmentTooShort
    from dialectid.features import DIALECTS, GENDERS, MIN_SEGMENT_S, FeatureVector, sample_six

    if seg.vowel not in textgrid.MONOPHTHONGS:
        raise ValueError(f"{seg.vowel!r} is not a monophthong label")
    if seg.gender not in GENDERS:
        raise ValueError(f"gender must be one of {GENDERS}")
    if seg.dialect not in DIALECTS:
        raise ValueError(f"dialect must be one of {DIALECTS}")
    duration = seg.t_end - seg.t_start
    if duration < MIN_SEGMENT_S:
        raise SegmentTooShort(f"{duration * 1000:.1f} ms vowel, need >= 10 ms")

    local_end = len(seg.audio) / seg.audio.sample_rate

    formants = [f for f in formant_track_per_segment(seg.audio, settings) if f.valid]
    if not formants:
        raise NoValidFormantFrames("no frame produced three formant candidates")
    f1 = sample_six([(f.time, f.f1) for f in formants], 0.0, local_end)
    f2 = sample_six([(f.time, f.f2) for f in formants], 0.0, local_end)
    f3 = sample_six([(f.time, f.f3) for f in formants], 0.0, local_end)

    voiced = [p for p in acoustics.pitch_track(seg.audio, settings) if p.f0 > 0.0]
    if voiced:
        f0 = sample_six([(p.time, p.f0) for p in voiced], 0.0, local_end)
    else:
        f0 = np.zeros(6)

    energy = sample_six(
        [(e.time, e.energy_db) for e in acoustics.energy_track(seg.audio, settings)],
        0.0, local_end)

    values = np.concatenate([
        f1, f2, f3, f0, energy,
        [duration * 1000.0,
         acoustics.intensity_mean(seg.audio),
         float(GENDERS.index(seg.gender))],
    ])
    return FeatureVector(values, seg.dialect, seg.speaker_id, seg.vowel, sample_id)


def build_dataset_per_segment(manifest_path, tier_name, aliases, settings):
    """Verbatim build_dataset loop from before vowels were queued: one
    extract_vowel_features_per_segment call per vowel interval."""
    import os

    from dialectid import audio, textgrid
    from dialectid.errors import DialectIdError, ManifestError, decode_utf8
    from dialectid.features import Dataset, VowelSegment, read_manifest

    with open(manifest_path, "rb") as fh:
        rows = read_manifest(decode_utf8(fh.read(), ManifestError, f"manifest {manifest_path}"))
    base = os.path.dirname(os.fspath(manifest_path))
    feats = []
    failures = []
    for row in rows:
        wav_path = os.path.join(base, row.wav_path)
        grid_path = os.path.join(base, row.textgrid_path)
        try:
            with open(wav_path, "rb") as fh:
                signal = audio.read_wav(fh.read())
            with open(grid_path, "rb") as fh:
                grid = textgrid.parse_textgrid(fh.read())
            vowels = textgrid.vowel_intervals(grid, tier_name, aliases)
        except (OSError, DialectIdError) as exc:
            failures.append(f"{row.wav_path}: {exc}")
            continue
        stem = os.path.splitext(os.path.basename(row.wav_path))[0]
        for k, vi in enumerate(vowels):
            t0 = max(vi.interval.t_start, 0.0)
            t1 = min(vi.interval.t_end, signal.duration)
            sample_id = f"{stem}#{k}"
            try:
                seg = VowelSegment(
                    audio.slice_signal(signal, t0, t1), vi.vowel,
                    vi.interval.t_start, vi.interval.t_end,
                    row.speaker_id, row.gender, row.dialect)
                feats.append(extract_vowel_features_per_segment(seg, settings, sample_id))
            except DialectIdError as exc:
                failures.append(f"{sample_id}: {exc}")
    return Dataset(tuple(feats)), failures


# --- synthesis, as it ran before the filter moved to the frequency domain ---

def direct_parts(spec, rng=None):
    """(excitation, filter impulse responses in cascade order, ir_len) of
    synthesize_vowel, built as it built them before FFT convolution."""
    from dialectid.errors import SpecInvalid
    from dialectid.rng import Stream
    from dialectid.synth import (ANCHOR_BANDWIDTH_HZ, ANCHOR_FREQUENCY_HZ, IR_DECAY,
                                 SOURCE_SHAPING_BANDWIDTH_HZ, WHISPER_BANDWIDTH_FACTOR,
                                 _real_pole_ir, _resonator_ir)

    rate = spec.sample_rate
    n = int(round(spec.duration * rate))
    if n < 1:
        raise SpecInvalid("duration too short for one sample")
    bandwidths = spec.bandwidths
    anchor_bw = ANCHOR_BANDWIDTH_HZ
    if spec.source == "noise":
        bandwidths = tuple(WHISPER_BANDWIDTH_FACTOR * b for b in bandwidths)
        anchor_bw *= WHISPER_BANDWIDTH_FACTOR
    ir_len = min(n, int(np.ceil(np.log(1.0 / IR_DECAY) / (np.pi * min(bandwidths) / rate))))
    ir_len = max(ir_len, 8)

    pairs = list(zip(spec.formants, bandwidths))
    anchor_f = max(ANCHOR_FREQUENCY_HZ, spec.formants[2] + 500.0)
    if anchor_f < 0.95 * rate / 2:
        pairs.append((anchor_f, anchor_bw))
    irs = [_resonator_ir(freq, bw, rate, ir_len) for freq, bw in pairs]

    if spec.source == "pulse":
        irs += 2 * [_real_pole_ir(SOURCE_SHAPING_BANDWIDTH_HZ, rate, ir_len)]
        excitation = np.zeros(n)
        k = 0
        while True:
            idx = int(round(k * rate / spec.f0))
            if idx >= n:
                break
            excitation[idx] = 1.0
            k += 1
    else:
        excitation = (rng or Stream(0)).normals(n)
    return excitation, irs, ir_len


def synthesize_vowel_direct(spec, rng=None):
    """synthesize_vowel as it ran before FFT convolution: direct np.convolve
    calls down the cascade, each truncated as it goes, then one with the
    excitation."""
    from dialectid.audio import AudioSignal

    excitation, irs, ir_len = direct_parts(spec, rng)
    h = irs[0]
    for h_i in irs[1:]:
        h = np.convolve(h, h_i)[:ir_len]
    n = len(excitation)
    y = np.convolve(excitation, h)[:n]
    y = np.concatenate(([y[0]], np.diff(y)))  # radiation
    rms = float(np.sqrt(np.mean(y * y)))
    y = y * (spec.amplitude_rms / rms)
    return AudioSignal(np.clip(y, -1.0, 1.0), spec.sample_rate)


# --- the LPC loops as they were written with np.where and fresh arrays ---

def levinson_batch_where(r, order):
    """Verbatim _levinson_batch from before its in-place rewrite."""
    r = np.asarray(r, dtype=np.float64)
    n_frames = r.shape[0]
    a = np.zeros((n_frames, order))
    e = r[:, 0].copy()
    ok = e > 0.0
    floor = np.abs(r[:, 0]) * 1e-14
    with np.errstate(divide="ignore", invalid="ignore"):
        for m in range(1, order + 1):
            alive = ok & (e > floor)
            if m == 1:
                acc = r[:, 1].copy()
            else:
                acc = r[:, m] - (a[:, : m - 1] * r[:, m - 1:0:-1]).sum(axis=1)
            k = np.where(alive, acc / np.where(e == 0.0, 1.0, e), 0.0)
            head = a[:, : m - 1] - k[:, None] * a[:, : m - 1][:, ::-1]
            a[:, : m - 1] = head
            a[:, m - 1] = k
            e = e * (1.0 - k * k)
    ok &= e >= 0.0
    return a, e, ok


def companion_roots_where(a, ok):
    """Verbatim _companion_roots from before its in-place rewrite."""
    from dialectid.acoustics import ROOT_TOL
    from dialectid.errors import NoConvergence

    n_frames, m = a.shape
    ok = ok & np.all(np.isfinite(a), axis=1)
    roots = np.full((n_frames, m), np.nan, dtype=np.complex128)
    solve = a[ok]
    mats = np.zeros((len(solve), m, m))
    mats[:, 0, :] = solve
    mats[:, np.arange(1, m), np.arange(m - 1)] = 1.0
    try:
        z = np.linalg.eigvals(mats).astype(np.complex128)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"companion-matrix eigenvalues: {exc}") from exc
    coeffs = np.concatenate([np.ones((len(solve), 1)), -solve], axis=1)
    p = np.zeros_like(z)
    for c in coeffs.T:
        p = p * z + c[:, None]
    passed = np.max(np.abs(p), axis=1) <= ROOT_TOL * np.max(np.abs(coeffs), axis=1)
    roots[ok] = np.where(passed[:, None], z, np.nan)
    ok[ok] = passed
    return roots, ok


# --- resampling by the defining sums ---

def anti_alias_taps_direct(src, target):
    """The anti-alias FIR of resample by its formula, or None when it is
    all-pass (0.45 target at or past the source Nyquist)."""
    taps = 101
    if not 0.45 * target < 0.5 * src:
        return None
    transition = 3.3 / taps * src
    fc = max(0.45 * target - transition / 2.0, 0.05 * target)
    m = np.arange(taps) - (taps - 1) / 2.0
    window = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(taps) / (taps - 1))
    h = 2.0 * fc / src * np.sinc(2.0 * fc / src * m) * window
    return h / h.sum()


def resample_direct(x, src, target):
    """resample with its filter as a plain sum: y[j] = sum_k x[k] h[50 + j - k]
    over the taps that overlap the signal, then linear interpolation at
    t = i src / target, clamped to the last sample."""
    x = [float(v) for v in x]
    h = anti_alias_taps_direct(src, target)
    y = x
    if h is not None:
        half = (len(h) - 1) // 2
        y = [sum(x[k] * h[half + j - k] for k in range(len(x)) if 0 <= half + j - k < len(h))
             for j in range(len(x))]
    n_out = int(np.floor(len(x) * target / src + 0.5))
    out = []
    for i in range(n_out):
        t = i * (src / target)
        i0 = min(int(np.floor(t)), len(y) - 1)
        i1 = min(i0 + 1, len(y) - 1)
        out.append((1.0 - (t - i0)) * y[i0] + (t - i0) * y[i1])
    return np.array(out)
