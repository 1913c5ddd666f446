"""End-to-end, stage-timed benchmark of the motrack tracker.

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 20 --trace 0

Replays seeded synthetic scenarios through motrack.pipeline.Tracker in
one single-threaded process, as a closed loop: each frame is handed over
when the previous step returns. A run repeats whole rounds (one pass over
the workload's inputs) while the next round is expected to end within
--seconds, and checks every round's output against independent oracles.
Times are scaled to a reference kernel run alongside (hostspeed.py).
The last line of standard output is one JSON object; --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer metrics of a traced pass.
See README.md in this directory.
"""

from __future__ import annotations

import os
import sys

# One single-threaded process: keep BLAS pools at one thread, which is
# also at most the core count of any machine this runs on.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

if not (SRC / "motrack" / "pipeline.py").is_file():
    sys.exit(f"perfbench: motrack sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import motrack  # noqa: E402
from motrack.config import TrackerConfig  # noqa: E402
from motrack.evaluation import evaluate, evaluate_many, trajectories_from_tracks  # noqa: E402
from motrack.mot_files import (  # noqa: E402
    read_detections,
    read_tracks,
    write_detections,
    write_tracks,
    write_trajectories,
)
from motrack.pipeline import Tracker  # noqa: E402
from motrack.synth import generate, render_frames  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

if Path(motrack.__file__).resolve().parent != SRC / "motrack":
    sys.exit(f"perfbench: imported motrack from {motrack.__file__}, not {SRC}")

SETUPS = 5
# Two rounds at least, so every timing is the median of two passes over
# the inputs and a traced run has an untraced round to compare against.
MIN_ROUNDS = 2
# Another round starts while it is expected to end within this share of
# --seconds, so workloads with long rounds still get a third one.
OVERRUN = 1.2
CONFIG = TrackerConfig()


@dataclass
class Sequence:
    name: str
    scenario: object
    packets: list | None = None  # in-memory input
    det_path: Path | None = None  # detection file input (churn)
    gt_path: Path | None = None
    res_path: Path | None = None


@dataclass
class Output:
    seq: Sequence
    tracker: Tracker
    packets: list
    tracks: list
    hyp: dict = field(default_factory=dict)
    gt: dict = field(default_factory=dict)
    report: object = None


@dataclass
class Round:
    """One pass over the inputs. Times ending in _s are wall seconds;
    the _ref twins are the same spans scaled to the reference kernel
    (see hostspeed.py)."""

    index: int
    traced: bool
    frames: int = 0
    # (start_ns, end_ns) on the benchmark clock, turned into the times
    # below by timings() once the round's kernel runs are all taken
    track_ns: list = field(default_factory=list)
    step_ns: list = field(default_factory=list)
    eval_ns: list = field(default_factory=list)
    track_s: float = 0.0
    track_ref: float = 0.0
    step_s: list = field(default_factory=list)
    step_ref: list = field(default_factory=list)
    eval_s: float = 0.0
    eval_ref: float = 0.0
    outputs: list = field(default_factory=list)
    events: Counter = field(default_factory=Counter)
    aggregate: object = None  # evaluate_many report over the sequences
    fixed_case: object = None  # evaluate_many report on the fixed case


@dataclass(frozen=True)
class Workload:
    name: str
    warmup_frames: int
    eval_repeats: int  # timed evaluations per round; the round reports their mean
    via_files: bool = False
    images: bool = False
    aggregate: bool = False


WORKLOADS = {
    "crowd": Workload("crowd", warmup_frames=5, eval_repeats=1, aggregate=True),
    "churn": Workload("churn", warmup_frames=20, eval_repeats=1, via_files=True),
    "aligned": Workload("aligned", warmup_frames=3, eval_repeats=150, images=True),
}


# -- set-up ------------------------------------------------------------


def build_inputs(work: Workload, seed: int, rec: tracing.Recorder, workdir: Path) -> list:
    """Scenario generation, rendering, input files and Tracker construction."""
    if work.name == "crowd":
        sequences = []
        for k in range(wl.CROWD_SEQUENCES):
            spec = wl.crowd_spec(seed, k)
            scenario = rec.timed("synth.generate", generate, spec, wl.sub_seed(seed, k))
            sequences.append(Sequence(spec.name, scenario, packets=scenario.packets()))
    elif work.name == "churn":
        spec = wl.churn_spec(seed)
        scenario = rec.timed("synth.generate", generate, spec, wl.sub_seed(seed, 0))
        seq = Sequence(
            spec.name,
            scenario,
            det_path=workdir / "det.txt",
            gt_path=workdir / "gt.txt",
            res_path=workdir / "res.txt",
        )
        rec.timed(
            "mot_files.write", write_detections, scenario.packets(with_warps=False), seq.det_path
        )
        rec.timed("mot_files.write", write_trajectories, scenario.ground_truth, seq.gt_path)
        sequences = [seq]
    else:
        sequences = []
        for k in range(wl.ALIGNED_SEQUENCES):
            spec = wl.aligned_spec(seed, k)
            scenario = rec.timed("synth.generate", generate, spec, wl.sub_seed(seed, k))
            frames = rec.timed("synth.render", render_frames, scenario, wl.sub_seed(seed, k))
            packets = scenario.packets(with_warps=False, images=frames)
            sequences.append(Sequence(spec.name, scenario, packets=packets))
    # Set-up includes constructing the trackers; each round builds its own
    # outside the clocks, so these are only timed.
    for seq in sequences:
        Tracker(config=CONFIG, frame_size=seq.scenario.frame_size)
    return sequences


def warm_up(work: Workload, sequences: list) -> None:
    """Step a throwaway tracker over a few frames so lazy imports and
    first-call costs stay out of the timed rounds."""
    seq = sequences[0]
    packets = read_detections(seq.det_path) if work.via_files else seq.packets
    tracker = Tracker(config=CONFIG, frame_size=seq.scenario.frame_size)
    for packet in packets[: work.warmup_frames]:
        tracker.step(packet)


# -- one round -----------------------------------------------------------


def track(work: Workload, seq: Sequence, rec: tracing.Recorder, rnd: Round) -> Output:
    tracker = Tracker(config=CONFIG, frame_size=seq.scenario.frame_size)
    clock = tracing.clock
    start = clock()
    if work.via_files:
        packets = rec.timed("mot_files.read", read_detections, seq.det_path)
        for packet in packets:
            packet.warp = seq.scenario.warps[packet.frame]
    else:
        packets = seq.packets
    for packet in packets:
        if rnd.traced:
            rec.step = len(rnd.step_ns) + 1
            t0 = clock()
            events = tracker.step(packet)
            t1 = clock()
            rec.spans.append(("pipeline.step", rnd.index, rec.step, t0, t1))
            rnd.events["tracks_created"] += len(events.spawns)
            rnd.events["reconnections"] += len(events.reconnections)
            rnd.events["expirations"] += len(events.expirations)
        else:
            t0 = clock()
            tracker.step(packet)
            t1 = clock()
        rnd.step_ns.append((t0, t1))
    rec.step = 0
    tracks = rec.timed("pipeline.finalize", tracker.finalize)
    if work.via_files:
        rec.timed("mot_files.write", write_tracks, tracks, seq.res_path)
    rnd.track_ns.append((start, clock()))
    rnd.frames += len(packets)
    return Output(seq, tracker, packets, tracks)


def score(work: Workload, rnd: Round, rec: tracing.Recorder) -> None:
    """Time the evaluation the workload's user would run."""
    for _ in range(work.eval_repeats):
        start = tracing.clock()
        if work.via_files:
            out = rnd.outputs[0]
            out.hyp = rec.timed("mot_files.read_eval", read_tracks, out.seq.res_path)
            out.gt = rec.timed("mot_files.read_eval", read_tracks, out.seq.gt_path)
            out.report = rec.timed("evaluation", evaluate, out.hyp, out.gt)
        elif work.aggregate:
            for out in rnd.outputs:
                out.hyp = trajectories_from_tracks(out.tracks)
                out.gt = out.seq.scenario.ground_truth
            pairs = {out.seq.name: (out.hyp, out.gt) for out in rnd.outputs}
            rnd.aggregate = rec.timed("evaluation", evaluate_many, pairs)
            for out in rnd.outputs:
                out.report = rnd.aggregate.sequences[out.seq.name]
        else:
            for out in rnd.outputs:
                out.hyp = trajectories_from_tracks(out.tracks)
                out.gt = out.seq.scenario.ground_truth
                out.report = rec.timed("evaluation", evaluate, out.hyp, out.gt)
        rnd.eval_ns.append((start, tracing.clock()))
    if work.aggregate:
        rnd.fixed_case = evaluate_many(wl.aggregate_case())


def run_round(work, sequences, rec, originals, host, index, traced) -> Round:
    rnd = Round(index, traced)
    rec.round = index
    rec.timing = traced
    rec.install(originals)
    with host.running():
        for seq in sequences:
            rnd.outputs.append(track(work, seq, rec, rnd))
        score(work, rnd, rec)
    rec.timing = False
    tracing.restore(originals)
    timings(rnd, host)
    return rnd


def timings(rnd: Round, host: hostspeed.HostClock) -> None:
    """Wall and reference times of the round's recorded intervals."""
    steps = [host.measure(a, b) for a, b in rnd.step_ns]
    rnd.step_s = [raw for raw, _ in steps]
    rnd.step_ref = [ref for _, ref in steps]
    tracked = [host.measure(a, b) for a, b in rnd.track_ns]
    rnd.track_s = sum(raw for raw, _ in tracked)
    rnd.track_ref = sum(ref for _, ref in tracked)
    # The mean over a round's evaluations is their total time over their
    # count, so every evaluation's scaling counts; one evaluation of
    # `aligned` takes milliseconds, far less than a kernel span.
    evals = [host.measure(a, b) for a, b in rnd.eval_ns]
    rnd.eval_s = statistics.fmean(raw for raw, _ in evals)
    rnd.eval_ref = statistics.fmean(ref for _, ref in evals)


# -- checks ------------------------------------------------------------


class Tally:
    """Operations attempted and failed, by kind."""

    def __init__(self) -> None:
        self.attempted = Counter()
        self.failed = Counter()
        self.unexpected: list[str] = []

    def add(self, kind: str, ok: bool, what: str, wrong_output: bool = True) -> None:
        """Count one operation. A failure with wrong_output=False is an
        operation that did not complete (an alignment fallback) or the
        named evaluate_many fault; any other failure makes the run
        incorrect."""
        self.attempted[kind] += 1
        if not ok:
            self.failed[kind] += 1
            if wrong_output:
                self.unexpected.append(what)


def check_round(work: Workload, rnd: Round, rec: tracing.Recorder, tally: Tally) -> dict:
    """Check one round's outputs and sum the counts the per-layer report
    reads, so the round's outputs and captured calls can be dropped."""
    facts = defaultdict(float)
    facts["idf1_counts"] = []
    for _, _, _, args, cost in rec.calls_of("gating", rnd.index):
        tally.add("checks", checks.gating_frame(args, cost), f"gating round {rnd.index}")
        facts["pairs_all"] += len(args[0]) * len(args[1])
        facts["pairs_admitted"] += cost.pair_count()
    for _, _, _, args, result in rec.calls_of("assignment", rnd.index):
        tally.add("checks", checks.assignment_frame(args, result), f"assignment round {rnd.index}")
        facts["rows"] += args[0].n_tracks
        facts["matches"] += len(result.pairs)
        facts["unmatched_rows"] += len(result.unmatched_tracks)
    for _, _, _, _, ((_, correlation), iterations) in rec.calls_of("alignment.ecc", rnd.index):
        facts["ecc_calls"] += 1
        facts["ecc_iters"] += iterations
        facts["correlation"] += correlation
    for _, _, _, _, fragment in rec.calls_of("reconnect.fill", rnd.index):
        facts["fills"] += 1
        facts["filled_boxes"] += len(fragment)
    for out in rnd.outputs:
        name = f"{out.seq.name} round {rnd.index}"
        tally.attempted["frames"] += len(out.packets)
        tally.add("checks", checks.outputs_are_detections(out.tracks, out.packets), f"output boxes {name}")
        tally.add("checks", checks.detections_used_once(out.tracks, out.packets), f"detection reuse {name}")
        tally.add("checks", checks.fills_inside_gaps(out.tracks), f"fills {name}")
        tally.add("checks", checks.long_enough(out.tracks, CONFIG.min_track_len), f"track length {name}")
        counts = oracles.idf1_counts(out.gt, out.hyp, 0.5)
        facts["idf1_counts"].append(counts)
        tally.add("checks", checks.idf1_agrees(out.report.idf1, counts), f"IDF1 {name}")
        hyp_boxes = sum(len(h) for h in out.hyp.values())
        tally.add("checks", checks.eval_counts_add_up(out.report, hyp_boxes), f"eval counts {name}")
        tally.attempted["evaluations"] += 1
        facts["gt_ids"] += len(out.gt)
        facts["hyp_ids"] += len(out.hyp)
        facts["boxes"] += counts[1] + counts[2]
        if work.via_files:
            tally.add("checks", checks.mot_round_trip(out.tracks, out.hyp), f"MOT round trip {name}")
            facts["records"] += sum(len(p.detections) for p in out.packets) + hyp_boxes
        if work.images:
            log = out.tracker.store.motion_log
            width, height = out.seq.scenario.frame_size
            for packet in out.packets[1:]:
                f = packet.frame
                err = checks.warp_error_px(
                    log.get(f).matrix, out.seq.scenario.warps[f].matrix, width, height
                )
                facts["warp_err_sum"] += err
                facts["warp_err_count"] += 1
                ok = f not in log.fallback_frames and err <= wl.WARP_TOLERANCE_PX
                tally.add("alignments", ok, f"alignment frame {f}", wrong_output=False)
    if work.aggregate:
        # evaluate_many averages per-sequence IDF1 weighted by GT boxes;
        # the definition aggregates the counts. Checked on a fixed case so
        # the failure does not depend on the seed.
        fixed = [oracles.idf1_counts(g, h) for h, g in wl.aggregate_case().values()]
        ok = abs(rnd.fixed_case.idf1 - oracles.idf1(fixed)) <= 1e-12
        tally.add("evaluations", ok, "evaluate_many aggregate IDF1", wrong_output=False)
        facts["aggregate_gap"] = abs(rnd.aggregate.idf1 - oracles.idf1(facts["idf1_counts"]))
    return facts


# -- metrics -------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(rounds, facts, setup_ref) -> dict:
    """Times are scaled to the reference kernel (hostspeed.py), then
    summarised by medians over the run's rounds.

    Every round repeats the same work, so frame i of one round and frame
    i of the next are the same step. A frame's latency is the median of
    its samples, one per round, and the percentiles are over frames.
    """
    steps_ms = 1e3 * np.median([r.step_ref for r in rounds], axis=0)
    return {
        "track_fps": metric(rounds[0].frames / statistics.median(r.track_ref for r in rounds), "frames/s"),
        "step_ms_p50": metric(np.percentile(steps_ms, 50), "ms"),
        "step_ms_p90": metric(np.percentile(steps_ms, 90), "ms"),
        "eval_s": metric(statistics.median(r.eval_ref for r in rounds), "s"),
        "idf1": metric(oracles.idf1(facts[0]["idf1_counts"]), "1"),
        "setup_s": metric(statistics.median(setup_ref), "s"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def wall_summary(rounds, setup_s, host) -> str:
    """The same timings as end_to_end, unscaled, for the log."""
    steps_ms = 1e3 * np.median([r.step_s for r in rounds], axis=0)
    return (
        f"# wall clock, unscaled: track_fps {rounds[0].frames / statistics.median(r.track_s for r in rounds):.4g},"
        f" step p50 {np.percentile(steps_ms, 50):.4g} ms, p90 {np.percentile(steps_ms, 90):.4g} ms,"
        f" eval {statistics.median(r.eval_s for r in rounds):.4g} s, setup {statistics.median(setup_s):.4g} s;"
        f" kernel median {1e3 * statistics.median(host.kernel_s):.4g} ms"
        f" (reference {1e3 * hostspeed.REF_KERNEL_S:.4g} ms, {len(host.kernel_s)} runs)"
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(rounds, facts, rec, host) -> dict:
    """Layer metrics from the traced rounds' spans and counts. Span
    times are scaled to the reference kernel like the end-to-end times."""
    traced = [r for r in rounds if r.traced]
    ids = {r.index for r in traced}
    n_rounds = len(traced)

    def ref_ns(start, end):
        return host.measure(start, end)[1] * 1e9

    step_bounds = {}
    in_step = defaultdict(float)
    calls_in_step = Counter()
    outside = defaultdict(float)
    setup_ns = defaultdict(lambda: defaultdict(float))
    for layer, rnd, step, start, end in rec.spans:
        if rnd < 0:
            setup_ns[rnd][layer] += ref_ns(start, end)
        elif rnd in ids and layer == "pipeline.step":
            step_bounds[(rnd, step)] = (start, end)
    for layer, rnd, step, start, end in rec.spans:
        if rnd not in ids or layer == "pipeline.step":
            continue
        if step:
            s0, s1 = step_bounds[(rnd, step)]
            if start < s0 or end > s1:
                raise RuntimeError(f"{layer} span escapes step {step} of round {rnd}")
            in_step[layer] += ref_ns(start, end)
            calls_in_step[layer] += 1
        else:
            outside[layer] += ref_ns(start, end)

    n_steps = len(step_bounds)
    step_ns = sum(ref_ns(s, e) for s, e in step_bounds.values())
    layer_ns = sum(in_step.values())
    total = Counter()
    for f in (facts[r.index] for r in traced):
        total.update({k: v for k, v in f.items() if k != "idf1_counts"})
    fill_ns = in_step["reconnect.fill"] + outside["reconnect.fill"]
    traced_step_ms = step_ns / n_steps / 1e6
    # Overhead compares like with like: the median of each frame's traced
    # samples against the median of its untraced samples.
    plain = [r.step_ref for r in rounds if not r.traced]
    overhead_ms = 1e3 * float(
        np.mean(np.median([r.step_ref for r in traced], axis=0) - np.median(plain, axis=0))
    )

    def per_frame_ms(layer):
        return in_step[layer] / n_steps / 1e6

    def per_frame(key):
        return total[key] / n_steps

    def per_round(value):
        return value / n_rounds

    def setup_s(layer):
        return statistics.median(v[layer] for v in setup_ns.values()) / 1e9

    return {
        "alignment.ecc_ms": metric(per_frame_ms("alignment.ecc"), "ms"),
        "alignment.intensity_ms": metric(per_frame_ms("alignment.intensity"), "ms"),
        "alignment.ecc_iters": metric(_ratio(total["ecc_iters"], total["ecc_calls"]), "count"),
        "alignment.correlation": metric(_ratio(total["correlation"], total["ecc_calls"]), "1"),
        "alignment.fallbacks": metric(
            per_round(sum(rec.errors.get(("alignment.ecc", r), 0) for r in ids)), "count"
        ),
        "alignment.warp_err_px": metric(_ratio(total["warp_err_sum"], total["warp_err_count"]), "px"),
        "kalman.predict_ms": metric(per_frame_ms("kalman.predict"), "ms"),
        "kalman.predict_calls": metric(calls_in_step["kalman.predict"] / n_steps, "count"),
        "kalman.update_ms": metric(per_frame_ms("kalman.update"), "ms"),
        "kalman.update_calls": metric(calls_in_step["kalman.update"] / n_steps, "count"),
        "kalman.degenerate_resets": metric(
            per_round(sum(rec.errors.get(("kalman.predict", r), 0) for r in ids)), "count"
        ),
        "gating.ms": metric(per_frame_ms("gating"), "ms"),
        "gating.pairs_admitted": metric(per_frame("pairs_admitted"), "count"),
        "gating.pairs_all": metric(per_frame("pairs_all"), "count"),
        "gating.admit_ratio": metric(_ratio(total["pairs_admitted"], total["pairs_all"]), "1"),
        "assignment.ms": metric(per_frame_ms("assignment"), "ms"),
        "assignment.rows": metric(per_frame("rows"), "count"),
        "assignment.matches": metric(per_frame("matches"), "count"),
        "assignment.unmatched_rows": metric(per_frame("unmatched_rows"), "count"),
        "reconnect.fill_ms": metric(_ratio(fill_ns / 1e6, total["fills"]), "ms"),
        "reconnect.window_ms": metric(per_frame_ms("reconnect.window"), "ms"),
        "reconnect.fills": metric(per_round(total["fills"]), "count"),
        "reconnect.filled_boxes": metric(per_round(total["filled_boxes"]), "count"),
        "pipeline.other_ms": metric((step_ns - layer_ns) / n_steps / 1e6, "ms"),
        "pipeline.finalize_ms": metric(per_round(outside["pipeline.finalize"]) / 1e6, "ms"),
        "pipeline.tracks_created": metric(per_round(sum(r.events["tracks_created"] for r in traced)), "count"),
        "pipeline.reconnections": metric(per_round(sum(r.events["reconnections"] for r in traced)), "count"),
        "pipeline.expirations": metric(per_round(sum(r.events["expirations"] for r in traced)), "count"),
        "mot_files.read_ms": metric(per_round(outside["mot_files.read"]) / 1e6, "ms"),
        "mot_files.write_ms": metric(per_round(outside["mot_files.write"]) / 1e6, "ms"),
        "mot_files.eval_read_ms": metric(per_round(outside["mot_files.read_eval"]) / 1e6, "ms"),
        "mot_files.records": metric(per_round(total["records"]), "count"),
        "evaluation.gt_ids": metric(per_round(total["gt_ids"]), "count"),
        "evaluation.hyp_ids": metric(per_round(total["hyp_ids"]), "count"),
        "evaluation.boxes": metric(per_round(total["boxes"]), "count"),
        "evaluation.aggregate_idf1_gap": metric(per_round(total["aggregate_gap"]), "1"),
        "synth.generate_s": metric(setup_s("synth.generate"), "s"),
        "synth.render_s": metric(setup_s("synth.render"), "s"),
        "trace.step_ms": metric(traced_step_ms, "ms"),
        "trace.overhead_ms": metric(overhead_ms, "ms"),
        "trace.layer_share": metric(layer_ns / step_ns, "1"),
        "host.kernel_ms": metric(1e3 * statistics.median(host.kernel_s), "ms"),
    }


# -- main ----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed",
        type=int,
        default=wl.DEFAULT_SEED,
        help=f"workload seed (default {wl.DEFAULT_SEED}; held-out seed {wl.HELD_OUT_SEED})",
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    work = WORKLOADS[args.workload]
    traced_run = bool(args.trace)

    workdir = OUT / f"{work.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    rec = tracing.Recorder()
    host = hostspeed.HostClock()
    originals = tracing.pipeline_originals()
    try:
        setup_ns = []
        for i in range(SETUPS):
            rec.round = -(i + 1)
            rec.timing = traced_run
            with host.running():
                start = tracing.clock()
                sequences = build_inputs(work, args.seed, rec, workdir)
                setup_ns.append((start, tracing.clock()))
        setup_s, setup_ref = zip(*(host.measure(a, b) for a, b in setup_ns))
        rec.round, rec.timing = 0, False
        warm_up(work, sequences)

        rounds: list[Round] = []
        facts: list[dict] = []
        tally = Tally()
        measured = checking = 0.0
        while True:
            traced = traced_run and len(rounds) % 2 == 1
            start = time.perf_counter()
            rnd = run_round(work, sequences, rec, originals, host, len(rounds), traced)
            measured += time.perf_counter() - start
            # Checks run between rounds, off the clock; dropping each
            # round's outputs keeps peak memory independent of the count.
            start = time.perf_counter()
            facts.append(check_round(work, rnd, rec, tally))
            checking += time.perf_counter() - start
            rnd.outputs.clear()
            rec.calls.clear()
            rounds.append(rnd)
            n = len(rounds)
            if n >= MIN_ROUNDS and measured * (n + 1) / n > OVERRUN * args.seconds:
                break

        if traced_run:
            OUT.mkdir(exist_ok=True)
            tracing.write_spans(rec.spans, OUT / f"spans-{work.name}-{args.seed}.tsv")
            metrics = per_layer(rounds, facts, rec, host)
        else:
            metrics = end_to_end(rounds, facts, setup_ref)
    finally:
        tracing.restore(originals)
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        f"# {work.name} seed {args.seed}: {len(rounds)} round(s), {measured:.1f} s measured,"
        f" {checking:.1f} s checking"
    )
    for rnd in rounds:
        print(
            f"# round {rnd.index}{' traced' if rnd.traced else ''}: {rnd.frames} frames,"
            f" track {rnd.track_s:.3f} s wall / {rnd.track_ref:.3f} s ref,"
            f" mean step {1e3 * statistics.mean(rnd.step_s):.3f} ms wall,"
            f" eval {rnd.eval_s:.3f} s wall / {rnd.eval_ref:.3f} s ref"
        )
    print(wall_summary(rounds, setup_s, host))
    for kind in sorted(tally.attempted):
        print(f"# ops {kind}: attempted {tally.attempted[kind]}, failed {tally.failed[kind]}")
    for what in tally.unexpected[:20]:
        print(f"# FAILED CHECK: {what}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not tally.unexpected,
                "attempted": sum(tally.attempted.values()),
                "failed": sum(tally.failed.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
