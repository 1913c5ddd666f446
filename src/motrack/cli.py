"""Command-line interface.

Subcommands: track, eval, synth, bench-gating, bench-filling. All
outputs are plain text or CSV.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import bench_filling, bench_gating, window_sweep, write_csv
from .config import TrackerConfig
from .evaluation import evaluate, trajectories_from_tracks
from .mot_files import read_detections, read_tracks, write_detections, write_tracks, write_trajectories
from .pgm import read_pgm, write_pgm
from .pipeline import Tracker
from .synth import ScenarioSpec, generate, handoff_scenario, occlusion_scenario, random_scenario, render_frames


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    defaults = TrackerConfig()
    parser.add_argument("--l-max", type=float, default=defaults.l_max)
    parser.add_argument("--alpha", type=float, default=defaults.alpha)
    parser.add_argument("--iou-gate", type=float, default=defaults.iou_gate)
    parser.add_argument("--min-track-len", type=int, default=defaults.min_track_len)
    parser.add_argument(
        "--backward-tracklet-len", type=int, default=defaults.backward_tracklet_len
    )
    parser.add_argument(
        "--confidence-floor", type=float, default=defaults.confidence_floor
    )
    parser.add_argument(
        "--no-gating",
        action="store_true",
        help="score every track/detection pair instead of integral-image gating",
    )
    parser.add_argument("--fixed-window", action="store_true")


def _config_from_args(args: argparse.Namespace) -> TrackerConfig:
    return TrackerConfig(
        l_max=args.l_max,
        alpha=args.alpha,
        iou_gate=args.iou_gate,
        min_track_len=args.min_track_len,
        backward_tracklet_len=args.backward_tracklet_len,
        confidence_floor=args.confidence_floor,
        use_gating=not args.no_gating,
        fixed_window=args.fixed_window,
    )


def _cmd_track(args: argparse.Namespace) -> int:
    packets = read_detections(args.detections)
    if not packets:
        print("no detections found", file=sys.stderr)
        return 1
    if args.images:
        files = sorted(Path(args.images).glob("*.pgm"))
        if len(files) < len(packets):
            raise ValueError(
                f"{len(files)} image(s) for {len(packets)} frame(s) of detections"
            )
        for packet, path in zip(packets, files):
            packet.image = read_pgm(path)
    tracker = Tracker(
        config=_config_from_args(args),
        frame_size=(args.frame_width, args.frame_height),
    )
    for packet in packets:
        tracker.step(packet)
    tracks = tracker.finalize()
    write_tracks(tracks, args.output)
    boxes = sum(t.committed_length() for t in tracks)
    print(f"wrote {len(tracks)} track(s), {boxes} box(es) to {args.output}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    report = evaluate(
        read_tracks(args.hypotheses),
        read_tracks(args.ground_truth),
        args.iou_threshold,
    )
    print(report.summary())
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.spec:
        spec = ScenarioSpec.from_json(Path(args.spec).read_text())
    elif args.preset == "occlusion":
        spec = occlusion_scenario()
    elif args.preset == "handoff":
        spec = handoff_scenario()
    else:
        spec = random_scenario(args.seed)
    scenario = generate(spec, args.seed)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "spec.json").write_text(spec.to_json())
    write_trajectories(scenario.ground_truth, out / "gt.txt")
    write_detections(scenario.packets(with_warps=False), out / "det.txt")
    if args.render:
        frames_dir = out / "frames"
        frames_dir.mkdir(exist_ok=True)
        for f, image in render_frames(scenario, args.seed).items():
            write_pgm(frames_dir / f"{f:06d}.pgm", image)
    print(
        f"scenario {spec.name!r}: {len(spec.targets)} target(s), "
        f"{spec.frame_count} frame(s), {scenario.total_gt_boxes()} gt box(es) "
        f"-> {out}"
    )
    return 0


def _emit(rows: list, output: str | None) -> None:
    if output:
        write_csv(rows, output)
        print(f"wrote {len(rows)} row(s) to {output}")
    else:
        import dataclasses

        names = [f.name for f in dataclasses.fields(rows[0])]
        print(",".join(names))
        for row in rows:
            print(",".join(str(getattr(row, n)) for n in names))


def _cmd_bench_gating(args: argparse.Namespace) -> int:
    counts = [int(c) for c in args.counts.split(",")]
    rows = bench_gating(counts, seed=args.seed)
    _emit(rows, args.output)
    return 0


def _cmd_bench_filling(args: argparse.Namespace) -> int:
    rows = bench_filling(args.scenarios, seed=args.seed)
    _emit(rows, args.output)
    if args.sweep:
        l_values = [float(v) for v in args.l_values.split(",")]
        sweep_rows = window_sweep(l_values, seed=args.seed)
        _emit(sweep_rows, args.sweep_output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motrack",
        description="Detector-agnostic multi-object tracker and toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_track = sub.add_parser("track", help="run the tracker on a detection file")
    p_track.add_argument("--detections", required=True)
    p_track.add_argument("--images", help="directory of per-frame .pgm files")
    p_track.add_argument("--output", required=True)
    p_track.add_argument("--frame-width", type=float, default=1920.0)
    p_track.add_argument("--frame-height", type=float, default=1080.0)
    _add_config_flags(p_track)
    p_track.set_defaults(func=_cmd_track)

    p_eval = sub.add_parser("eval", help="score a result file against ground truth")
    p_eval.add_argument("--hypotheses", required=True)
    p_eval.add_argument("--ground-truth", required=True)
    p_eval.add_argument("--iou-threshold", type=float, default=0.5)
    p_eval.set_defaults(func=_cmd_eval)

    p_synth = sub.add_parser("synth", help="generate a synthetic scenario")
    p_synth.add_argument("--spec", help="scenario spec JSON file")
    p_synth.add_argument(
        "--preset", choices=["random", "occlusion", "handoff"], default="random"
    )
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--output-dir", required=True)
    p_synth.add_argument("--render", action="store_true")
    p_synth.set_defaults(func=_cmd_synth)

    p_bg = sub.add_parser("bench-gating", help="time gated vs pairwise costs")
    p_bg.add_argument("--counts", default="100,250,500,1000")
    p_bg.add_argument("--seed", type=int, default=0)
    p_bg.add_argument("--output")
    p_bg.set_defaults(func=_cmd_bench_gating)

    p_bf = sub.add_parser(
        "bench-filling", help="fill quality vs inertia; optional window sweep"
    )
    p_bf.add_argument("--scenarios", type=int, default=20)
    p_bf.add_argument("--seed", type=int, default=0)
    p_bf.add_argument("--output")
    p_bf.add_argument("--sweep", action="store_true")
    p_bf.add_argument("--l-values", default="30,60,90,120")
    p_bf.add_argument("--sweep-output")
    p_bf.set_defaults(func=_cmd_bench_filling)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
