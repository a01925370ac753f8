"""Command-line surface tying the modules together.

Exit codes: 0 success, 1 domain error (bad data, shape mismatch, ...),
2 usage error. All stochastic subcommands accept --seed.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import events, gan, io, msnet, oracle, pipeline, representation, simulate

DOMAIN_ERRORS = (ValueError, OSError, msnet.DivergenceDetected)


def _read_stream(args) -> events.EventStream:
    return events.parse_event_csv(Path(args.events).read_text(),
                                  args.width, args.height)


def _load_cfg(path: str | None) -> pipeline.PipelineConfig:
    if path is None:
        return pipeline.PipelineConfig()
    return pipeline.PipelineConfig.from_text(Path(path).read_text())


def _width(arrays, name) -> int:
    """First-axis size of a checkpoint tensor, 0 if it is missing or a
    scalar (then the load check reports it)."""
    shape = arrays[name].shape if name in arrays else ()
    return shape[0] if shape else 0


# A checkpoint is checked against the input geometry given by the config
# and the CLI (bins, height, width); its layer widths are read from the
# checkpoint itself, since scoring needs no training settings.

def _load_ms(path: str, cfg: pipeline.PipelineConfig) -> msnet.MsNetParams:
    arrays = io.read_evck(Path(path).read_bytes())
    return msnet.MsNetParams.from_arrays(arrays, msnet.MsNetParams.layers(
        cfg.bins, _width(arrays, "ms.enc1.w")))


def _load_gan(path: str, height: int, width: int) -> gan.GanParams:
    arrays = io.read_evck(Path(path).read_bytes())
    hyper = gan.GanHyper(ngf=_width(arrays, "g.d1.w"),
                         ndf=_width(arrays, "dxy.c1.w"))
    return gan.GanParams.from_arrays(
        arrays, gan.GanParams.layers(height, width, hyper))


def cmd_simulate(args) -> int:
    cfg = simulate.parse_scene_config(Path(args.config).read_text())
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    stream, track = simulate.render_scene(cfg)
    Path(args.out_events).write_text(events.write_event_csv(stream))
    Path(args.out_labels).write_text(pipeline.write_label_csv(track))
    print(f"wrote {len(stream)} events on {cfg.width}x{cfg.height} sensor")
    return 0


def cmd_voxelize(args) -> int:
    io.check_evol_times(args.t0, args.bin_dt)   # before binning uses them
    stream = _read_stream(args)
    vol = representation.discretize(stream, args.t0, args.bin_dt, args.bins,
                                    args.mode)
    Path(args.out).write_bytes(io.write_evol(vol))
    print(f"wrote {vol.bins}x{vol.height}x{vol.width} volume ({vol.mode})")
    return 0


def cmd_train_ms(args) -> int:
    cfg = _load_cfg(args.config)
    stream = _read_stream(args)
    vols, _ = representation.window_arrays(pipeline.windows_for(stream, cfg),
                                           cfg.cap)
    params, curve = msnet.train_ms(vols, cfg.ms_hyper(), seed=args.seed)
    Path(args.out).write_bytes(io.write_evck(params.to_arrays()))
    print(f"trained on {len(vols)} volumes; "
          f"loss {curve[0]:.6f} -> {curve[-1]:.6f}")
    return 0


def cmd_train_gan(args) -> int:
    cfg = _load_cfg(args.config)
    stream = _read_stream(args)
    ms_params = _load_ms(args.ms_ckpt, cfg)
    windows = pipeline.windows_for(stream, cfg)
    params, curves = gan.train_gan(windows, ms_params, cfg.gan_hyper(),
                                   seed=args.seed)
    Path(args.out).write_bytes(io.write_evck(params.to_arrays()))
    print(f"trained on {len(windows)} windows; "
          f"final d_xy {curves['d_xy'][-1]:.4f} d_x {curves['d_x'][-1]:.4f} "
          f"g {curves['g'][-1]:.4f}")
    return 0


def cmd_score(args) -> int:
    cfg = _load_cfg(args.config)
    stream = _read_stream(args)
    ms_params = _load_ms(args.ms_ckpt, cfg)
    gan_params = _load_gan(args.gan_ckpt, args.height, args.width)
    track = None
    if args.labels:
        track = pipeline.read_label_csv(Path(args.labels).read_text())
    series = pipeline.score_sequence(ms_params, gan_params, stream, cfg,
                                     track=track, seed=args.seed)
    Path(args.out).write_text(pipeline.write_score_csv(series))
    print(f"scored {len(series)} frames; mean MSE {series.scores.mean():.6f}")
    return 0


def cmd_eval(args) -> int:
    series = pipeline.read_score_csv(Path(args.scores).read_text())
    metrics = pipeline.evaluate(series)
    print(f"auc {metrics.auc:.4f}")
    print(f"best_f1 {metrics.best_f1:.4f} at threshold {metrics.threshold!r}")
    return 0


def cmd_plot(args) -> int:
    series = pipeline.read_score_csv(Path(args.scores).read_text())
    Path(args.out).write_text(pipeline.plot_scores(series))
    print(f"wrote {args.out}")
    return 0


def cmd_verify_math(args) -> int:
    worst = oracle.verify(args.instances, seed=args.seed)
    checks = [
        ("optimal D_xy closed form vs numeric", worst["d_xy"], 1e-8),
        ("optimal D_x closed form vs numeric", worst["d_x"], 1e-8),
        ("JSD decomposition identity", worst["decomposition"], 1e-10),
        ("D* local optimality under perturbation",
         max(worst["perturbation_gain"], 0.0), 1e-12),
    ]
    ok = True
    for name, residual, tol in checks:
        passed = residual <= tol
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name}: "
              f"worst residual {residual:.3e} (tol {tol:g})")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evanom",
        description="Event-camera anomaly detection pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        return p

    p = add("simulate", cmd_simulate, help="render a synthetic scene")
    p.add_argument("--config", required=True)
    p.add_argument("--out-events", required=True)
    p.add_argument("--out-labels", required=True)
    p.add_argument("--seed", type=int, default=None)

    p = add("voxelize", cmd_voxelize, help="discretize events into a volume")
    p.add_argument("--events", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--t0", type=int, default=0)
    p.add_argument("--bin-dt", type=int, required=True)
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--mode", choices=representation.MODES, default="bilinear")
    p.add_argument("--out", required=True)

    for name, fn in (("train-ms", cmd_train_ms), ("train-gan", cmd_train_gan)):
        p = add(name, fn, help=f"{name.replace('-', ' ')} on an event file")
        p.add_argument("--events", required=True)
        p.add_argument("--width", type=int, required=True)
        p.add_argument("--height", type=int, required=True)
        p.add_argument("--config", default=None)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=0)
        if name == "train-gan":
            p.add_argument("--ms-ckpt", required=True)

    p = add("score", cmd_score, help="score a stream by prediction MSE")
    p.add_argument("--events", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--ms-ckpt", required=True)
    p.add_argument("--gan-ckpt", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--labels", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = add("eval", cmd_eval, help="ROC AUC / best F1 from a score CSV")
    p.add_argument("--scores", required=True)

    p = add("plot", cmd_plot, help="SVG plot of a score CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--out", required=True)

    p = add("verify-math", cmd_verify_math,
            help="exact checks of the adversarial-objective derivations")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 2
    try:
        return args.fn(args)
    except DOMAIN_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())
