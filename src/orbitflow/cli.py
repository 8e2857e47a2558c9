"""Command-line front end: verify, spectrum, flow, thimble.

Configuration merges three layers in increasing precedence: a flat
``key=value`` config file, an inline JSON override, and command-line flags.
Reports are JSON with each float written as the shortest decimal that
reads back exactly; identical configuration and seed produce
byte-identical output.

Exit codes: 0 all checks pass, 1 a check failed, 2 configuration error.
"""

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import flow, graphs, orbit, thimble, verification
from .errors import ConfigError
from .liecore import default_cartan
from .orbit import critical_points, potential

DEFAULT_TOLERANCES = {
    "algebraic": 1e-10,
    "convergence": 1e-9,
}


@dataclass
class RunConfig:
    n: int = 2
    h: np.ndarray = None
    seed: int = 0
    out: str = None
    j: int = 1
    sign: str = "-"
    c_offset: float = 0.5
    steps: int = 4000
    step_size: float = None
    directions: int = 16
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"n must be at least 1, got {self.n}")
        if self.h is None:
            self.h = default_cartan(self.n)
        self.h = np.asarray(self.h, dtype=float)
        if len(self.h) != self.n + 1:
            raise ConfigError(f"H has {len(self.h)} entries, expected {self.n + 1}")
        if abs(self.h.sum()) > 1e-12:
            raise ConfigError(f"H must sum to zero, got {self.h.sum():.3e}")
        for i in range(self.n + 1):
            for j in range(i + 1, self.n + 1):
                if self.h[i] - self.h[j] <= 1e-12:
                    raise ConfigError(
                        f"H is not dominant regular: alpha_{i + 1}{j + 1}(H) <= 0"
                    )
        if self.sign not in ("+", "-"):
            raise ConfigError(f"sign must be '+' or '-', got {self.sign!r}")
        unknown = set(self.tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ConfigError(f"unknown tolerance keys: {sorted(unknown)}")
        tols = dict(DEFAULT_TOLERANCES)
        tols.update(self.tolerances)
        self.tolerances = tols

    def as_dict(self):
        return {
            "n": self.n,
            "h": [float(v) for v in self.h],
            "seed": self.seed,
            "j": self.j,
            "sign": self.sign,
            "c_offset": self.c_offset,
            "steps": self.steps,
            "step_size": self.step_size,
            "directions": self.directions,
            "tolerances": dict(sorted(self.tolerances.items())),
        }


def dump_report(payload, path):
    text = json.dumps(payload, indent=1, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def parse_config_file(path):
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"malformed config line: {line!r}")
            key, val = line.split("=", 1)
            values[key.strip()] = val.strip()
    return values


def _coerce(values):
    out = {}
    tols = {}
    for key, val in values.items():
        if key.startswith("tol."):
            tols[key[4:]] = float(val)
        elif key == "n":
            out["n"] = int(val)
        elif key == "H":
            out["h"] = [float(v) for v in str(val).split(",")]
        elif key == "h":
            out["h"] = val if isinstance(val, (list, tuple)) else [float(v) for v in str(val).split(",")]
        elif key in ("seed", "j", "steps", "directions"):
            out[key] = int(val)
        elif key in ("c_offset", "step_size"):
            out[key] = float(val)
        elif key in ("sign", "out"):
            out[key] = str(val)
        elif key == "tolerances":
            tols.update(val)
        else:
            raise ConfigError(f"unknown configuration key: {key!r}")
    if tols:
        out["tolerances"] = tols
    return out


def build_config(args):
    layers = {}
    if args.config:
        layers.update(_coerce(parse_config_file(args.config)))
    if args.json_config:
        layers.update(_coerce(json.loads(args.json_config)))
    flags = {}
    if args.n is not None:
        flags["n"] = args.n
    if args.H is not None:
        flags["H"] = args.H
    if args.seed is not None:
        flags["seed"] = args.seed
    if args.out is not None:
        flags["out"] = args.out
    if getattr(args, "j", None) is not None:
        flags["j"] = args.j
    if getattr(args, "sign", None) is not None:
        flags["sign"] = args.sign
    if getattr(args, "c_offset", None) is not None:
        flags["c_offset"] = args.c_offset
    if getattr(args, "steps", None) is not None:
        flags["steps"] = args.steps
    if getattr(args, "step_size", None) is not None:
        flags["step_size"] = args.step_size
    if getattr(args, "directions", None) is not None:
        flags["directions"] = args.directions
    for item in args.tol or []:
        if "=" not in item:
            raise ConfigError(f"--tol expects KEY=VAL, got {item!r}")
        key, val = item.split("=", 1)
        layers.setdefault("tolerances", {})
        layers["tolerances"][key] = float(val)
    layers.update(_coerce(flags))
    merged_tols = layers.pop("tolerances", {})
    cfg = RunConfig(**layers, tolerances=merged_tols) if merged_tols else RunConfig(**layers)
    return cfg


def cmd_verify(cfg):
    report = verification.run_verification(cfg)
    text = dump_report(report, cfg.out)
    if not cfg.out:
        sys.stdout.write(text + "\n")
    else:
        failures = report["summary"]["failures"]
        total = report["summary"]["checks"]
        sys.stdout.write(f"verify: {total - failures}/{total} checks passed -> {cfg.out}\n")
    return 0 if report["summary"]["failures"] == 0 else 1


def cmd_spectrum(cfg):
    n, h = cfg.n, cfg.h
    crits = critical_points(n)
    spectra = []
    for jj, pt in enumerate(crits, start=1):
        spec = flow.linearize(pt, h)
        spectra.append(
            {
                "j": jj,
                "f": [potential(h, pt).real, potential(h, pt).imag],
                "rates": [
                    {
                        "root": list(r.root),
                        "rate": float(r.rate),
                        "degenerate": bool(r.degenerate),
                    }
                    for r in spec.rates
                ],
            }
        )
    reports = []
    hessians = []
    for jj, s in graphs.twists(n):
        rep = graphs.hessian_restricted(h, jj, graphs.m_j_pm(n, jj, s))
        reports.append(rep)
        hessians.append(
            {
                "j": jj,
                "sign": s,
                "definiteness": rep.definiteness,
                "rows": [
                    {
                        "k": r.k,
                        "alpha_crit": r.alpha_crit,
                        "alpha_h": r.alpha_h,
                        "phase": [r.phase.real, r.phase.imag],
                        "value": [r.value.real, r.value.imag],
                    }
                    for r in rep.rows
                ],
            }
        )
    payload = {"config": cfg.as_dict(), "spectra": spectra, "hessians": hessians}
    text = dump_report(payload, cfg.out)
    if not cfg.out:
        sys.stdout.write(text + "\n")
    if cfg.out and cfg.out.endswith(".json"):
        csv_path = cfg.out[:-5] + ".csv"
        with open(csv_path, "w") as fh:
            fh.write(graphs.hessian_report_csv(reports, h))
    return 0


def cmd_flow(cfg):
    rng = np.random.default_rng(cfg.seed)
    from .cycles import flag_sample

    pt = flag_sample(cfg.n, 1, 0.7, rng)[0]
    traj = flow.integrate(
        pt,
        cfg.h,
        step=cfg.step_size,
        max_steps=cfg.steps,
        conv_tol=cfg.tolerances["convergence"],
    )
    text = flow.trajectory_csv(traj)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    limit = traj.limit_index if traj.limit_index is not None else "none"
    sys.stderr.write(
        f"flow: {len(traj.times)} samples, limit critical point: {limit}\n"
    )
    return 0


def cmd_thimble(cfg):
    rng = np.random.default_rng(cfg.seed)
    samples = thimble.trace_thimble(
        cfg.j,
        cfg.sign,
        cfg.h,
        c_offset=cfg.c_offset,
        directions=cfg.directions,
        step=cfg.step_size,
        rng=rng,
        max_steps=cfg.steps,
    )
    max_omega = thimble.lagrangian_check(samples)
    f1s = [s.f1 for s in samples]
    summary = {
        "max_graph_residual": max(s.graph_residual for s in samples),
        "max_f2_drift": max(abs(s.f2) for s in samples),
        "max_omega": max_omega,
        "f1_range": [min(f1s), max(f1s)],
        "samples": len(samples),
    }
    meta = {"config": cfg.as_dict(), "summary": summary}
    text = thimble.thimble_json(samples, meta)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
        if cfg.out.endswith(".json"):
            with open(cfg.out[:-5] + ".csv", "w") as fh:
                fh.write(thimble.thimble_csv(samples))
    else:
        sys.stdout.write(text + "\n")
    sys.stdout.write(
        "thimble: residual {max_graph_residual:.3e}, |f2| {max_f2_drift:.3e}, "
        "omega {max_omega:.3e}, f1 in [{lo:.6f}, {hi:.6f}]\n".format(
            lo=summary["f1_range"][0], hi=summary["f1_range"][1], **{
                k: summary[k] for k in ("max_graph_residual", "max_f2_drift", "max_omega")
            }
        )
    )
    return 0


def make_parser():
    parser = argparse.ArgumentParser(
        prog="orbitflow",
        description="Numerical Landau-Ginzburg engine on minimal adjoint orbits",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("verify", "run every invariant suite and write a JSON report"),
        ("spectrum", "linearization rates and restricted Hessian tables"),
        ("flow", "integrate the gradient flow from a random flag point"),
        ("thimble", "trace a real Lagrangian thimble and summarize it"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--H", type=str, default=None, help="comma-separated diagonal")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--config", type=str, default=None, help="flat key=value file")
        p.add_argument("--json-config", type=str, default=None, help="inline JSON overrides")
        p.add_argument("--tol", action="append", default=None, metavar="KEY=VAL")
        if name == "thimble":
            p.add_argument("--j", type=int, default=None)
            p.add_argument("--sign", type=str, default=None, choices=["+", "-"])
            p.add_argument("--c-offset", dest="c_offset", type=float, default=None)
            p.add_argument("--directions", type=int, default=None)
        if name in ("flow", "thimble"):
            p.add_argument("--steps", type=int, default=None)
            p.add_argument("--step-size", dest="step_size", type=float, default=None)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        handler = {
            "verify": cmd_verify,
            "spectrum": cmd_spectrum,
            "flow": cmd_flow,
            "thimble": cmd_thimble,
        }[args.command]
        return handler(cfg)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
