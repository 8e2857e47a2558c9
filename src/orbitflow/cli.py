"""Command-line front end: verify, spectrum, flow, thimble.

Configuration merges three layers in increasing precedence: a flat
``key=value`` config file, an inline JSON override, and command-line flags.
Reports are JSON with each float written as the shortest decimal that
reads back exactly; identical configuration and seed produce
byte-identical output.

Exit codes: 0 all checks pass, 1 a check failed or a flow raised StepSizeError
or GraphIntegrityError (``error: <message>`` on stderr), 2 configuration error.
"""

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import flow, graphs, thimble, verification
from .errors import ConfigError, GraphIntegrityError, StepSizeError
from .liecore import default_cartan
from .orbit import critical_points, potential

DEFAULT_TOLERANCES = {
    "algebraic": 1e-10,
    "convergence": 1e-9,
}
# the tolerances and knobs each command reads; no other command accepts them
TOLERANCES = {"verify": ("algebraic",), "flow": ("convergence",)}
KNOBS = {
    "flow": ("steps", "step_size"),
    "thimble": ("j", "sign", "c_offset", "directions", "steps", "step_size"),
}
TYPES = {"n": int, "seed": int, "out": str, "j": int, "sign": str, "c_offset": float,
         "directions": int, "steps": int, "step_size": float}


@dataclass
class RunConfig:
    n: int = 2
    h: np.ndarray = None
    seed: int = 0
    out: str = None
    command: str = "verify"
    j: int = 1
    sign: str = "-"
    c_offset: float = 0.5
    steps: int = 4000
    step_size: float = None
    directions: int = 16
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"n must be at least 1, got {self.n}")
        if self.h is None:
            self.h = default_cartan(self.n)
        self.h = np.asarray(self.h, dtype=float)
        if len(self.h) != self.n + 1:
            raise ConfigError(f"H has {len(self.h)} entries, expected {self.n + 1}")
        if not np.isfinite(self.h).all():
            raise ConfigError(f"H has entries that are not finite: {self.h.tolist()}")
        if abs(self.h.sum()) > 1e-12:
            raise ConfigError(f"H must sum to zero, got {self.h.sum():.3e}")
        for i in range(self.n + 1):
            for j in range(i + 1, self.n + 1):
                if self.h[i] - self.h[j] <= 1e-12:
                    raise ConfigError(
                        f"H is not dominant regular: alpha_{i + 1}{j + 1}(H) <= 0"
                    )
        knobs = KNOBS.get(self.command, ())
        if self.command == "thimble":
            if self.sign not in ("+", "-"):
                raise ConfigError(f"sign must be '+' or '-', got {self.sign!r}")
            if not 1 <= self.j <= self.n + 1:
                raise ConfigError(f"j must be in 1..{self.n + 1}, got {self.j}")
            if (self.j, self.sign) not in graphs.twists(self.n):
                raise ConfigError(
                    f"sign {self.sign!r} is not defined for j={self.j} at odd rank n={self.n}; "
                    f"the (j, sign) pairs are {graphs.twists(self.n)}"
                )
        for name in ("directions", "steps"):
            if name in knobs and getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        reads = TOLERANCES.get(self.command, ())
        unknown = sorted(set(self.tolerances) - set(reads))
        if unknown:
            raise ConfigError(f"{unknown[0]} is an unknown tolerance for the {self.command} "
                              f"command, which reads {', '.join(reads) or 'none'}")
        scales = {name: getattr(self, name) for name in ("c_offset", "step_size") if name in knobs}
        for name, value in {**scales, **self.tolerances}.items():
            if value is not None and not 0 < value < np.inf:
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        self.tolerances = {**{key: DEFAULT_TOLERANCES[key] for key in reads}, **self.tolerances}

    def as_dict(self):
        out = {
            "n": self.n,
            "h": [float(v) for v in self.h],
            "seed": self.seed,
        }
        if self.tolerances:
            out["tolerances"] = dict(sorted(self.tolerances.items()))
        out.update((name, getattr(self, name)) for name in KNOBS.get(self.command, ()))
        return out


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
        try:
            if key.startswith("tol."):
                tols[key[4:]] = float(val)
            elif key in ("H", "h"):
                vals = val if isinstance(val, (list, tuple)) else str(val).split(",")
                out["h"] = [float(v) for v in vals]
            elif key in TYPES:
                out[key] = TYPES[key](val)
            elif key == "tolerances":
                tols.update((k, float(v)) for k, v in dict(val).items())
            else:
                raise ConfigError(f"unknown configuration key: {key!r}")
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}={val!r} cannot be read: {exc}") from None
    if tols:
        out["tolerances"] = tols
    return out


def build_config(args):
    layers = {}
    if args.config:
        try:
            values = parse_config_file(args.config)
        except OSError as exc:
            raise ConfigError(f"config file cannot be read: {exc}") from None
        layers.update(_coerce(values))
    if args.json_config:
        try:
            overrides = json.loads(args.json_config)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"json-config is not valid JSON: {exc}") from None
        if not isinstance(overrides, dict):
            raise ConfigError("json-config must be a JSON object")
        layers.update(_coerce(overrides))
    for key in layers:
        if key in KNOBS["thimble"] and key not in KNOBS.get(args.command, ()):
            raise ConfigError(f"{key} is not read by the {args.command} command")
    for item in args.tol or []:
        if "=" not in item:
            raise ConfigError(f"--tol expects KEY=VAL, got {item!r}")
        key, val = item.split("=", 1)
        layers.setdefault("tolerances", {}).update(_coerce({"tol." + key: val})["tolerances"])
    flags = {key: getattr(args, key, None) for key in ("H", *TYPES)}
    layers.update(_coerce({key: val for key, val in flags.items() if val is not None}))
    return RunConfig(command=args.command, **layers)


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
    spectra = []
    for jj, pt in enumerate(critical_points(n), start=1):
        spec, f = flow.linearize(pt, h), potential(h, pt)
        spectra.append(
            {
                "j": jj,
                "f": [f.real, f.imag],
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
        np.array([[pt.line, pt.normal]]),
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
    limit = traj.limit_index[0] or "none"
    sys.stderr.write(
        f"flow: {len(traj.times)} samples, limit critical point: {limit}\n"
    )
    return 0


def cmd_thimble(cfg):
    rng = np.random.default_rng(cfg.seed)
    samples = thimble.trace_thimble(
        [(cfg.j, cfg.sign)],
        cfg.h,
        c_offset=cfg.c_offset,
        directions=cfg.directions,
        step=cfg.step_size,
        rng=rng,
        max_steps=cfg.steps,
    )
    twist = graphs.m_j_pm(cfg.n, cfg.j, cfg.sign).m_diag.real
    max_omega = thimble.lagrangian_check(samples.line, twist)
    f1_range = [float(samples.f1.min()), float(samples.f1.max())]
    summary = {
        "max_graph_residual": float(samples.graph_residual.max()),
        "max_f2_drift": float(np.abs(samples.f2).max()),
        "max_omega": max_omega,
        "f1_range": f1_range,
        "samples": len(samples),
    }
    meta = {"config": cfg.as_dict(), "summary": summary}
    text = thimble.thimble_json(samples, meta, twist)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
        if cfg.out.endswith(".json"):
            with open(cfg.out[:-5] + ".csv", "w") as fh:
                fh.write(thimble.thimble_csv(samples))
    else:
        sys.stdout.write(text + "\n")
    sys.stdout.write(
        f"thimble: residual {summary['max_graph_residual']:.3e}, "
        f"|f2| {summary['max_f2_drift']:.3e}, omega {max_omega:.3e}, "
        f"f1 in [{f1_range[0]:.6f}, {f1_range[1]:.6f}]\n"
    )
    return 0


@functools.cache
def make_parser():
    """The parser of every command, built once per process: parsing leaves it
    unchanged (``--tol`` defaults to None, not to a list all parses would share)."""
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
        p.add_argument("--H", type=str, default=None, help="comma-separated diagonal")
        p.add_argument("--config", type=str, default=None, help="flat key=value file")
        p.add_argument("--json-config", type=str, default=None, help="inline JSON overrides")
        p.add_argument("--tol", action="append", default=None, metavar="KEY=VAL")
        for key in ("n", "seed", "out", *KNOBS.get(name, ())):
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=TYPES[key], default=None)
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
    except (StepSizeError, GraphIntegrityError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
