"""Command-line front end for the experiment harness."""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import benchmarks, theory
from .harness import (ExperimentConfig, diagnose, emit_report, run_many,
                      run_once, table_preset)
from .objective import ConfigurationError
from .swarm import ComponentGaussian, StepSchedule, UniformBox


def _kind_parser(makers: dict):
    """Parser for 'kind:v1,v2,...' values: makers[kind](v1, v2, ...)."""
    def parse(text: str):
        kind, _, rest = text.partition(":")
        return makers[kind](*(float(v) for v in rest.split(",")))
    return parse


# Every ExperimentConfig field is a flag and a config-file key, mapped here
# to (field name, parser).  Keys equal the field names except for the
# renamed ones.  Values are parsed by the type of the field's default unless
# a parser is listed; the forms of the listed ones go into error messages.
_RENAMED = {"lam": "lambda", "batch_size": "batch"}
_PARSERS = {
    "schedule": _kind_parser({"constant": StepSchedule.constant,
                              "geometric": StepSchedule.geometric,
                              "harmonic": StepSchedule.harmonic}),
    "init": _kind_parser({"uniform": UniformBox,
                          "gaussian": ComponentGaussian}),
    "arch": lambda text: tuple(int(v) for v in text.split(",")),
    "batch_size": int,
}
_FORMS = {"schedule": "constant:c, geometric:c,r or harmonic:c",
          "init": "uniform:lo,hi or gaussian:mean,variance",
          "arch": "comma-separated layer widths, e.g. 5,10,1"}
_FIELDS = {_RENAMED.get(f.name, f.name):
           (f.name, _PARSERS.get(f.name) or type(f.default))
           for f in dataclasses.fields(ExperimentConfig)}


def _read_config_file(path: str) -> dict:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _FIELDS:
                raise ConfigurationError(
                    f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def _build_config(args, file_values: dict | None = None) -> ExperimentConfig:
    """Config from file values overridden by the flags that were given.

    A malformed value is a ConfigurationError; so is an out-of-range one,
    raised by the constructor it reaches.
    """
    texts = dict(file_values or {})
    texts.update((key, getattr(args, key)) for key in _FIELDS
                 if getattr(args, key, None) is not None)
    kwargs = {}
    for key, text in texts.items():
        name, parse = _FIELDS[key]
        try:
            kwargs[name] = parse(text)
        except ConfigurationError:
            raise
        except (LookupError, TypeError, ValueError):
            form = f"; use {_FORMS[name]}" if name in _FORMS else ""
            raise ConfigurationError(f"bad {key} {text!r}{form}") from None
    return ExperimentConfig(**kwargs)


def _add_config_flags(p: argparse.ArgumentParser, with_method=True) -> None:
    for key in _FIELDS:
        if with_method or key != "method":
            p.add_argument("--" + key.replace("_", "-"), dest=key)


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output file path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _print_summary(report) -> None:
    cfg = report.config
    parts = [f"method={cfg.method}", f"benchmark={cfg.benchmark}",
             f"N={cfg.particles}", f"runs={cfg.runs}"]
    if not np.isnan(report.rate):
        parts += [f"rate={report.rate:.3f}", f"sol-err={report.sol_err:.3e}",
                  f"fun-err={report.fun_err:.3e}"]
    if report.train_err is not None:
        parts += [f"train-err={report.train_err:.3e}",
                  f"test-err={report.test_err:.3e}"]
    parts += [f"mean-iters={report.mean_iters:.1f}",
              f"mean-evals={report.mean_evals:.1f}"]
    if report.n_diverged:
        parts.append(f"diverged={report.n_diverged}")
    print("  ".join(parts))


def _run_campaigns(configs, args) -> int:
    """Run each campaign, print its summary, and emit all if --out is set."""
    reports = []
    for config in configs:
        report = run_many(config)
        _print_summary(report)
        reports.append(report)
    if args.out:
        for path in emit_report(reports, args.format, args.out):
            print(f"wrote {path}")
    return 0


def _cmd_run(args) -> int:
    file_values = _read_config_file(args.config) if args.config else None
    return _run_campaigns([_build_config(args, file_values)], args)


def _cmd_compare(args) -> int:
    config = _build_config(args)
    return _run_campaigns([dataclasses.replace(config, method=method)
                           for method in ("escbo", "vanilla")], args)


def _cmd_table(name: str, args) -> int:
    configs = table_preset(name, args.scale)
    if args.seed is not None:
        configs = [dataclasses.replace(c, seed=args.seed) for c in configs]
    return _run_campaigns(configs, args)


def _cmd_diagnose(args) -> int:
    file_values = _read_config_file(args.config) if args.config else None
    config = _build_config(args, file_values)
    record = run_once(config, config.seed)
    report = diagnose(record, config, L_f=args.lipschitz)
    print(f"terminated by {record.terminated_by} after {record.iterations} "
          f"iterations ({record.evals} evaluations)")
    print(report.summary())
    return 0


def _cmd_laplace(args) -> int:
    try:
        betas = [float(b) for b in args.beta_grid.split(",")]
    except ValueError:
        raise ConfigurationError(f"bad beta-grid {args.beta_grid!r}") from None
    spec = benchmarks.lookup(args.benchmark, args.dim)
    gen = np.random.default_rng(args.seed if args.seed is not None else 0)
    pts = gen.uniform(spec.lo, spec.hi, size=(args.samples, spec.dim))
    f_samples = spec.objective.eval_many(pts)
    print("beta,laplace_value,error_budget")
    for beta in betas:
        lap = theory.laplace_value(beta, f_samples)
        budget = theory.error_budget(beta, args.eps, f_samples, spec.f_star)
        print(f"{beta!r},{lap!r},{budget!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="escbo",
        description="Consensus-based derivative-free optimization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one configured campaign")
    p.add_argument("--config", help="key = value config file")
    _add_config_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compare", help="escbo vs vanilla on one benchmark")
    _add_config_flags(p, with_method=False)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_compare)

    for name in ("table2", "table3", "table4"):
        p = sub.add_parser(name, help=f"run the {name} preset grid")
        p.add_argument("--scale", type=float, default=0.1)
        p.add_argument("--seed", type=int)
        _add_output_flags(p)
        p.set_defaults(func=lambda a, _n=name: _cmd_table(_n, a))

    p = sub.add_parser("diagnose", help="single-run diagnostics vs bounds")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--lipschitz", type=float,
                   help="declared Lipschitz constant for the bound overlay")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("laplace", help="softmin value and error budget sweep")
    p.add_argument("--benchmark", required=True)
    p.add_argument("--dim", type=int)
    p.add_argument("--beta-grid", dest="beta_grid", required=True,
                   help="comma-separated beta values")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_laplace)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
