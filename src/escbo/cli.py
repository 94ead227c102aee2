"""Command-line front end for the experiment harness."""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import benchmarks, theory
from .harness import (_KINDS, ExperimentConfig, _summary_row, diagnose,
                      emit_report, run_many, run_once, table_preset)
from .objective import ConfigurationError


# Every ExperimentConfig field is a flag and a config-file key: the key its
# declaration names (the field name unless renamed), mapped to the field,
# whose declared kind gives the value's parser and form.
_FIELDS = {f.metadata["key"] or f.name: f
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


def _parse(key: str, text, parse, form=None):
    """parse(text), or None for an absent flag; a malformed text is a
    ConfigurationError naming ``key`` and, if given, the ``form`` to use."""
    if text is None:
        return None
    try:
        return parse(text)
    except ConfigurationError:
        raise
    except (LookupError, TypeError, ValueError):
        use = f"; use {form}" if form else ""
        raise ConfigurationError(f"bad {key} {text!r}{use}") from None


def _natural(text: str) -> int:
    """int(text), where a negative number is as bad as a malformed one."""
    if int(text) < 0:
        raise ValueError(text)
    return int(text)


def _build_config(args, file_values: dict | None = None) -> ExperimentConfig:
    """Config from file values overridden by the flags that were given.

    A malformed value is a ConfigurationError; so is an out-of-range one,
    raised by the constructor it reaches.
    """
    texts = dict(file_values or {})
    texts.update((key, getattr(args, key)) for key in _FIELDS
                 if getattr(args, key, None) is not None)
    return ExperimentConfig(**{
        _FIELDS[key].name:
            _parse(key, text, *_KINDS[_FIELDS[key].metadata["kind"]][2:])
        for key, text in texts.items()})


def _add_config_flags(p: argparse.ArgumentParser, with_method=True) -> None:
    for key in _FIELDS:
        if with_method or key != "method":
            p.add_argument("--" + key.replace("_", "-"), dest=key)


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output file path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _print_summary(report) -> None:
    """The report's summary row and the run count."""
    row = dict(_summary_row(report), runs=len(report.records))
    texts = {key: format(v, ".4g") if isinstance(v, float) else str(v)
             for key, v in row.items() if v is not None}
    print("  ".join(f"{key.replace('_', '-')}={text}"
                    for key, text in texts.items()))


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
    seed = _parse("seed", args.seed, int)
    configs = table_preset(name, _parse("scale", args.scale, float))
    if seed is not None:
        configs = [dataclasses.replace(c, seed=seed) for c in configs]
    return _run_campaigns(configs, args)


def _cmd_diagnose(args) -> int:
    file_values = _read_config_file(args.config) if args.config else None
    config = _build_config(args, file_values)
    lipschitz = _parse("lipschitz", args.lipschitz, float)
    record = run_once(config, config.seed)
    report = diagnose(record, config, L_f=lipschitz)
    print(f"terminated by {record.terminated_by} after {record.iterations} "
          f"iterations ({record.evals} evaluations)")
    print(report.summary())
    return 0


def _cmd_laplace(args) -> int:
    betas = _parse("beta-grid", args.beta_grid,
                   lambda text: [float(b) for b in text.split(",")])
    dim, samples, eps, seed = (
        _parse(key, getattr(args, key), parse) for key, parse in
        (("dim", int), ("samples", _natural), ("eps", float),
         ("seed", _natural)))
    spec = benchmarks.lookup(args.benchmark, dim)
    gen = np.random.default_rng(seed)
    pts = gen.uniform(spec.lo, spec.hi, size=(samples, spec.dim))
    f_samples = spec.objective.eval_many(pts)
    print("beta,laplace_value,error_budget")
    for beta in betas:
        lap = theory.laplace_value(beta, f_samples)
        budget = theory.error_budget(beta, eps, f_samples, spec.f_star)
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
        p.add_argument("--scale", default="0.1")
        p.add_argument("--seed")
        _add_output_flags(p)
        p.set_defaults(func=lambda a, _n=name: _cmd_table(_n, a))

    p = sub.add_parser("diagnose", help="single-run diagnostics vs bounds")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--lipschitz",
                   help="declared Lipschitz constant for the bound overlay")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("laplace", help="softmin value and error budget sweep")
    p.add_argument("--benchmark", required=True)
    p.add_argument("--dim")
    p.add_argument("--beta-grid", dest="beta_grid", required=True,
                   help="comma-separated beta values")
    p.add_argument("--samples", default="100000")
    p.add_argument("--eps", default="0.5")
    p.add_argument("--seed", default="0")
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
