"""Command-line front end.

Groups: pl (exact PL map algebra), tent (tent maps and block sums),
conj (conjugacy invariants and synthesis), knaster (truncated-tower
objects), verify (seeded law campaigns), experiment (density).

Maps, points, and certificates travel as JSON files; bare rationals are
"p/q" strings. Exit codes: 0 all checks passed, 1 a verification or
synthesis failure (with a replay file for campaigns), 2 usage errors.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

from . import knaster as kn
from .conjugator import GridNotFixedError, conjugator_certificate, grid_block_conjugate
from .experiments import (
    _TRIAL_ERRORS,
    SUITE_PARAMS,
    ExperimentConfig,
    VERIFY_SUITES,
    render_table,
    replay_config,
    run_suite,
)
from .plmap import compose, degree, from_json_dict, reflect, sup_dist, to_json_dict
from .rational import format_rational, parse_rational
from .signatures import decide_conjugate, signature, signature_to_string
from .tents import oplus_power, straighten, tent, verify_semiconjugacy

# a failed check or synthesis: exit 1, as a campaign records a failed trial
_RUNTIME_ERRORS = _TRIAL_ERRORS + (GridNotFixedError,)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load_map(path):
    return from_json_dict(_read_json(path))


def _load_point(path):
    return kn.TruncatedKnasterPoint.from_json_dict(_read_json(path))


def _load_diagonal(path, coord=0):
    data = _read_json(path)
    if "inducer" in data:
        return kn.DiagonalHomeo.from_json_dict(data)
    return kn.DiagonalHomeo(coord, from_json_dict(data))


def _emit(data, out):
    text = json.dumps(data, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


# ------------------------------------------------------------------- pl


def _cmd_pl_eval(args):
    f = _load_map(args.f)
    print(format_rational(f(parse_rational(args.x))))
    return 0


def _cmd_pl_compose(args):
    _emit(to_json_dict(compose(_load_map(args.f), _load_map(args.g))), args.output)
    return 0


def _cmd_pl_invert(args):
    _emit(to_json_dict(_load_map(args.f).invert()), args.output)
    return 0


def _cmd_pl_dist(args):
    print(format_rational(sup_dist(_load_map(args.f), _load_map(args.g))))
    return 0


def _cmd_pl_degree(args):
    print(degree(_load_map(args.f)))
    return 0


def _cmd_pl_reflect(args):
    _emit(to_json_dict(reflect(_load_map(args.f))), args.output)
    return 0


# ----------------------------------------------------------------- tent


def _cmd_tent_build(args):
    _emit(to_json_dict(tent(args.d)), args.output)
    return 0


def _cmd_tent_oplus(args):
    _emit(to_json_dict(oplus_power(_load_map(args.f), args.d)), args.output)
    return 0


def _cmd_tent_semiconj(args):
    g = _load_map(args.f)
    if verify_semiconjugacy(g, args.d):
        print(f"ok: map o tent({args.d}) = tent({args.d}) o blocksum")
        return 0
    print("FAIL: semiconjugacy identity does not hold", file=sys.stderr)
    return 1


def _cmd_tent_straighten(args):
    h = straighten(_load_map(args.f), _load_map(args.g))
    _emit(to_json_dict(h), args.output)
    return 0


# ----------------------------------------------------------------- conj


def _cmd_conj_signature(args):
    print(signature_to_string(signature(_load_map(args.f))) or "(none)")
    return 0


def _cmd_conj_decide(args):
    same = decide_conjugate(_load_map(args.f), _load_map(args.g))
    print("conjugate" if same else "not conjugate")
    return 0


def _cmd_conj_synthesize(args):
    f, g = _load_map(args.f), _load_map(args.g)
    _emit(conjugator_certificate(f, g, parse_rational(args.eta)), args.output)
    return 0


def _cmd_conj_blockwise(args):
    f = _load_map(args.f)
    h = _load_map(args.target)
    g = grid_block_conjugate(f, args.d, h, parse_rational(args.eta))
    _emit(to_json_dict(g), args.output)
    return 0


# -------------------------------------------------------------- knaster


def _cmd_knaster_point(args):
    P = kn.PrimeSequence(args.primes)
    x = kn.extend_point(parse_rational(args.x), args.n, P)
    _emit(x.to_json_dict(), args.output)
    return 0


def _cmd_knaster_dist(args):
    P = kn.PrimeSequence(args.primes)
    d = kn.knaster_dist(_load_point(args.x), _load_point(args.y), P)
    _emit(d.to_json_dict(), args.output)
    return 0


def _cmd_knaster_lift(args):
    P = kn.PrimeSequence(args.primes)
    F = _load_diagonal(args.f, args.coord)
    _emit(kn.lift(F, args.to, P).to_json_dict(), args.output)
    return 0


def _cmd_knaster_evaldiag(args):
    P = kn.PrimeSequence(args.primes)
    F = _load_diagonal(args.f, args.coord)
    y = kn.eval_diagonal(F, _load_point(args.x), P)
    _emit(y.to_json_dict(), args.output)
    return 0


# ----------------------------------------------------- verify / experiment


def _cmd_campaign(args):
    # the config file's fields, then the flags over them, checked as one
    given = {k: v for k, v in vars(args).items() if v is not None}
    data = dict(_read_json(args.config)) if args.config else {}
    fields = ("suite", "primes", "trials", "seed", "output")
    data.update((k, given[k]) for k in fields if k in given)
    data["params"] = dict(data.get("params", {}))
    data["params"].update((k, given[k]) for k in SUITE_PARAMS[args.suite] if k in given)
    report = run_suite(ExperimentConfig.from_json_dict(data))
    print(render_table(report))
    if report.config.output:
        Path(report.config.output).write_text(report.to_json() + "\n")
        print(f"report written to {report.config.output}")
    if report.all_ok():
        return 0
    stem = Path(report.config.output).stem if report.config.output else report.suite
    for o in report.outcomes:
        if o.ok:
            continue
        path = Path(f"{stem}-replay-trial{o.index}.json")
        path.write_text(json.dumps(replay_config(report, o.index), indent=2) + "\n")
        print(f"replay file written to {path}", file=sys.stderr)
    return 1


# ----------------------------------------------------------------- parser


def _arg(*names, **kw):
    """One add_argument call: its flag names and keywords."""
    return names, kw


def _helped(arg, text):
    """A shared flag with one subcommand's help text."""
    names, kw = arg
    return names, {**kw, "help": text}


_F = _arg("-f", required=True)
_G = _arg("-g", required=True)
_D = _arg("-d", type=int, required=True)
_X = _arg("-x", required=True)
_COORD = _arg("--coord", type=int, default=0)
_ETA = _arg("--eta", default="1/100")
_PRIMES = _arg("--primes", default="diagonal")
_OUT = _arg("-o", "--output", help="write JSON here instead of stdout")

# group: (help, {subcommand: (handler, *flags)})
COMMANDS = {
    "pl": ("exact piecewise-linear map algebra", {
        "eval": (_cmd_pl_eval, _F, _helped(_X, 'argument as "p/q"')),
        "compose": (_cmd_pl_compose, _F, _G, _OUT),
        "invert": (_cmd_pl_invert, _F, _OUT),
        "dist": (_cmd_pl_dist, _F, _G),
        "degree": (_cmd_pl_degree, _F),
        "reflect": (_cmd_pl_reflect, _F, _OUT),
    }),
    "tent": ("tent maps, block sums, straightening", {
        "build": (_cmd_tent_build, _D, _OUT),
        "oplus": (_cmd_tent_oplus, _F, _D, _OUT),
        "semiconj": (_cmd_tent_semiconj, _F, _D),
        "straighten": (_cmd_tent_straighten, _helped(_F, "target open map"),
                       _helped(_G, "model open map"), _OUT),
    }),
    "conj": ("conjugacy invariants and synthesis", {
        "signature": (_cmd_conj_signature, _F),
        "decide": (_cmd_conj_decide, _F, _G),
        "synthesize": (_cmd_conj_synthesize, _F, _G, _ETA, _OUT),
        "blockwise": (_cmd_conj_blockwise, _helped(_F, "block model map"), _D,
                      _arg("--target", required=True, help="grid-fixing target map"),
                      _ETA, _OUT),
    }),
    "knaster": ("truncated tower points and diagonals", {
        "point": (_cmd_knaster_point, _helped(_X, 'top coordinate as "p/q"'),
                  _arg("-n", type=int, required=True, help="truncation level"),
                  _PRIMES, _OUT),
        "dist": (_cmd_knaster_dist, _X, _arg("-y", required=True), _PRIMES, _OUT),
        "lift": (_cmd_knaster_lift, _helped(_F, "diagonal (or inducer) JSON"),
                 _helped(_COORD, "coord for bare inducers"),
                 _arg("--to", type=int, required=True), _PRIMES, _OUT),
        "evaldiag": (_cmd_knaster_evaldiag, _F, _helped(_X, "point JSON file"),
                     _COORD, _PRIMES, _OUT),
    }),
}


def _add_campaign(parsers, suite):
    p = parsers.add_parser(suite)
    p.set_defaults(func=_cmd_campaign, suite=suite)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--primes", help='"diagonal", "all2", or comma list like 2,3,5')
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--output", help="write the JSON report here")
    for name, default in SUITE_PARAMS[suite].items():
        shown = "drawn per trial" if default is None else default
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, help=f"default {shown}")


def build_parser():
    top = argparse.ArgumentParser(
        prog="knaster-lab",
        description="Exact PL interval dynamics and certified Knaster-tower bounds",
    )
    sub = top.add_subparsers(dest="group", required=True)
    for group, (text, commands) in COMMANDS.items():
        parsers = sub.add_parser(group, help=text).add_subparsers(dest="cmd", required=True)
        for name, (func, *flags) in commands.items():
            p = parsers.add_parser(name)
            p.set_defaults(func=func)
            for names, kw in flags:
                p.add_argument(*names, **kw)

    ve = sub.add_parser("verify", help="seeded verification campaigns")
    ves = ve.add_subparsers(dest="suite_cmd", required=True)
    for name in VERIFY_SUITES:
        _add_campaign(ves, name)

    ex = sub.add_parser("experiment", help="end-to-end certified experiments")
    exs = ex.add_subparsers(dest="cmd", required=True)
    _add_campaign(exs, "density")

    return top


@functools.cache
def _parser():
    """The parser, built on first use: parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _RUNTIME_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        payload = getattr(err, "payload", None)
        if payload:
            print(json.dumps(payload, indent=2), file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError, KeyError, TypeError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
