"""Seeded verification campaigns and the density experiment.

A campaign is fully determined by its ExperimentConfig: one campaign
seed, one derived stream per trial, order-independent aggregation. A
failed trial never raises out of the runner; it lands in the report
with enough detail to replay (see replay_config), and the CLI turns it
into a standalone replay file plus a nonzero exit code.

A config is checked and typed once, when it is built: a key other than
its fields, an unknown suite, a nonpositive trial count, a param its
suite does not declare, a badly typed value, a size param below its
PARAM_LEAST, a rational param outside its PARAM_RANGE and a config its
suite's SUITE_SIZE check refuses (an object past the breakpoint limit,
an explicit schedule shorter than the terms the trials read, comod's
delta at or above 1/p_j) all raise ValueError before the first draw.
SUITE_PARAMS declares each suite's params once, with their defaults,
and the report records every param as the trials read it.
Configs serialize to JSON with every rational as a "p/q" string; the
CLI lays flags over a config file field by field.
"""

import json
from contextlib import suppress
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import partial
from time import perf_counter

from .conjugator import (
    ConjugatorError,
    OrbitCapError,
    SignatureMismatchError,
    _checked_conjugate,
    alternating_signs,
    pseudo_generic,
)
from .knaster import DiagonalHomeo, PrimeSequence, check_fold_size, diag_dist, lift
from .lemmas import (
    CounterexampleError,
    certify_mod_bound,
    check_tent_witness,
    comod_lower_bound_check,
    separation_lower_bound,
    tent_witness,
)
from .plmap import compose, reflect, sup_dist, to_json_dict
from .randgen import (
    derive_rng,
    perturb_homeo,
    rand_homeo,
    rand_nudge,
    rand_signature_homeo,
)
from .rational import format_rational, parse_rational
from .signatures import (
    signature,
    signature_oplus,
    signature_reflect,
    signature_to_string,
)
from .tents import MAX_BREAKPOINTS, check_size, oplus_power, verify_semiconjugacy

# perfbench/test_gate.py plants a failed trial through this name
CheckFailure = CounterexampleError

_TRIAL_ERRORS = (
    CounterexampleError,
    ConjugatorError,
    SignatureMismatchError,
    OrbitCapError,
)


# A default's type is its param's type. A Fraction makes a rational ("p/q"
# or an int), an int or None an integer (an int or its decimal string).
# Any suite also takes an integer replay_trial.
SUITE_PARAMS = {
    "semiconj": {"d_max": 7, "max_breakpoints": 12},
    "oplus-scaling": {"d_max": 7},
    "grid-fix": {"d_max": 7},
    "mod-bound": {"eps": Fraction(1, 10), "n_max": 3},
    "tent-witness": {"delta": Fraction(1, 5), "d": None},
    "separation": {"eta": Fraction(1, 40), "n_max": 1},
    "comod": {"delta": Fraction(1, 5)},
    "signature-laws": {"d_max": 5},
    "density": {"m": 1, "eta": Fraction(1, 4), "generic_k": 2},
}

# Least value of each integer size param: below it a draw range or semiconj's
# sweep is empty, rand_homeo draws the identity, or density's slack sum is 0.
PARAM_LEAST = {"d_max": 1, "max_breakpoints": 1, "n_max": 0, "d": 1, "m": 1, "generic_k": 1}

# Open interval (low, high) of each rational param, high None for no bound:
# tent_witness and comod_lower_bound_check need delta < 1/4
PARAM_RANGE = {"eps": (0, None), "eta": (0, None), "delta": (0, Fraction(1, 4))}


def _block_sum_size(p, P):
    # oplus_power of degree d_max of a map with up to max_breakpoints
    # interior breakpoints in semiconj, 8 in the other suites
    b, d_max = p.get("max_breakpoints", 8), p["d_max"]
    check_size((b + 1) * d_max + 1, f"oplus_power of degree {d_max}")


def _mod_bound_size(p, P):
    # the fold at n_max, whose tail bound reads p_{n_max+1}
    n = p["n_max"]
    P.require(n + 1, f"n_max {n}")
    check_fold_size(n, P)


def _separation_size(p, P):
    # the stalks at m <= n_max + 2 reach p_{n_max+3} through their tail
    # bound. Nothing is folded, but knaster_dist and the bound multiply out
    # the weight denominator p_1...p_{n_max+2}; any 20 primes pass the limit
    n = p["n_max"]
    P.require(n + 3, f"n_max {n}")
    if P.product(1, min(n + 2, MAX_BREAKPOINTS.bit_length())) >= MAX_BREAKPOINTS:
        raise ValueError(f"n_max {n} needs the weight denominator p_1...p_{n + 2}, "
                         f"not below the limit {MAX_BREAKPOINTS}")
    # the window is forced through (1/d, 1/d + 2·eta + k/128), k <= 8, with
    # d = p_{n+1}...p_m; the largest 1/d comes from the least p_{n+1}
    d = min(P.prime(i) for i in range(1, n + 2))
    top = Fraction(1, d) + 2 * p["eta"] + Fraction(8, 128)
    if top >= 1:
        raise ValueError(f"eta {format_rational(p['eta'])} forces the window through "
                         f"1/{d} + 2·eta + 1/16 = {format_rational(top)}, not below 1")


def _comod_size(p, P):
    # its maps have a fixed size; the trials draw j in {2, 3} and n <= j + 1,
    # whose stalks read p_5, and comod_lower_bound_check needs delta < 1/p_j
    P.require(5, "comod")
    q = max(P.prime(2), P.prime(3))
    if p["delta"] >= Fraction(1, q):
        raise ValueError(f"delta {format_rational(p['delta'])} must lie below "
                         f"1/{q} = min(1/p_2, 1/p_3), as the trials draw j = 2, 3")


def _density_size(p, P):
    # diag_dist at m folds m levels, and its tail bound reads p_{m+1};
    # refuse before paying for the products
    m, k = p["m"], p["generic_k"]
    P.require(m + 1, f"m {m}")
    check_fold_size(m, P)
    # f0 has at most 2k + 1 breakpoints, so its lift at most 2k·p_1...p_m + 1
    check_size(2 * k * P.product(1, m) + 1,
               f"a {k}-interval generic map lifted to coordinate {m}")


# Each suite's size check, of (params, primes), against tents.MAX_BREAKPOINTS,
# and against the length of an explicit schedule
SUITE_SIZE = {
    **dict.fromkeys(("semiconj", "oplus-scaling", "grid-fix", "signature-laws"),
                    _block_sum_size),
    "mod-bound": _mod_bound_size,
    "tent-witness": lambda p, P: p["d"] and check_size(p["d"] + 1, f"tent(d) at d {p['d']}"),
    "separation": _separation_size,
    "comod": _comod_size,
    "density": _density_size,
}


def _typed(name, default, value):
    """value as the type of default; ValueError if it is none."""
    rational = isinstance(default, Fraction)
    if type(value) is type(default) or type(value) is int and (rational or default is None):
        return Fraction(value) if rational else value
    if isinstance(value, str):
        with suppress(ValueError):
            return parse_rational(value) if rational else int(value)
    kind = "a rational" if rational else "an integer"
    raise ValueError(f"{name} takes {kind}, not {value!r}")


@dataclass
class ExperimentConfig:
    suite: str
    primes: PrimeSequence = field(default_factory=PrimeSequence)
    trials: int = 20
    seed: int = 0
    params: dict = field(default_factory=dict)
    output: str | None = None

    def __post_init__(self):
        if self.suite not in SUITE_PARAMS:
            raise ValueError(f"unknown suite {self.suite!r}")
        if not isinstance(self.primes, PrimeSequence):
            self.primes = PrimeSequence.from_json_dict(self.primes)
        self.trials = _typed("trials", 0, self.trials)
        self.seed = _typed("seed", 0, self.seed)
        if self.trials < 1:
            raise ValueError("trial count must be positive")
        params = dict(self.params)
        declared = dict(SUITE_PARAMS[self.suite])
        if "replay_trial" in params:
            declared["replay_trial"] = 0
        unknown = sorted(set(params) - set(declared))
        if unknown:
            raise ValueError(f"suite {self.suite} takes no param {', '.join(unknown)}")
        self.params = {
            k: _typed(f"param {k}", v, params.get(k, v)) for k, v in declared.items()
        }
        for k, least in PARAM_LEAST.items():
            if self.params.get(k) is not None and self.params[k] < least:
                raise ValueError(f"{k} must be at least {least}, not {self.params[k]}")
        for k, (low, high) in PARAM_RANGE.items():
            v = self.params.get(k)
            if v is not None and not (low < v and (high is None or v < high)):
                where = f"in ({low}, {format_rational(high)})" if high else f"above {low}"
                raise ValueError(f"{k} must lie {where}, not {format_rational(v)}")
        SUITE_SIZE[self.suite](self.params, self.primes)

    def to_json_dict(self):
        params = {}
        for k, v in self.params.items():
            params[k] = format_rational(v) if isinstance(v, Fraction) else v
        return {
            "suite": self.suite,
            "primes": self.primes.to_json_dict(),
            "trials": self.trials,
            "seed": self.seed,
            "params": params,
            "output": self.output,
        }

    @classmethod
    def from_json_dict(cls, data):
        # a misspelled key would otherwise fall back to its default unseen
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class TrialOutcome:
    index: int
    ok: bool
    details: dict
    seconds: float

    def to_json_dict(self, with_timing=True):
        out = {"trial": self.index, "ok": self.ok, "details": self.details}
        if with_timing:
            out["seconds"] = round(self.seconds, 6)
        return out


@dataclass(frozen=True)
class CertificateReport:
    suite: str
    config: ExperimentConfig
    outcomes: tuple
    elapsed_seconds: float

    @property
    def passed(self):
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def failed(self):
        return sum(1 for o in self.outcomes if not o.ok)

    def all_ok(self):
        return self.failed == 0

    def to_json_dict(self, with_timing=True):
        out = {
            "suite": self.suite,
            "config": self.config.to_json_dict(),
            "summary": {
                "trials": len(self.outcomes),
                "passed": self.passed,
                "failed": self.failed,
            },
            "trials": [o.to_json_dict(with_timing) for o in self.outcomes],
        }
        if with_timing:
            out["elapsed_seconds"] = round(self.elapsed_seconds, 6)
        return out

    def to_json(self, with_timing=True):
        return json.dumps(self.to_json_dict(with_timing), indent=2, sort_keys=True)


def render_table(report):
    """Human-readable report: one row per trial, then the tally."""
    lines = [f"suite {report.suite}  (seed {report.config.seed})"]
    for o in report.outcomes:
        status = "ok  " if o.ok else "FAIL"
        parts = "  ".join(f"{k}={v}" for k, v in o.details.items())
        lines.append(f"  trial {o.index:>4}  {status}  {parts}")
    lines.append(
        f"  {len(report.outcomes)} trials: {report.passed} passed, "
        f"{report.failed} failed"
    )
    return "\n".join(lines)


def replay_config(report, index):
    """Config that reruns exactly one trial through the same subcommand."""
    data = report.config.to_json_dict()
    data["params"] = dict(data["params"], replay_trial=index)
    data["output"] = None
    return data


def _run_campaign(cfg, trial_fn):
    if "replay_trial" in cfg.params:
        indices = [cfg.params["replay_trial"]]
    else:
        indices = range(cfg.trials)
    outcomes = []
    t0 = perf_counter()
    for i in indices:
        rng = derive_rng(cfg.seed, cfg.suite, i)
        s0 = perf_counter()
        try:
            details = trial_fn(cfg, rng)
            ok = True
        except _TRIAL_ERRORS as err:
            ok = False
            details = {"error": str(err)}
            payload = getattr(err, "payload", None)
            if payload:
                details["diagnostics"] = payload
        outcomes.append(TrialOutcome(i, ok, details, perf_counter() - s0))
    return CertificateReport(cfg.suite, cfg, tuple(outcomes), perf_counter() - t0)


# ----------------------------------------------------------- verify suites


def _t_semiconj(cfg, rng):
    g = rand_homeo(rng, cfg.params["max_breakpoints"])
    for d in range(1, cfg.params["d_max"] + 1):
        if not verify_semiconjugacy(g, d):
            raise CounterexampleError(
                "semiconjugacy identity failed",
                {"d": d, "g": to_json_dict(g)},
            )
    return {"breakpoints": len(g.breakpoints), "d_max": cfg.params["d_max"]}


def _t_oplus_scaling(cfg, rng):
    d = rng.randint(1, cfg.params["d_max"])
    g1 = rand_homeo(rng, 8)
    g2 = rand_homeo(rng, 8)
    want = sup_dist(g1, g2) / d
    got = sup_dist(oplus_power(g1, d), oplus_power(g2, d))
    if got != want:
        raise CounterexampleError(
            "block sum did not contract by exactly d",
            {"d": d, "g1": to_json_dict(g1), "g2": to_json_dict(g2)},
        )
    return {"d": d, "distance": format_rational(got)}


def _t_grid_fix(cfg, rng):
    d = rng.randint(1, cfg.params["d_max"])
    g = rand_homeo(rng, 8)
    h = oplus_power(g, d)
    for i in range(d + 1):
        p = Fraction(i, d)
        if h(p) != p:
            raise CounterexampleError(
                "block sum moved a grid point",
                {"d": d, "i": i, "g": to_json_dict(g)},
            )
    return {"d": d}


def _t_mod_bound(cfg, rng):
    P = cfg.primes
    eps = cfg.params["eps"]
    n = rng.randint(0, cfg.params["n_max"])
    g = rand_homeo(rng, 5)
    h, _ = rand_nudge(rng, g, eps / P.product(1, n))
    cert = certify_mod_bound(g, h, n, eps, P)
    return {
        "n": n,
        "eps": format_rational(eps),
        "upper": format_rational(cert.upper),
    }


def _gapped_pair(rng, delta, d, base):
    """base plus a forced perturbation at sup distance >= delta/d."""
    x0 = Fraction(rng.randint(1, 36), 37)
    y = base(x0)
    need = delta / d + Fraction(rng.randint(1, 8), 256)
    y0 = y + need if y + need < 1 else y - need
    return perturb_homeo(base, x0, y0)


def _t_tent_witness(cfg, rng):
    delta = cfg.params["delta"]
    d = cfg.params["d"] or rng.choice([2, 3, 4, 6, 8])
    f = rand_homeo(rng, 6)
    g = _gapped_pair(rng, delta, d, f)
    w = tent_witness(f, g, d, delta)
    if not check_tent_witness(f, g, d, delta, w):
        raise CounterexampleError(
            "witness certificate failed its exact recheck",
            {"x": format_rational(w.x), "case": w.case},
        )
    return {
        "d": d,
        "delta": format_rational(delta),
        "x": format_rational(w.x),
        "case": w.case,
    }


def _t_separation(cfg, rng):
    P = cfg.primes
    eta = cfg.params["eta"]
    n = rng.randint(0, cfg.params["n_max"])
    m = n + rng.randint(1, 2)
    F = DiagonalHomeo(n, rand_homeo(rng, 4))
    d = P.product(n + 1, m)
    shift = 2 * eta + Fraction(rng.randint(0, 8), 128)
    window = perturb_homeo(
        rand_homeo(rng, 4), Fraction(1, d), Fraction(1, d) + shift
    )
    cert = separation_lower_bound(F, window, m, eta, P)
    return {
        "n": n,
        "m": m,
        "bound": format_rational(cert.bound),
        "lower": format_rational(cert.lower),
    }


def _t_comod(cfg, rng):
    P = cfg.primes
    delta = cfg.params["delta"]
    j = rng.choice([2, 3])
    n = j + rng.randint(0, 1)
    g_phi = rand_homeo(rng, 3)
    lifted = lift(DiagonalHomeo(j, g_phi), n, P).inducer
    p_prime = _gapped_pair(rng, delta, P.product(j + 1, n), lifted)
    cert = comod_lower_bound_check(p_prime, n, g_phi, j, delta, P)
    return {
        "j": j,
        "n": n,
        "delta": format_rational(delta),
        "route": cert.route,
        "coordinate": cert.coordinate,
        "bound": format_rational(cert.bound),
        "achieved": format_rational(cert.achieved),
    }


def _t_signature_laws(cfg, rng):
    f = rand_homeo(rng, 8)
    d = rng.randint(1, cfg.params["d_max"])
    sig = signature(f)
    if signature(reflect(f)) != signature_reflect(sig):
        raise CounterexampleError("reflection law failed", {"f": to_json_dict(f)})
    if signature(oplus_power(f, d)) != signature_oplus(sig, d):
        raise CounterexampleError(
            "block sum law failed", {"f": to_json_dict(f), "d": d}
        )
    phi = rand_homeo(rng, 6)
    conj = compose(compose(phi.invert(), f), phi)
    if signature(conj) != sig:
        raise CounterexampleError(
            "conjugation moved the signature",
            {"f": to_json_dict(f), "phi": to_json_dict(phi)},
        )
    return {"signs": signature_to_string(sig) or "(none)", "d": d}


VERIFY_SUITES = {
    "semiconj": _t_semiconj,
    "oplus-scaling": _t_oplus_scaling,
    "grid-fix": _t_grid_fix,
    "mod-bound": _t_mod_bound,
    "tent-witness": _t_tent_witness,
    "separation": _t_separation,
    "comod": _t_comod,
    "signature-laws": _t_signature_laws,
}


def run_verify_suite(cfg):
    return _run_campaign(cfg, VERIFY_SUITES[cfg.suite])


# ------------------------------------------------------- density experiment


def proof_slack_sum(m, P):
    """Sum of prod(p_i..p_m)/prod(p_1..p_i) for i = 1..m."""
    return sum(Fraction(P.product(i, m), P.product(1, i)) for i in range(1, m + 1))


def _density_eps(cfg):
    """The proof's conjugator tolerance eta / (4 proof_slack_sum(m, P))."""
    return cfg.params["eta"] / (4 * proof_slack_sum(cfg.params["m"], cfg.primes))


def _t_density(cfg, rng, eps):
    P = cfg.primes
    m, eta, k = cfg.params["m"], cfg.params["eta"], cfg.params["generic_k"]
    f0 = pseudo_generic(k, rng.getrandbits(32))
    fm = lift(DiagonalHomeo(0, f0), m, P).inducer
    # the lift is one block sum, of degree p_1...p_m, so fm's signs follow
    # from the alternating word pseudo_generic guarantees f0;
    # _checked_conjugate refuses the target if they did not
    signs = signature_oplus(alternating_signs(k), P.product(1, m))
    target = rand_signature_homeo(rng, signs)
    # diag_dist needs h⁻¹ ∘ fm ∘ h as a map, so it is built once, and the
    # exact distance to target is read off it
    conj, gap, steps = _checked_conjugate(fm, target, eps)
    dist = diag_dist(DiagonalHomeo(m, conj), DiagonalHomeo(m, target), m, P)
    if dist.upper >= eta:
        raise CounterexampleError(
            "could not certify the conjugated distance under eta",
            {"upper": format_rational(dist.upper)},
        )
    return {
        "m": m,
        "eta": format_rational(eta),
        "eps": format_rational(eps),
        "signs": signature_to_string(signs) or "(none)",
        "sup_gap": format_rational(gap),
        "orbit_steps": steps,
        "lower": format_rational(dist.lower),
        "upper": format_rational(dist.upper),
    }


def run_density_experiment(cfg):
    """Per trial: random same-signature target at coordinate m, conjugator
    from the synthesis engine at the proof's epsilon, then a certified
    upper bound under eta. Synthesis failures are reported, not raised.
    The proof's epsilon is the same for every trial, so it is summed once.
    """
    return _run_campaign(cfg, partial(_t_density, eps=_density_eps(cfg)))


def run_suite(cfg):
    if cfg.suite == "density":
        return run_density_experiment(cfg)
    return run_verify_suite(cfg)
