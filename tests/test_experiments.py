"""Campaign harness: determinism, splittable streams, replay, density."""

import json
from fractions import Fraction

import pytest

import knaster_lab.experiments as experiments
from knaster_lab import tents
from knaster_lab.cli import main
from knaster_lab.experiments import (
    SUITE_PARAMS,
    VERIFY_SUITES,
    ExperimentConfig,
    proof_slack_sum,
    render_table,
    replay_config,
    run_density_experiment,
    run_suite,
    run_verify_suite,
)
from knaster_lab.knaster import CertifiedDistance, PrimeSequence
from knaster_lab.lemmas import CounterexampleError
from knaster_lab.randgen import derive_rng
from knaster_lab.rational import parse_rational

ALL2 = PrimeSequence("all2")
DIAG = PrimeSequence("diagonal")
F = Fraction


def cfg_for(suite, **kw):
    return ExperimentConfig(suite=suite, **kw)


# ------------------------------------------------------------------ config


def test_config_round_trips_through_json():
    cfg = ExperimentConfig(
        suite="mod-bound",
        primes=ALL2,
        trials=7,
        seed=42,
        params={"eps": F(1, 50), "n_max": 2},
        output="report.json",
    )
    data = cfg.to_json_dict()
    assert data["params"]["eps"] == "1/50"
    back = ExperimentConfig.from_json_dict(data)
    assert back.suite == cfg.suite
    assert back.primes == ALL2
    assert back.params == {"eps": F(1, 50), "n_max": 2}
    assert back.output == "report.json"
    assert back == cfg


# ------------------------------------------------------------------ params


def test_resolve_fills_defaults_and_types():
    cfg = cfg_for("tent-witness", params={"delta": "2/10"})
    assert cfg.params == {"delta": F(1, 5), "d": None}
    cfg = cfg_for("tent-witness", params={"d": "3"})
    assert cfg.params == {"delta": F(1, 5), "d": 3}
    cfg = cfg_for("mod-bound", params={"eps": 1})
    assert cfg.params == {"eps": F(1), "n_max": 3}
    cfg = cfg_for("density", params={"replay_trial": "4"})
    assert cfg.params == {"m": 1, "eta": F(1, 4), "generic_k": 2, "replay_trial": 4}


@pytest.mark.parametrize(
    "suite, params",
    [
        ("tent-witness", {"detla": "1/7"}),
        ("semiconj", {"eps": "1/10"}),
        ("mod-bound", {"eps": 0.1}),
        ("mod-bound", {"eps": "0.1"}),
        ("mod-bound", {"eps": None}),
        ("mod-bound", {"n_max": 2.0}),
        ("mod-bound", {"n_max": False}),
        ("density", {"target": 1}),
        ("density", {"replay_trial": "last"}),
    ],
)
def test_resolve_rejects_undeclared_and_badly_typed_params(suite, params):
    with pytest.raises(ValueError):
        cfg_for(suite, params=params)


# suite, the flags it runs with, a size param, its least value and its
# limit, the largest value whose objects fit in tents.MAX_BREAKPOINTS
SIZE_ROWS = [
    # oplus_power of degree d_max: (max_breakpoints + 1)·d_max + 1
    ("semiconj", {}, "d_max", 1, 76923),
    ("semiconj", {"max_breakpoints": 1}, "d_max", 1, 499999),
    ("semiconj", {"d_max": 20000}, "max_breakpoints", 1, 48),
    # 9·d_max + 1, for the suites that draw with 8 interior breakpoints
    ("oplus-scaling", {}, "d_max", 1, 111111),
    ("grid-fix", {}, "d_max", 1, 111111),
    ("signature-laws", {}, "d_max", 1, 111111),
    # the fold at n_max: p_1...p_n_max + 1 breakpoints
    ("mod-bound", {}, "n_max", 0, 12),
    ("mod-bound", {"primes": "all2"}, "n_max", 0, 19),
    # tent(d): d + 1 breakpoints
    ("tent-witness", {}, "d", 1, 999999),
    # the weight denominator p_1...p_{n_max+2}, below the limit
    ("separation", {}, "n_max", 0, 10),
    ("separation", {"primes": "all2"}, "n_max", 0, 17),
    # the lifted generic map: 2·generic_k·p_1...p_m + 1
    ("density", {}, "m", 1, 11),
    ("density", {"m": 1}, "generic_k", 1, 249999),
    ("density", {"m": 2}, "generic_k", 1, 124999),
    ("density", {"m": 3}, "generic_k", 1, 41666),
]


def size_row_id(row):
    suite, flags, param = row[:3]
    return "-".join([suite, param] + [f"{k}={v}" for k, v in flags.items()])


def size_config(suite, flags, param, value):
    params = {k: v for k, v in flags.items() if k != "primes"}
    primes = PrimeSequence(flags.get("primes", "diagonal"))
    return {"suite": suite, "primes": primes, "params": {**params, param: value}}


@pytest.mark.parametrize(
    "kw",
    [
        {"suite": "mod-bound", "params": {"eps": 0.1}},
        {"suite": "bogus"},
        {"suite": "grid-fix", "trials": 0},
        {"suite": "grid-fix", "trials": 2.5},
        {"suite": "grid-fix", "seed": "x"},
        {"suite": "grid-fix", "primes": "bogus"},
        {"suite": "density", "params": {"eta": 0}},
    ]
    + [
        size_config(suite, flags, param, value)
        for suite, flags, param, least, limit in SIZE_ROWS
        for value in (least - 1, limit + 1)
    ],
)
def test_config_is_checked_when_built(kw):
    with pytest.raises(ValueError):
        ExperimentConfig(**kw)


@pytest.mark.parametrize(
    "suite, flags, param, least, limit", SIZE_ROWS, ids=[size_row_id(r) for r in SIZE_ROWS]
)
@pytest.mark.parametrize("seed", range(1, 6))
def test_size_params_are_checked_before_the_first_draw(
    suite, flags, param, least, limit, seed, monkeypatch, capsys
):
    def refuse(*_):
        raise AssertionError("drew from the trial stream")

    for name in ("derive_rng", "rand_homeo", "pseudo_generic", "rand_signature_homeo"):
        monkeypatch.setattr(experiments, name, refuse)
    product = PrimeSequence.product

    def shallow_product(P, i, j):
        # a deep config must be refused from its depth, not its product
        if j > 64:
            raise AssertionError(f"formed the product p_{i}...p_{j}")
        return product(P, i, j)

    monkeypatch.setattr(PrimeSequence, "product", shallow_product)
    argv = ["experiment" if suite == "density" else "verify", suite]
    for k, v in flags.items():
        argv += [f"--{k.replace('_', '-')}", str(v)]
    argv += ["--seed", str(seed), "--trials", "2", f"--{param.replace('_', '-')}"]
    for value in (least - 1, -10**9):
        assert main(argv + [str(value)]) == 2
        assert f"{param} must be at least {least}, not {value}" in capsys.readouterr().err
    # one past the limit, and far past it
    for value in (limit + 1, 10**9):
        assert main(argv + [str(value)]) == 2
        assert f"the limit {tents.MAX_BREAKPOINTS}" in capsys.readouterr().err
    for value in (least, limit):
        with pytest.raises(AssertionError, match="drew from the trial stream"):
            main(argv + [str(value)])


# suite, the flags it runs with, a rational param, values refused (below
# and at each end of its range) and a valid value next to the upper end
RANGE_ROWS = [
    ("mod-bound", {}, "eps", ("-1", "0"), "1/1000000"),
    ("tent-witness", {}, "delta", ("-1", "0", "1/4"), "249/1000"),
    # below 1/4 as well as min(1/p_2, 1/p_3), which is 1/3 on diagonal
    ("comod", {}, "delta", ("-1", "0", "1/4", "1/3", "1/2"), "249/1000"),
    # the trials draw j = 2, 3 and need delta < 1/p_j: here 1/5 and 1/7
    ("comod", {"primes": "2,5,7,11,13"}, "delta", ("1/5", "1/7"), "1/8"),
    # the window's forced point 1/d + 2·eta + 1/16 below 1, least d = p_1
    ("separation", {}, "eta", ("-1", "0", "7/32"), "223/1024"),
    # n_max 1 draws d = p_2 = 3 as well
    ("separation", {"primes": "5,3,7,11"}, "eta", ("29/96",), "7/24"),
    ("density", {}, "eta", ("-1", "0"), "1000"),
]


@pytest.mark.parametrize(
    "suite, flags, param, refused, valid", RANGE_ROWS, ids=[size_row_id(r) for r in RANGE_ROWS]
)
@pytest.mark.parametrize("seed", range(1, 6))
def test_rational_params_are_checked_before_the_first_draw(
    suite, flags, param, refused, valid, seed, monkeypatch, capsys
):
    def refuse(*_):
        raise AssertionError("drew from the trial stream")

    monkeypatch.setattr(experiments, "derive_rng", refuse)
    argv = ["experiment" if suite == "density" else "verify", suite]
    for k, v in flags.items():
        argv += [f"--{k}", v]
    argv += ["--seed", str(seed), "--trials", "2", f"--{param}"]
    for value in refused:
        assert main(argv + [value]) == 2
        assert f"usage error: {param} " in capsys.readouterr().err
    monkeypatch.undo()
    assert main(argv + [valid]) == 0
    assert "2 passed, 0 failed" in capsys.readouterr().out


# suite, the flags it runs with, the shortest explicit schedule its trials
# may read to the end, and the refusal of that schedule less its last term
TERMS_ROWS = [
    ("semiconj", {}, "3", "unknown prime schedule ''"),
    ("oplus-scaling", {}, "5", "unknown prime schedule ''"),
    ("grid-fix", {}, "2", "unknown prime schedule ''"),
    ("signature-laws", {}, "7", "unknown prime schedule ''"),
    ("tent-witness", {}, "3", "unknown prime schedule ''"),
    # the fold at n_max and its tail bound: p_1...p_{n_max+1}
    ("mod-bound", {}, "3,2,5,2", "n_max 3 needs p_1...p_4"),
    # stalks at m <= n_max + 2 and their tail bound: p_1...p_{n_max+3}
    ("separation", {}, "5,2,3,7", "n_max 1 needs p_1...p_4"),
    ("separation", {"n_max": 3}, "2,3,2,5,2,3", "n_max 3 needs p_1...p_6"),
    # j <= 3 and n <= j + 1: p_1...p_5
    ("comod", {}, "5,2,3,2,7", "comod needs p_1...p_5"),
    # the fold at m and its tail bound: p_1...p_{m+1}
    ("density", {}, "3,2", "m 1 needs p_1...p_2"),
    ("density", {"m": 2}, "2,3,5", "m 2 needs p_1...p_3"),
]


@pytest.mark.parametrize(
    "suite, flags, primes, refusal",
    TERMS_ROWS,
    ids=[size_row_id((suite, flags, "terms")) for suite, flags, *_ in TERMS_ROWS],
)
@pytest.mark.parametrize("seed", range(1, 6))
def test_explicit_schedules_are_checked_before_the_first_draw(
    suite, flags, primes, refusal, seed, monkeypatch, capsys
):
    def refuse(*_):
        raise AssertionError("drew from the trial stream")

    monkeypatch.setattr(experiments, "derive_rng", refuse)
    argv = ["experiment" if suite == "density" else "verify", suite]
    for k, v in flags.items():
        argv += [f"--{k.replace('_', '-')}", str(v)]
    argv += ["--seed", str(seed), "--primes"]
    assert main(argv + [primes.rpartition(",")[0]]) == 2
    assert f"usage error: {refusal}" in capsys.readouterr().err
    monkeypatch.undo()
    assert main(argv + [primes]) == 0
    assert "20 passed, 0 failed" in capsys.readouterr().out


def test_a_config_file_takes_the_flag_schedule_spec(tmp_path, monkeypatch):
    from knaster_lab import cli

    built = []

    def keep(cfg):
        built.append(cfg)
        return run_suite(cfg)

    monkeypatch.setattr(cli, "run_suite", keep)
    path = tmp_path / "cfg.json"
    argv = ["verify", "mod-bound", "--trials", "2", "--n-max", "1"]
    for spec in ("diagonal", "all2", "5,2", "2,3,5,7"):
        path.write_text(json.dumps({"suite": "mod-bound", "primes": spec}))
        assert main(argv + ["--config", str(path)]) == 0
        assert main(argv + ["--primes", spec]) == 0
    assert built[0::2] == built[1::2]
    assert [cfg.primes for cfg in built[1::2]] == [
        DIAG, ALL2, PrimeSequence([5, 2]), PrimeSequence([2, 3, 5, 7])
    ]


@pytest.mark.parametrize("suite", sorted(SUITE_PARAMS))
def test_suites_pass_at_their_least_size_params(suite, capsys):
    argv = ["experiment" if suite == "density" else "verify", suite]
    for k in sorted(SUITE_PARAMS[suite].keys() & experiments.PARAM_LEAST.keys()):
        argv += [f"--{k.replace('_', '-')}", str(experiments.PARAM_LEAST[k])]
    assert main(argv + ["--trials", "2", "--seed", "1"]) == 0
    assert "2 passed, 0 failed" in capsys.readouterr().out


def test_config_types_primes_from_json():
    cfg = ExperimentConfig(suite="grid-fix", primes={"prefix": [5]}, trials="3")
    assert cfg.primes == PrimeSequence([5])
    assert cfg.trials == 3


class _ReadLog(dict):
    """Params that record the names a trial reads."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("suite", sorted(SUITE_PARAMS))
def test_trials_read_exactly_the_declared_params(suite):
    # a param that is declared but never read, or read but never
    # declared, fails here
    trial = experiments._t_density if suite == "density" else VERIFY_SUITES[suite]
    cfg = cfg_for(suite, seed=4)
    log = cfg.params = _ReadLog(cfg.params)
    for i in range(2):
        trial(cfg, derive_rng(cfg.seed, suite, i))
    assert log.read == set(SUITE_PARAMS[suite])


# ---------------------------------------------------------------- campaigns


@pytest.mark.parametrize("suite", sorted(VERIFY_SUITES))
def test_each_suite_passes_a_short_campaign(suite):
    report = run_verify_suite(cfg_for(suite, trials=3, seed=2024))
    assert report.all_ok()
    assert report.passed == 3
    assert len(report.outcomes) == 3


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_verify_suite(cfg_for("nonsense"))


def test_reports_are_reproducible_modulo_timing():
    a = run_verify_suite(cfg_for("mod-bound", trials=4, seed=7, primes=ALL2))
    b = run_verify_suite(cfg_for("mod-bound", trials=4, seed=7, primes=ALL2))
    assert a.to_json(with_timing=False) == b.to_json(with_timing=False)
    with_t = json.loads(a.to_json(with_timing=True))
    assert "elapsed_seconds" in with_t
    assert all("seconds" in t for t in with_t["trials"])
    without = json.loads(a.to_json(with_timing=False))
    assert "elapsed_seconds" not in without
    assert all("seconds" not in t for t in without["trials"])
    assert all(set(t["details"]) == {"n", "eps", "upper"} for t in without["trials"])


def test_trial_streams_are_splittable():
    # replaying one trial index reproduces the full campaign's outcome
    full = run_verify_suite(cfg_for("separation", trials=5, seed=31))
    solo_cfg = cfg_for(
        "separation", trials=5, seed=31, params={"replay_trial": 3}
    )
    solo = run_verify_suite(solo_cfg)
    assert len(solo.outcomes) == 1
    assert solo.outcomes[0].index == 3
    assert solo.outcomes[0].details == full.outcomes[3].details


def test_failed_trials_are_reported_and_replayable(monkeypatch):
    def flaky(cfg, rng):
        x = rng.random()
        if x < 0.5:
            raise CounterexampleError("synthetic failure", {"x": round(x, 3)})
        return {"x": round(x, 3)}

    monkeypatch.setitem(VERIFY_SUITES, "grid-fix", flaky)
    report = run_verify_suite(cfg_for("grid-fix", trials=20, seed=1))
    assert 0 < report.failed < 20
    bad = next(o for o in report.outcomes if not o.ok)
    assert bad.details["error"] == "synthetic failure"
    assert "diagnostics" in bad.details

    replay = ExperimentConfig.from_json_dict(replay_config(report, bad.index))
    rerun = run_verify_suite(replay)
    assert len(rerun.outcomes) == 1
    assert not rerun.outcomes[0].ok
    assert rerun.outcomes[0].details == bad.details


def test_semiconj_suite_runs_the_library_check(monkeypatch):
    # the suite must fail when tents.verify_semiconjugacy does, at d = 2
    checked = []

    def fails_at_two(g, d):
        checked.append(d)
        return d != 2

    monkeypatch.setattr(experiments, "verify_semiconjugacy", fails_at_two)
    report = run_verify_suite(cfg_for("semiconj", trials=2, seed=1))
    assert report.failed == 2
    assert checked == [1, 2, 1, 2]
    for o in report.outcomes:
        assert o.details["error"] == "semiconjugacy identity failed"
        assert o.details["diagnostics"]["d"] == 2


def test_semiconj_keeps_few_tents_cached():
    # the sweep d = 1..d_max builds tent(d) for each d; the cache must not
    # keep them all
    tents.tent.cache_clear()
    report = run_verify_suite(cfg_for("semiconj", trials=1, params={"d_max": 300}))
    assert report.all_ok()
    info = tents.tent.cache_info()
    assert info.misses == 300
    assert info.currsize <= info.maxsize <= 64


def test_render_table_mentions_counts():
    report = run_verify_suite(cfg_for("grid-fix", trials=2, seed=9))
    text = render_table(report)
    assert "2 passed, 0 failed" in text
    assert "trial    0" in text


# ------------------------------------------------------------------ density


def test_proof_slack_sum_frozen():
    assert proof_slack_sum(1, ALL2) == 1
    assert proof_slack_sum(2, ALL2) == F(5, 2)
    assert proof_slack_sum(2, DIAG) == F(5, 2)
    assert proof_slack_sum(3, ALL2) == F(21, 4)


def test_density_all_trials_certify():
    report = run_density_experiment(
        cfg_for("density", trials=6, seed=3, params={"m": 1, "eta": "1/4"})
    )
    assert report.all_ok()
    eta = F(1, 4)
    for o in report.outcomes:
        assert set(o.details) == {
            "m", "eta", "eps", "signs", "sup_gap", "orbit_steps", "lower", "upper"
        }
        assert o.details["eps"] == "1/16"
        lower = parse_rational(o.details["lower"])
        upper = parse_rational(o.details["upper"])
        assert upper - lower < eta / 2
        assert upper < eta


def test_density_coordinate_two():
    report = run_density_experiment(
        cfg_for(
            "density",
            trials=3,
            seed=11,
            primes=ALL2,
            params={"m": 2, "eta": "1/4"},
        )
    )
    assert report.all_ok()
    assert all(o.details["eps"] == "1/40" for o in report.outcomes)


def test_density_reads_the_lifted_signature_once(monkeypatch):
    # fm's signs come from f0's by the block-sum law; only the synthesis
    # makes a fixed-point pass over fm, and the signs it finds agree
    from knaster_lab import _kernel_py
    from knaster_lab.signatures import signature, signature_to_string

    lifted = []
    passes = []
    real_lift = experiments.lift
    real_fixed = _kernel_py.fixed_structure

    def spy_lift(*args):
        out = real_lift(*args)
        lifted.append(out.inducer)
        return out

    def spy_fixed(bps):
        passes.append(bps)
        return real_fixed(bps)

    monkeypatch.setattr(experiments, "lift", spy_lift)
    monkeypatch.setattr(_kernel_py, "fixed_structure", spy_fixed)
    report = run_density_experiment(
        cfg_for("density", trials=3, seed=11, primes=ALL2, params={"m": 2})
    )
    assert report.all_ok()
    assert len(lifted) == 3
    monkeypatch.undo()
    for fm, o in zip(lifted, report.outcomes):
        assert sum(bps is fm._kbps for bps in passes) == 1
        assert o.details["signs"] == signature_to_string(signature(fm))


def test_density_self_check_reports_a_failed_trial(monkeypatch):
    # a diag_dist that reports eta itself must fail the trial, not pass it
    def too_far(a, b, N, P):
        return CertifiedDistance(F(0), F(1, 4), N, None)

    monkeypatch.setattr(experiments, "diag_dist", too_far)
    report = run_density_experiment(
        cfg_for("density", trials=2, seed=3, params={"m": 1, "eta": "1/4"})
    )
    assert report.failed == 2
    for o in report.outcomes:
        assert not o.ok
        assert "under eta" in o.details["error"]
        assert o.details["diagnostics"] == {"upper": "1/4"}


def test_run_suite_dispatches_density():
    report = run_suite(cfg_for("density", trials=1, seed=1, params={"m": 1}))
    assert report.suite == "density"
    report = run_suite(cfg_for("grid-fix", trials=1, seed=1))
    assert report.suite == "grid-fix"
