"""CLI surface: subcommand wiring, exit codes, JSON I/O, replay files."""

import json
from pathlib import Path

import pytest

import knaster_lab._kernel_py as _k
import knaster_lab.conjugator as conjugator
import knaster_lab.knaster as kn
from knaster_lab.cli import main
from knaster_lab import experiments
from knaster_lab.experiments import SUITE_PARAMS, VERIFY_SUITES
from knaster_lab.lemmas import CounterexampleError


def write_map(path, points):
    data = {"kind": "homeo", "breakpoints": [[a, b] for a, b in points]}
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def maps(tmp_path):
    return {
        "id": write_map(tmp_path / "id.json", [("0", "0"), ("1", "1")]),
        "bump": write_map(
            tmp_path / "bump.json", [("0", "0"), ("1/2", "3/4"), ("1", "1")]
        ),
        "dir": tmp_path,
    }


def test_pl_dist_prints_exact_rational(maps, capsys):
    assert main(["pl", "dist", "-f", maps["id"], "-g", maps["bump"]]) == 0
    assert capsys.readouterr().out.strip() == "1/4"


def test_pl_eval_and_degree(maps, capsys):
    assert main(["pl", "eval", "-f", maps["bump"], "-x", "1/2"]) == 0
    assert capsys.readouterr().out.strip() == "3/4"
    assert main(["pl", "degree", "-f", maps["bump"]]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_pl_compose_invert_reflect_files(maps, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(["pl", "compose", "-f", maps["bump"], "-g", maps["id"], "-o", str(out)]) == 0
    assert json.loads(out.read_text())["kind"] == "homeo"
    assert main(["pl", "invert", "-f", maps["bump"]]) == 0
    data = json.loads(capsys.readouterr().out)
    assert ["3/4", "1/2"] in data["breakpoints"]
    assert main(["pl", "reflect", "-f", maps["bump"]]) == 0
    data = json.loads(capsys.readouterr().out)
    assert ["1/2", "1/4"] in data["breakpoints"]


def test_tent_group(maps, tmp_path, capsys):
    t2 = tmp_path / "t2.json"
    assert main(["tent", "build", "-d", "2", "-o", str(t2)]) == 0
    assert json.loads(t2.read_text())["breakpoints"] == [
        ["0", "0"],
        ["1/2", "1"],
        ["1", "0"],
    ]
    assert main(["tent", "semiconj", "-f", maps["bump"], "-d", "3"]) == 0
    capsys.readouterr()
    f2 = tmp_path / "f2.json"
    assert main(["pl", "compose", "-f", str(t2), "-g", maps["bump"], "-o", str(f2)]) == 0
    h = tmp_path / "h.json"
    assert main(["tent", "straighten", "-f", str(f2), "-g", str(t2), "-o", str(h)]) == 0
    assert json.loads(h.read_text())["breakpoints"] == [
        ["0", "0"],
        ["1/2", "3/4"],
        ["1", "1"],
    ]
    assert main(["tent", "oplus", "-f", maps["bump"], "-d", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert ["1/4", "3/8"] in data["breakpoints"]


def test_tent_oplus_of_a_map_moving_an_end_exits_two(tmp_path, capsys):
    # tent(2) sends 1 to 0, so its blocks would not meet at the seams
    t2 = tmp_path / "t2.json"
    assert main(["tent", "build", "-d", "2", "-o", str(t2)]) == 0
    assert main(["tent", "oplus", "-f", str(t2), "-d", "3"]) == 2
    assert "fixing 0 and 1" in capsys.readouterr().err


def test_conj_group(maps, tmp_path, capsys):
    assert main(["conj", "signature", "-f", maps["bump"]]) == 0
    assert capsys.readouterr().out.strip() == "+"
    assert main(["conj", "signature", "-f", maps["id"]]) == 0
    assert capsys.readouterr().out.strip() == "(none)"
    assert main(["conj", "decide", "-f", maps["bump"], "-g", maps["id"]]) == 0
    assert capsys.readouterr().out.strip() == "not conjugate"
    g2 = write_map(tmp_path / "g2.json", [("0", "0"), ("1/4", "1/2"), ("1", "1")])
    assert main(["conj", "decide", "-f", maps["bump"], "-g", g2]) == 0
    assert capsys.readouterr().out.strip() == "conjugate"
    cert = tmp_path / "cert.json"
    rc = main(
        ["conj", "synthesize", "-f", maps["bump"], "-g", g2, "--eta", "1/100", "-o", str(cert)]
    )
    assert rc == 0
    assert json.loads(cert.read_text())["ok"] is True


def test_conj_decide_tells_a_fixed_interval_from_a_fixed_point(tmp_path, capsys):
    # both maps read +-, but the first fixes all of [1/3, 2/3] and the
    # second only 1/2
    f = write_map(tmp_path / "f.json", [("0", "0"), ("1/6", "1/4"), ("1/3", "1/3"),
                                        ("2/3", "2/3"), ("5/6", "3/4"), ("1", "1")])
    g = write_map(tmp_path / "g.json", [("0", "0"), ("1/4", "3/8"), ("1/2", "1/2"),
                                        ("3/4", "5/8"), ("1", "1")])
    for a, b in ((f, g), (g, f)):
        assert main(["conj", "decide", "-f", a, "-g", b]) == 0
        assert capsys.readouterr().out.strip() == "not conjugate"
        cert = tmp_path / "cert.json"
        assert main(["conj", "synthesize", "-f", a, "-g", b, "--eta", "1/1000",
                     "-o", str(cert)]) == 0
        assert json.loads(cert.read_text())["ok"] is True


def test_conj_synthesize_rejects_nonconjugate(maps, capsys):
    rc = main(["conj", "synthesize", "-f", maps["bump"], "-g", maps["id"]])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_conj_synthesize_postchecks_once(maps, tmp_path, monkeypatch):
    # the certificate reuses the distance the post-check computed, and the
    # post-check is one compose_pair_sup walk with no sup_dist of a built
    # conjugate
    calls = []
    real = _k.compose_pair_sup

    def counted(f1, g1, f2, g2):
        calls.append(1)
        return real(f1, g1, f2, g2)

    def refused(f, g):
        raise AssertionError("synthesis must not call sup_dist")

    monkeypatch.setattr(_k, "compose_pair_sup", counted)
    monkeypatch.setattr(conjugator, "sup_dist", refused)
    g2 = write_map(tmp_path / "g2.json", [("0", "0"), ("1/4", "1/2"), ("1", "1")])
    cert = tmp_path / "cert.json"
    rc = main(
        ["conj", "synthesize", "-f", maps["bump"], "-g", g2, "--eta", "1/100", "-o", str(cert)]
    )
    assert rc == 0
    assert json.loads(cert.read_text())["ok"] is True
    assert len(calls) == 1


def test_conj_synthesize_reports_conjugator_size(maps, tmp_path):
    # breakpoints and the longest denominator of h, deterministic, so two
    # runs write the same certificate
    g2 = write_map(tmp_path / "g2.json", [("0", "0"), ("1/4", "1/2"), ("1", "1")])
    texts = []
    for name in ("a.json", "b.json"):
        cert = tmp_path / name
        argv = ["conj", "synthesize", "-f", maps["bump"], "-g", g2, "--eta", "1/1000"]
        assert main(argv + ["-o", str(cert)]) == 0
        texts.append(cert.read_text())
    assert texts[0] == texts[1]
    data = json.loads(texts[0])
    points = data["conjugator"]["breakpoints"]
    assert data["breakpoints"] == len(points) > 2
    dens = [int(v.partition("/")[2] or 1) for point in points for v in point]
    assert data["max_den_bits"] == max(dens).bit_length() > 1
    assert data["orbit_steps"] > 0


def test_conj_blockwise_against_a_conjugate_is_not_the_identity(maps, tmp_path):
    # the target's blocks are c = φ⁻¹∘bump∘φ, built from files as the CI
    # step builds them, so no block takes approx_conjugator's f == g
    # shortcut and the blockwise conjugator moves points
    d = maps["dir"]
    phi = write_map(d / "phi.json", [("0", "0"), ("1/3", "1/2"), ("1", "1")])
    steps = [
        ["pl", "invert", "-f", phi, "-o", str(d / "phiinv.json")],
        ["pl", "compose", "-f", maps["bump"], "-g", phi, "-o", str(d / "bumpphi.json")],
        ["pl", "compose", "-f", str(d / "phiinv.json"), "-g", str(d / "bumpphi.json"),
         "-o", str(d / "c.json")],
        ["tent", "oplus", "-f", str(d / "c.json"), "-d", "2", "-o", str(d / "c2.json")],
        ["conj", "blockwise", "-f", maps["bump"], "-d", "2", "--target", str(d / "c2.json"),
         "-o", str(d / "blockwise.json")],
    ]
    for argv in steps:
        assert main(argv) == 0
    c = json.loads((d / "c.json").read_text())["breakpoints"]
    assert c != [["0", "0"], ["1/2", "3/4"], ["1", "1"]]
    # the identity has two breakpoints
    assert len(json.loads((d / "blockwise.json").read_text())["breakpoints"]) > 2


@pytest.mark.parametrize("d", ["0", "-2"])
def test_conj_degree_below_one_exits_two(maps, tmp_path, capsys, d):
    target = tmp_path / "target.json"
    assert main(["tent", "oplus", "-f", maps["bump"], "-d", "2", "-o", str(target)]) == 0
    capsys.readouterr()
    assert main(
        ["conj", "blockwise", "-f", maps["bump"], "-d", d, "--target", str(target)]
    ) == 2
    assert "degree must be a positive integer" in capsys.readouterr().err


def test_knaster_group(maps, tmp_path, capsys):
    pt = tmp_path / "pt.json"
    assert main(
        ["knaster", "point", "-x", "1/2", "-n", "2", "--primes", "all2", "-o", str(pt)]
    ) == 0
    assert json.loads(pt.read_text()) == {"coords": ["0", "1", "1/2"]}
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"coords": ["0", "0", "0"]}))
    assert main(
        ["knaster", "dist", "-x", str(pt), "-y", str(zero), "--primes", "all2"]
    ) == 0
    dist = json.loads(capsys.readouterr().out)
    assert dist["lower"] == "5/8"
    assert dist["upper"] == "7/8"
    assert dist["N"] == 2
    lifted = tmp_path / "lift.json"
    assert main(
        ["knaster", "lift", "-f", maps["bump"], "--coord", "0", "--to", "1",
         "--primes", "all2", "-o", str(lifted)]
    ) == 0
    data = json.loads(lifted.read_text())
    assert data["base_coord"] == 1
    assert main(
        ["knaster", "evaldiag", "-f", str(lifted), "-x", str(pt), "--primes", "all2"]
    ) == 0
    assert json.loads(capsys.readouterr().out) == {"coords": ["0", "1", "1/2"]}


def test_knaster_point_refuses_a_deep_stalk_up_front(monkeypatch, capsys):
    def refuse(*_):
        raise AssertionError("folded a stalk past the size guard")

    monkeypatch.setattr(kn, "_stalk", refuse)
    assert main(["knaster", "point", "-x", "1/2", "-n", "10000000"]) == 2
    assert "a stalk of truncation 10000000" in capsys.readouterr().err


def test_knaster_point_refuses_a_deep_stalk_before_any_prefix(monkeypatch, capsys):
    # the schedule's prefix p_1...p_n is the first thing a stalk of n
    # levels builds, so the size guard must come before it
    def refuse(*_):
        raise AssertionError("formed a prefix of the schedule past the size guard")

    monkeypatch.setattr(kn, "_stalk", refuse)
    monkeypatch.setattr(kn.PrimeSequence, "prefix", refuse)
    assert main(["knaster", "point", "-x", "1/2", "-n", "10000000"]) == 2
    assert "a stalk of truncation 10000000" in capsys.readouterr().err


def test_verify_exit_zero_and_report_file(maps, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(
        ["verify", "semiconj", "--trials", "5", "--d-max", "4", "--seed", "1",
         "--output", str(out)]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "5 passed, 0 failed" in text
    report = json.loads(out.read_text())
    assert report["summary"] == {"trials": 5, "passed": 5, "failed": 0}


def test_verify_tent_witness_spec_invocation(capsys):
    rc = main(
        ["verify", "tent-witness", "--delta", "1/5", "--d", "2",
         "--trials", "25", "--seed", "7"]
    )
    assert rc == 0
    assert "25 passed, 0 failed" in capsys.readouterr().out


@pytest.mark.parametrize("seed", range(1, 9))
def test_verify_semiconj_refuses_more_breakpoints_than_the_grid(seed, capsys):
    # the 1/64 grid holds 63 interior points; the refusal must not wait for
    # a draw above that, so every seed exits 2
    args = ["verify", "semiconj", "--trials", "3", "--seed", str(seed)]
    assert main(args + ["--max-breakpoints", "70"]) == 2
    assert "grid too coarse" in capsys.readouterr().err
    assert main(args + ["--max-breakpoints", "63"]) == 0


def test_campaign_config_with_unknown_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "grid-fix", "trails": 3}))
    assert main(["verify", "grid-fix", "--config", str(cfg)]) == 2
    assert "unknown config keys: trails" in capsys.readouterr().err
    cfg.write_text(json.dumps({"suite": "grid-fix", "trials": 3}))
    assert main(["verify", "grid-fix", "--config", str(cfg)]) == 0
    assert "3 trials" in capsys.readouterr().out


def test_density_refuses_unknown_target(tmp_path, capsys):
    # density takes no target: its identity target only certified 0 <= 0
    argv = ["experiment", "density", "--trials", "1", "--seed", "1"]
    for target in ("idnetity", "identity"):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--target", target])
        assert exc.value.code == 2
        assert "--target" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "density", "params": {"target": "identity"}}))
    assert main(argv + ["--config", str(cfg)]) == 2
    assert "takes no param target" in capsys.readouterr().err


@pytest.mark.parametrize(
    "file_suite, suite, params, message",
    [
        ("tent-witness", "tent-witness", {"detla": "1/7"}, "takes no param detla"),
        ("mod-bound", "mod-bound", {"eps": 0.1}, "param eps takes"),
        ("mod-bound", "semiconj", {"eps": "1/50", "n_max": 2}, "takes no param eps, n_max"),
        ("grid-fix", "grid-fix", {"d_max": "3.5"}, "param d_max takes an integer"),
        ("grid-fix", "grid-fix", {"d_max": True}, "param d_max takes an integer"),
    ],
)
def test_campaign_config_with_bad_params_exits_two(
    tmp_path, capsys, file_suite, suite, params, message
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": file_suite, "trials": 2, "params": params}))
    assert main(["verify", suite, "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


def test_campaign_flag_of_wrong_type_exits_two(capsys):
    assert main(["verify", "mod-bound", "--eps", "0.1", "--trials", "1"]) == 2
    assert main(["verify", "grid-fix", "--d-max", "x", "--trials", "1"]) == 2
    assert "param d_max takes an integer" in capsys.readouterr().err


def test_report_records_resolved_params(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["verify", "tent-witness", "--trials", "1", "--delta", "2/10",
               "--output", str(out)])
    assert rc == 0
    config = json.loads(out.read_text())["config"]
    assert config["params"] == {"delta": "1/5", "d": None}


def test_campaign_help_shows_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "tent-witness", "-h"])
    text = " ".join(capsys.readouterr().out.split())
    assert "--delta DELTA default 1/5" in text
    assert "--d D default drawn per trial" in text


def test_verify_tent_witness_refuses_method_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "tent-witness", "--method", "trace"])
    assert exc.value.code == 2
    assert "--method" in capsys.readouterr().err


def test_usage_errors_exit_two(maps, tmp_path, capsys):
    assert main(["pl", "dist", "-f", "missing.json", "-g", maps["id"]]) == 2
    assert main(["pl", "eval", "-f", maps["bump"], "-x", "nonsense"]) == 2
    # degree needs a typed map
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"breakpoints": [["0", "0"], ["1", "1"]]}))
    assert main(["pl", "degree", "-f", str(plain)]) == 2
    assert "usage error" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-suite"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["pl"])
    assert exc.value.code == 2


def test_verify_failure_writes_replay_file(tmp_path, monkeypatch, capsys):
    def rigged(cfg, rng):
        rng.random()
        if rng.random() < 0.6:
            raise CounterexampleError("rigged failure", {"note": "planted"})
        return {"note": "fine"}

    monkeypatch.setitem(VERIFY_SUITES, "grid-fix", rigged)
    monkeypatch.chdir(tmp_path)
    rc = main(["verify", "grid-fix", "--trials", "6", "--seed", "12"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "replay file written to" in err
    replays = sorted(tmp_path.glob("grid-fix-replay-trial*.json"))
    assert replays
    data = json.loads(replays[0].read_text())
    assert "replay_trial" in data["params"]

    rc = main(["verify", "grid-fix", "--config", str(replays[0])])
    assert rc == 1
    out = capsys.readouterr().out
    assert "rigged failure" in out
    assert "1 failed" in out


def test_experiment_density_cli(capsys):
    rc = main(
        ["experiment", "density", "--m", "1", "--eta", "1/4",
         "--trials", "3", "--seed", "3"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "3 passed, 0 failed" in out
    assert "eps=1/16" in out


@pytest.mark.parametrize(
    "argv, d_max",
    [
        # (max_breakpoints + 1)·d_max + 1 = 13·76923 + 1 is the limit itself
        (["verify", "semiconj"], 76923),
        (["verify", "semiconj", "--max-breakpoints", "1"], 499999),
        # 9·d_max + 1 for the suites that draw with 8 interior breakpoints
        (["verify", "oplus-scaling"], 111111),
        (["verify", "grid-fix"], 111111),
        (["verify", "signature-laws"], 111111),
    ],
)
@pytest.mark.parametrize("seed", range(1, 6))
def test_suites_refuse_a_large_d_max_before_the_first_draw(
    argv, d_max, seed, monkeypatch, capsys
):
    def refuse(*_):
        raise AssertionError("drew a map")

    monkeypatch.setattr(experiments, "rand_homeo", refuse)
    argv = argv + ["--seed", str(seed), "--trials", "2", "--d-max"]
    assert main(argv + [str(d_max + 1)]) == 2
    assert f"oplus_power of degree {d_max + 1} needs up to" in capsys.readouterr().err
    # at the limit the guard passes, and the first draw is reached
    with pytest.raises(AssertionError, match="drew a map"):
        main(argv + [str(d_max)])


@pytest.mark.parametrize(
    "m, k",
    [
        # 2·k·p_1...p_m + 1 on the diagonal schedule (p_1...p_m = 2, 4, 12)
        # is within the limit, and one more interval passes it
        (1, 249999),
        (2, 124999),
        (3, 41666),
    ],
)
@pytest.mark.parametrize("seed", range(1, 4))
def test_density_refuses_a_large_generic_k_before_the_first_draw(
    m, k, seed, monkeypatch, capsys
):
    def refuse(*_):
        raise AssertionError("drew a map")

    monkeypatch.setattr(experiments, "pseudo_generic", refuse)
    monkeypatch.setattr(experiments, "rand_signature_homeo", refuse)
    argv = ["experiment", "density", "--m", str(m), "--seed", str(seed),
            "--trials", "2", "--generic-k"]
    assert main(argv + [str(k + 1)]) == 2
    assert f"a {k + 1}-interval generic map lifted" in capsys.readouterr().err
    # at the limit the guard passes, and the first draw is reached
    with pytest.raises(AssertionError, match="drew a map"):
        main(argv + [str(k)])


def test_density_refuses_m_below_one_before_the_first_draw(monkeypatch, capsys):
    # proof_slack_sum(0, P) is the empty sum, so m = 0 has no epsilon
    def refuse(*_):
        raise AssertionError("drew a map")

    monkeypatch.setattr(experiments, "pseudo_generic", refuse)
    monkeypatch.setattr(experiments, "rand_signature_homeo", refuse)
    argv = ["experiment", "density", "--trials", "1", "--m"]
    for m in ("0", "-1"):
        assert main(argv + [m]) == 2
        err = capsys.readouterr().err
        assert "must be at least 1" in err
        assert "Traceback" not in err
    with pytest.raises(AssertionError, match="drew a map"):
        main(argv + ["1"])


def test_campaign_rejects_nonpositive_trials(tmp_path, capsys):
    assert main(["verify", "grid-fix", "--trials", "0"]) == 2
    assert "trial count must be positive" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "grid-fix", "trials": 3}))
    assert main(["verify", "grid-fix", "--config", str(cfg), "--trials", "-1"]) == 2
    assert main(["experiment", "density", "--trials", "0"]) == 2


def test_single_prime_schedule(tmp_path, capsys):
    assert main(["knaster", "point", "-x", "1/2", "-n", "1", "--primes", "5"]) == 0
    assert json.loads(capsys.readouterr().out) == {"coords": ["1/2", "1/2"]}
    out = tmp_path / "report.json"
    rc = main(["verify", "grid-fix", "--trials", "2", "--primes", "5",
               "--output", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["config"]["primes"] == {"prefix": [5]}
    assert main(["knaster", "point", "-x", "1/2", "-n", "1", "--primes", "4"]) == 2


def test_shared_parser_matches_fresh_parsers(maps, capsys):
    """main() reuses one parser; no call may see another call's arguments."""
    from knaster_lab import cli

    runs = [
        ["pl", "dist", "-f", maps["id"], "-g", maps["bump"]],
        ["verify", "grid-fix", "--trials", "2", "--seed", "3", "--d-max", "3"],
        ["verify", "semiconj", "--trials", "2", "--seed", "3"],
    ]

    def run_all():
        results = []
        for argv in runs:
            rc = main(argv)
            results.append((rc, capsys.readouterr().out))
        return results

    first = run_all()
    with pytest.raises(SystemExit) as exc:
        main(["pl", "eval", "-f", maps["bump"]])  # -x missing
    assert exc.value.code == 2
    capsys.readouterr()
    assert run_all() == first
    assert [rc for rc, _ in first] == [0, 0, 0]
    assert cli._parser() is cli._parser()
    for argv in runs:
        assert vars(cli._parser().parse_args(argv)) == vars(
            cli.build_parser().parse_args(argv)
        )


def test_every_verify_suite_has_a_subcommand():
    from knaster_lab import cli

    assert set(SUITE_PARAMS) == set(VERIFY_SUITES) | {"density"}
    for name, params in SUITE_PARAMS.items():
        argv = ["experiment", "density"] if name == "density" else ["verify", name]
        args = cli._parser().parse_args(argv)
        assert args.suite == name
        assert all(getattr(args, p) is None for p in params)
        flags = [f"--{p.replace('_', '-')}" for p in params]
        args = cli._parser().parse_args(argv + [a for f in flags for a in (f, "1")])
        assert all(getattr(args, p) == "1" for p in params)


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_campaign_sessions():
    """(argv, printed table) of each README shell block running a campaign."""
    sessions = []
    for block in README.read_text().split("```sh\n")[1:]:
        command, *output = block.split("```")[0].splitlines()
        argv = command.split()[2:]
        if command.startswith("$ knaster-lab ") and argv[0] in ("verify", "experiment"):
            sessions.append((argv, "\n".join(output)))
    return sessions


def test_readme_campaign_sessions_replay(capsys):
    sessions = _readme_campaign_sessions()
    assert [argv for argv, _ in sessions] == [
        ["verify", "tent-witness", "--trials", "5", "--seed", "42"],
        ["experiment", "density", "--m", "1", "--trials", "2", "--seed", "7"],
    ]
    for argv, table in sessions:
        assert main(argv) == 0
        assert capsys.readouterr().out == table + "\n"
