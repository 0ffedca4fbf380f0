"""Self-test of the benchmark: the gate catches wrong answers, names match.

    python3 -m pytest perfbench -q

Each workload gets one injected wrong answer, which its gate and the
reference digest must both reject. The metric names the benchmark prints
must be exactly those in BENCHMARK.json, and the benchmark must refuse to
run, printing no result, where the program is missing.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from knaster_lab import experiments, knaster  # noqa: E402
from knaster_lab.plmap import identity, sup_dist  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())


def _bench(workdir, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=workdir, capture_output=True, text=True, timeout=170,
    )


def test_tower_gate_catches_raised_lower_bound(tmp_path, monkeypatch):
    wl = workloads.Tower(3, cycles=1)
    op = next(op for op in wl.cycles[0] if op.N == 4)
    d = wl.run(op)
    assert wl.check(op, d)[0] is None
    bumped = knaster.CertifiedDistance(
        d.lower + Fraction(1, 2**40), d.upper, d.truncation, d.witness)
    assert wl.check(op, bumped)[0] is not None
    loose = knaster.CertifiedDistance(
        d.lower, d.lower + 2 * knaster.PrimeSequence(op.schedule).tail_bound(op.N),
        d.truncation, d.witness)
    assert wl.check(op, loose)[0] is not None

    real = knaster.diag_dist

    def wrong(F, G, N, P):
        d = real(F, G, N, P)
        return knaster.CertifiedDistance(
            d.lower + Fraction(1, 2**40), d.upper + Fraction(1, 2**40), N, d.witness)

    monkeypatch.setattr(knaster, "diag_dist", wrong)
    digest, gate = worker.reference_digest(workloads.Tower, tmp_path)
    assert gate.failed > 0
    assert digest != EXPECTED["tower"]


def test_synthesis_gate_catches_identity_conjugator(tmp_path, monkeypatch):
    wl = workloads.Synthesis(3, regular=4, squeeze=1, grid=2)
    for op in wl.ops:
        assert wl.check(op, wl.run(op))[0] is None
    op = next(op for op in wl.ops
              if op.kind == "approx" and sup_dist(op.f, op.g) >= op.eta)
    assert wl.check(op, identity())[0] is not None

    monkeypatch.setattr(workloads.conjugator, "approx_conjugator",
                        lambda f, g, eta: identity())
    digest, gate = worker.reference_digest(workloads.Synthesis, tmp_path)
    assert gate.failed > 0
    assert digest != EXPECTED["synthesis"]


def test_campaign_gate_catches_failed_trial(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = workloads.Campaigns(3, tmp_path, trials=2)
    op = wl.cycle(0)[0]
    assert wl.check(op, wl.run(op))[0] is None

    def failing(cfg, rng):
        raise experiments.CheckFailure("injected failure", {})

    monkeypatch.setitem(experiments.VERIFY_SUITES, "grid-fix", failing)
    op = workloads.CampaignOp(["verify", "grid-fix", "--seed", "1", "--trials", "2"], 2)
    rc = wl.run(op)
    assert rc == 1
    assert wl.check(op, rc)[0] is not None
    assert not list(tmp_path.glob("*-replay-*.json"))
    digest, gate = worker.reference_digest(workloads.Campaigns, tmp_path)
    assert gate.failed > 0
    assert digest != EXPECTED["campaigns"]


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_reference_digest_matches(tmp_path, monkeypatch, workload):
    monkeypatch.chdir(tmp_path)
    digest, gate = worker.reference_digest(workloads.WORKLOADS[workload], tmp_path)
    assert gate.failed == 0, gate.problems
    assert digest == EXPECTED[workload]


def test_speed_factor_uses_the_samples_near_an_operation():
    sp = speed.Speedometer()
    sp.times = [0.0, 1.0, 1.1, 1.2, 5.0]
    sp.loops = [1.0, 0.002, 0.004, 0.006, 1.0]
    assert sp.factor(1.05, 1.15) == speed.REFERENCE_LOOP_S / 0.004
    # a stretch with no sample within the window takes the nearest on each side
    assert sp.factor(2.0, 3.0) == speed.REFERENCE_LOOP_S / ((0.006 + 1.0) / 2)


def test_layer_specs_match_benchmark_json():
    want = [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]]
    assert tracer.layer_metric_specs() == want


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = _bench(ROOT, "--workload", "campaigns", "--seed", "1",
                  "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCH[section]}
    if trace:
        assert result["metrics"]["cli.main.calls"]["value"] > 0


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "tower", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
