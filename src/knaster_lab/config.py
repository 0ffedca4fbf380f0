"""Experiment configuration: one config fully determines a campaign.

Configs serialize to JSON with every rational as a "p/q" string.
KNASTER_LAB_SEED, when set, replaces the seed from any source as the
config is built, so reports record it. Command-line flags override file
values field by field. A key other than the fields below is refused.
experiments.SUITE_PARAMS declares the params.
"""

import json
import os
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .knaster import PrimeSequence
from .rational import format_rational

SEED_ENV_VAR = "KNASTER_LAB_SEED"


@dataclass
class ExperimentConfig:
    suite: str
    primes: PrimeSequence = field(default_factory=lambda: PrimeSequence("diagonal"))
    trials: int = 20
    seed: int = 0
    params: dict = field(default_factory=dict)
    output: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trial count must be positive")
        env = os.environ.get(SEED_ENV_VAR)
        if env:
            self.seed = int(env)

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
        return cls(
            suite=data["suite"],
            primes=PrimeSequence.from_json_dict(data.get("primes", "diagonal")),
            trials=int(data.get("trials", 20)),
            seed=int(data.get("seed", 0)),
            params=dict(data.get("params", {})),
            output=data.get("output"),
        )

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def radius_schedule(delta, j, n, P):
    """Per-coordinate radii: delta at j, then delta/(p_{j+1}...p_m).

    This is the schedule under which the lower-bound campaign perturbs
    coordinate m inducers while keeping the coordinate-j gap pinned.
    """
    delta = Fraction(delta)
    out = [(j, delta)]
    for m in range(j + 1, n + 1):
        out.append((m, delta / P.product(j + 1, m)))
    return out
