"""The benchmark's workloads: fixed lists of CLI operations built from a seed.

A pass runs every operation of a workload once, in list order. The seed
moves windows and hole patterns by small amounts, so inputs change from
seed to seed while the work per pass stays the same size.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import List, Optional

FIB = {"set": "fibonacci", "params": {}}
CUT = {"set": "cut_project", "params": {"alpha": "golden"}}
BEATTY = {"set": "beatty", "params": {"alpha": "golden", "tau": math.sqrt(2.0)}}
Z1 = {"set": "zn", "params": {"n": 1}}
FIBXFIB = {"set": "product", "params": {"factors": [{"set": "fibonacci"}, {"set": "fibonacci"}]}}
LINES = {"set": "deleted_lines", "params": {"a": [2, 10]}}

FAR_START = 300_000  # "a few 1e5 units from the origin"
FAR_LENGTH = 4_000


@dataclass
class Op:
    """One CLI invocation and what its artifact is checked against."""

    name: str
    command: str
    source: dict  # {"set": ..., "params": {...}}
    window: list  # box intervals
    extra: List[str] = field(default_factory=list)
    T: Optional[List[float]] = None
    expect_fail: bool = False  # a known fault: counted as failed, never timed

    def argv(self, seed: int) -> List[str]:
        args = [
            self.command,
            "--set", self.source["set"],
            "--params", json.dumps(self.source["params"], sort_keys=True),
            "--window", json.dumps({"kind": "box", "intervals": self.window}),
            "--seed", str(seed),
        ]
        if self.T is not None:
            args += ["--T", ",".join(repr(t) for t in self.T)]
        return args + self.extra

    def describe(self) -> dict:
        return {
            "op": self.name,
            "command": self.command,
            "set": self.source["set"],
            "params": self.source["params"],
            "window": self.window,
            "T": self.T,
            "extra": self.extra,
            "expect_fail": self.expect_fail,
        }


def _box(center, half):
    return [[c - half, c + half] for c in center]


def chains_1d(seed: int) -> List[Op]:
    rng = random.Random("chains-1d/%d" % seed)
    far_a = FAR_START + rng.randrange(0, 2_000)
    far = [[far_a, far_a + FAR_LENGTH]]
    j = rng.randrange(-20, 21)  # shifts the origin windows; 0 stays inside

    def origin(half):
        return [[j - half, j + half]]

    T_sweep = [1.000001, 2.000001, 4.000001, 8.000001]
    return [
        Op("generate-zn1", "generate", Z1, origin(10_000)),
        Op("generate-fib", "generate", FIB, origin(10_000)),
        Op("generate-fib-far", "generate", FIB, far),
        Op("generate-cut", "generate", CUT, origin(10_000)),
        Op("generate-cut-far", "generate", CUT, far),
        Op("generate-beatty-far", "generate", BEATTY, far),
        Op("atlas-zn1", "atlas", Z1, origin(5_000), T=T_sweep),
        Op("atlas-fib", "atlas", FIB, origin(10_000), T=T_sweep),
        Op("atlas-fib-far", "atlas", FIB, far, T=T_sweep),
        Op("atlas-cut", "atlas", CUT, origin(10_000), T=T_sweep),
        Op("repetitivity-zn1", "repetitivity", Z1, origin(2_000), T=T_sweep),
        Op("repetitivity-fib", "repetitivity", FIB, origin(10_000), T=T_sweep),
        Op("repetitivity-cut", "repetitivity", CUT, origin(10_000), T=T_sweep),
        Op("frequencies-fib", "frequencies", FIB, origin(10_000)),
        # known fault: the ladder is scaled about the origin, so every rung of
        # a window that excludes 0 falls outside the certified region
        Op("frequencies-fib-far", "frequencies", FIB, far, expect_fail=True),
        Op("wdist-fib", "wdist", FIB, origin(4_000)),
        Op("wdist-cut", "wdist", CUT, origin(4_000)),
        Op("diffraction-fib", "diffraction", FIB, origin(400),
           extra=["--T", "300.000001", "--kcount", "801"]),
        Op("diffraction-fib-peaks", "diffraction", FIB, origin(400),
           extra=["--T", "300.000001", "--kcount", "801", "--peaks"]),
        # under 10 000 points the Lipschitz bound takes all pairs; above, a sample
        Op("address-fib-allpairs", "address", FIB, origin(2_000)),
        Op("address-fib-sampled", "address", FIB, origin(10_000)),
    ]


def lattices_nd(seed: int) -> List[Op]:
    rng = random.Random("lattices-nd/%d" % seed)
    # the hole pattern and its windows move together by an integer vector,
    # so every Z^2 input is a translate of the same configuration
    s = (rng.randrange(-5, 6), rng.randrange(-5, 6))
    holes = [[s[0], s[1]], [s[0] + 3, s[1] + 1]]
    z2 = {"set": "zn", "params": {"n": 2, "deletions": holes}}
    f = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
    d = (rng.randrange(-4, 5), rng.randrange(-4, 5), rng.randrange(-4, 5))
    return [
        Op("generate-z2", "generate", z2, _box(s, 100)),
        Op("generate-fibxfib", "generate", FIBXFIB, _box(f, 60)),
        Op("generate-lines", "generate", LINES, _box(d, 16)),
        Op("atlas-z2", "atlas", z2, _box(s, 100), T=[2.000001, 4.000001]),
        Op("atlas-fibxfib", "atlas", FIBXFIB, _box(f, 24), T=[2.000001, 3.000001]),
        Op("atlas-lines", "atlas", LINES, _box(d, 16), T=[2.000001, 3.000001]),
        Op("repetitivity-z2", "repetitivity", z2, _box(s, 10), T=[2.000001]),
        Op("repetitivity-fibxfib", "repetitivity", FIBXFIB, _box(f, 9), T=[1.500001]),
        Op("repetitivity-lines", "repetitivity", LINES, _box(d, 8), T=[2.000001],
           extra=["--resolution", "0.3"]),
        Op("frequencies-z2", "frequencies", z2, _box(s, 60)),
        Op("frequencies-fibxfib", "frequencies", FIBXFIB, _box(f, 30)),
        Op("wdist-z2", "wdist", z2, _box(s, 60)),
        Op("wdist-fibxfib", "wdist", FIBXFIB, _box(f, 50)),
        Op("address-z2-sampled", "address", z2, _box(s, 60)),
        Op("address-fibxfib", "address", FIBXFIB, _box(f, 20)),
        Op("address-lines", "address", LINES, _box(d, 6)),
    ]


WORKLOADS = {
    "chains-1d": chains_1d,
    "lattices-nd": lattices_nd,
    "verify-all": None,  # one `verify all` in a fresh process per pass
}
