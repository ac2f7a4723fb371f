"""The benchmark's workloads: fixed reference days, relabelled by the seed.

Each workload is one reference day drawn by the program's own generator with
a fixed generator seed, plus the list of closed-loop simulations (algorithm,
scenario) replayed over it. The benchmark's ``--seed`` then moves the day's sessions among
interchangeable stalls: stalls with the same hardware, phase and constraint
coefficients. Each seed is a distinct input (which stall each car uses) with
the same physics, the same decisions and the same amount of work, so spread
across seeds is measurement noise, and the delivered energy and profit should
not depend on the seed at all.

The program receives only the resulting configs and ``Session`` lists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from evsched.experiments import build_network, build_tariff, build_workload, make_algorithm, resolve_config
from evsched.network import ChargingNetwork
from evsched.simulator import SCENARIOS, SimConfig
from evsched.workload import Session

# Criterion 3's congested day: 10 stalls (66 kW of hardware) on a 12 kW
# transformer, one Tuesday of Caltech-shaped arrivals at a third of the rate.
_CONGESTED_DAY = {
    "seed": 27,
    "network": {"preset": "synthetic", "n_evse": 10, "transformer_kw": 12.0},
    "workload": {"generate": {"days": ["tue"], "stats": "caltech", "session_scale": 0.33}},
    "start_day": "tue",
    "billing_days": 1,
}

# The 54-stall Caltech garage on a 20 kW transformer, one generated Tuesday
# at 40% of the garage's session rate.
_CALTECH_DAY = {
    "seed": 1,
    "network": {"preset": "caltech", "transformer_kw": 20.0},
    "workload": {"generate": {"days": ["tue"], "stats": "caltech", "session_scale": 0.4}},
    "start_day": "tue",
    "billing_days": 1,
}

# (config, simulations as (algorithm, scenario) pairs)
WORKLOADS: dict[str, tuple[dict, tuple[tuple[str, str], ...]]] = {
    "day-affine": (
        {**_CONGESTED_DAY, "utility": "quick-charge", "constraint_mode": "affine", "horizon": 24},
        (("asa", "II"),),
    ),
    "day-soc-profit-v": (
        {**_CONGESTED_DAY, "utility": "profit", "constraint_mode": "soc", "horizon": 6, "recompute_period": 6},
        (("asa", "V"),),
    ),
    "caltech-baselines": (
        _CALTECH_DAY,
        tuple((alg, sc) for alg in ("llf", "edf", "rr") for sc in ("II", "III")),
    ),
}

def relabel(sessions: list[Session], network: ChargingNetwork, seed: int) -> list[Session]:
    """Seeded variant of a day: sessions moved among interchangeable stalls.

    Stalls are interchangeable when their hardware, phase angle and
    coefficient in every network constraint agree. Each group's stalls are
    permuted, so sessions that shared a stall still share one and never
    overlap.
    """
    rng = np.random.default_rng(seed)
    groups: dict[tuple, list[str]] = {}
    for e in network.evses:
        column = tuple(c.coefficients.get(e.id, 0.0) for c in network.constraints)
        key = (e.max_pilot, e.phase_angle, e.allowable_rates, e.continuous, e.min_nonzero_rate, column)
        groups.setdefault(key, []).append(e.id)
    moved: dict[str, str] = {}
    for ids in groups.values():
        moved.update(zip(ids, (ids[j] for j in rng.permutation(len(ids)))))
    return [replace(s, evse_id=moved[s.evse_id]) for s in sessions]


@dataclass
class Prepared:
    """Everything a round needs, built before the first simulated period."""

    name: str
    network: ChargingNetwork
    sessions: list[Session]
    configs: list[dict]  # one resolved config per simulation of a round
    sim_config: SimConfig

    def algorithm(self, i: int):
        """A fresh algorithm for simulation i (schedulers carry state)."""
        return make_algorithm(self.configs[i], self.network, self.sessions)

    def scenario(self, i: int):
        return SCENARIOS[self.configs[i]["scenario"]]

    def quantized(self, i: int) -> bool:
        return not self.scenario(i).continuous_pilots


def prepare(name: str, seed: int) -> Prepared:
    """Resolve configs and build the network, the relabelled day and one set of algorithms."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; pick one of {sorted(WORKLOADS)}")
    raw, sims = WORKLOADS[name]
    base = resolve_config(raw)
    network = build_network(base)
    sessions = relabel(build_workload(base, network), network, seed)
    configs = [resolve_config({**raw, "algorithm": alg, "scenario": sc}) for alg, sc in sims]
    sim_config = SimConfig(
        period_minutes=base["period_minutes"],
        start_day=base["start_day"],
        tariff=build_tariff(base),
        revenue_per_kwh=base["revenue_per_kwh"],
        billing_days=float(base["billing_days"]),
        rampdown=base["rampdown"],
    )
    prepared = Prepared(name, network, sessions, configs, sim_config)
    for i in range(len(configs)):
        prepared.algorithm(i)  # construction is part of set-up; fail here, not mid-run
    return prepared
