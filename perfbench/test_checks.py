"""Seeded faults: each check in ``checks.py`` must fail on a broken copy.

Run with ``python3 -m pytest perfbench/test_checks.py``. Every test first
shows the untouched result passing, then seeds one fault into a deep copy
and shows the matching check failing.
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import env  # noqa: E402

env.use_checkout()
import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from run import Timed  # noqa: E402
from evsched.experiments import quick_charge_utility  # noqa: E402
from evsched.scheduler import EvState, build_opt  # noqa: E402
from evsched.simulator import run as simulate  # noqa: E402
from evsched.solver import solve  # noqa: E402


def _finished(name: str, alg: str, scenario: str) -> dict:
    prepared = workloads.prepare(name, 1)
    i = next(j for j, c in enumerate(prepared.configs) if (c["algorithm"], c["scenario"]) == (alg, scenario))
    algorithm = Timed(prepared.algorithm(i))
    result = simulate(prepared.network, prepared.sessions, algorithm, prepared.scenario(i), prepared.sim_config)
    return checks.record(prepared, i, result, algorithm.periods)


@pytest.fixture(scope="module")
def quantized_rec():
    """llf in scenario III on the congested Caltech day: quantized pilots, no solver."""
    return _finished("caltech-baselines", "llf", "III")


def _fails(rec: dict, check: str | None) -> bool:
    flagged, problems, _ = checks.check_simulation(rec)
    hit = bool(problems) if check is None else bool(flagged[check].any())
    return hit and checks.failed_decisions(rec, flagged, problems) > 0


def test_untouched_result_passes(quantized_rec):
    flagged, problems, values = checks.check_simulation(quantized_rec)
    assert not problems
    assert not any(m.any() for m in flagged.values())
    assert checks.failed_decisions(quantized_rec, flagged, problems) == 0
    assert values["delivered_kwh"] > 0 and values["profit_usd"] > 0


def test_pilot_over_a_limit_fails_the_network_check(quantized_rec):
    busiest = int(np.argmax(quantized_rec["pilots"].sum(axis=0)))
    rec = copy.deepcopy(quantized_rec)
    # Every car present at its stall's 32 A maximum: far over the 20 kW transformer.
    rec["pilots"][rec["pilots"][:, busiest] > 0, busiest] = 32.0
    assert _fails(rec, "network")
    assert not checks.check_simulation(rec)[0]["bounds"].any()


def test_off_menu_pilot_fails_the_menu_check(quantized_rec):
    P, M = quantized_rec["pilots"], quantized_rec["measured"]
    i, k = np.argwhere((P >= 8.0) & (M <= P - 0.5))[0]
    rec = copy.deepcopy(quantized_rec)
    rec["pilots"][i, k] -= 0.5
    assert _fails(rec, "menu")


def test_charge_after_departure_fails_the_window_check(quantized_rec):
    K = quantized_rec["pilots"].shape[1]
    i = next(j for j, s in enumerate(quantized_rec["sessions"]) if s[3] < K)
    rec = copy.deepcopy(quantized_rec)
    rec["measured"][i, rec["sessions"][i][3]] = 1.0
    rec["pilots"][i, rec["sessions"][i][3]] = 8.0
    assert _fails(rec, "window")


def test_tariff_window_shifted_by_one_period_fails_the_profit_check(quantized_rec):
    rec = copy.deepcopy(quantized_rec)
    windows = rec["tariff"]["weekday"]
    step = rec["period_minutes"]
    j = next(n for n, (start, _, _) in enumerate(windows) if start == 12 * 60)  # the noon peak window
    windows[j - 1] = (windows[j - 1][0], windows[j - 1][1] + step, windows[j - 1][2])
    windows[j] = (windows[j][0] + step, windows[j][1], windows[j][2])
    assert _fails(rec, None)


def test_overfilled_session_fails_the_energy_check(quantized_rec):
    rec = copy.deepcopy(quantized_rec)
    sid, evse, arrival, departure, requested = rec["sessions"][0]
    rec["sessions"][0] = (sid, evse, arrival, departure, 0.5 * rec["measured"][0].sum())
    assert _fails(rec, "energy")


# -- solver results against HiGHS ----------------------------------------------


def _program(mode: str, lower_at_max: bool = False):
    """The lookahead program at the congested day's busiest period."""
    prepared = workloads.prepare("day-affine", 1)
    counts = np.zeros(max(s.departure for s in prepared.sessions), dtype=int)
    for s in prepared.sessions:
        counts[s.arrival : s.departure] += 1
    k = int(np.argmax(counts))
    active = []
    for s in prepared.sessions:
        if s.arrival <= k < s.departure:
            state = EvState.start(s, prepared.network.evse(s.evse_id))
            state.remaining_duration = s.departure - k
            active.append(state)
    program, _ = build_opt(active, quick_charge_utility(), prepared.network, 24, start_period=k, constraint_mode=mode)
    if lower_at_max:
        program.lower[:] = np.minimum(program.upper, 32.0)  # every car at full pilot: over the transformer
    return program


@pytest.fixture(scope="module")
def affine_solved():
    program = _program("affine")
    return program, solve(program)


def test_affine_solve_matches_highs(affine_solved):
    program, sol = affine_solved
    assert sol.status == "optimal"
    assert checks.check_program(program, sol.status, sol.objective) == []


def test_nudged_objective_fails(affine_solved):
    program, sol = affine_solved
    assert checks.check_program(program, sol.status, sol.objective * (1 + 1e-4) + 1e-4)


def test_flipped_status_fails(affine_solved):
    program, sol = affine_solved
    assert checks.check_program(program, "infeasible", math.nan)
    infeasible = _program("affine", lower_at_max=True)
    assert solve(infeasible).status == "infeasible"
    assert checks.check_program(infeasible, "infeasible", math.nan) == []
    assert checks.check_program(infeasible, "optimal", sol.objective)


def test_soc_solve_lies_between_the_polygons():
    program = _program("soc")
    sol = solve(program)
    assert sol.status == "optimal"
    assert checks.check_program(program, sol.status, sol.objective) == []
    _, outer = checks.highs(program, "circumscribed")
    _, inner = checks.highs(program, "inscribed")
    assert checks.check_program(program, sol.status, outer + 1e-2 * abs(outer))
    assert checks.check_program(program, sol.status, inner - 1e-2 * abs(inner))
    assert checks.check_program(program, "infeasible", math.nan)
