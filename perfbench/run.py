"""Closed-loop benchmark of evsched.

Usage::

    python3 perfbench/run.py --workload day-affine --seed 1 --seconds 30 --trace 0

One run, in one process with one BLAS thread:

1. builds the workload in-process and replays whole rounds of its closed-loop
   simulations until the next round would overrun ``--seconds``;
2. between rounds, times fresh processes that import the program and build
   the workload up to its first simulated period (``setup_s`` is their median);
3. checks every simulation's outputs with the benchmark's own arithmetic
   (``checks.py``), and with ``--trace 1`` every program solved in the first
   traced round against HiGHS;
4. prints a summary and, as its last line, one JSON object with ``correct``,
   ``attempted`` and ``failed`` decisions and the metrics: the end-to-end ones
   with ``--trace 0``, the per-layer ones with ``--trace 1``.

With ``--trace 1`` rounds alternate untraced and traced; ``trace.overhead_s``
is the difference of their typical round times. It exits 1 if any decision
failed or if the program cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import env

env.use_checkout()  # before numpy loads: OpenBLAS reads its thread count once
import numpy as np  # noqa: E402

try:
    env.require_checkout_program()
    import checks  # noqa: E402
    import evsched.simulator as simulator  # noqa: E402
    import workloads  # noqa: E402
    from spans import Tracer, round_metrics, traced  # noqa: E402
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the program from {env.SRC}: {exc}")

MIN_COLD_STARTS = 7
COLD_STARTS_PER_ROUND = 2
RESULTS = Path(__file__).resolve().parent / "results"



class Timed:
    """The algorithm as the simulator sees it, with every ``pilots`` call timed."""

    def __init__(self, algorithm):
        self._algorithm = algorithm
        self.periods: list[int] = []
        self.seconds: list[float] = []

    def __getattr__(self, name):
        return getattr(self._algorithm, name)

    def pilots(self, states, k, event):
        self.periods.append(k)
        start = time.perf_counter()
        out = self._algorithm.pilots(states, k, event)
        self.seconds.append(time.perf_counter() - start)
        return out


@dataclass
class Round:
    wall_s: float = 0.0  # inside simulator.run only
    results: list = field(default_factory=list)  # SimResult, or None if the simulation raised
    decisions: list = field(default_factory=list)  # periods decided, per simulation
    decision_s: list = field(default_factory=list)  # all decision times, in order
    tracer: object = None


def one_round(prepared, tracer=None) -> Round:
    """Every simulation of the workload once, each with a fresh algorithm."""
    rnd = Round(tracer=tracer)
    for i in range(len(prepared.configs)):
        algorithm = Timed(prepared.algorithm(i))
        simulate = simulator.run if tracer is None else tracer.wrap("simulator.run", simulator.run)
        start = time.perf_counter()
        try:
            result = simulate(prepared.network, prepared.sessions, algorithm, prepared.scenario(i), prepared.sim_config)
        except Exception:  # a decision that raises fails; the run reports it and goes on
            traceback.print_exc()
            result = None
        rnd.wall_s += time.perf_counter() - start
        rnd.results.append(result)
        rnd.decisions.append(algorithm.periods)
        rnd.decision_s.extend(algorithm.seconds)
    return rnd


def cold_start(workload: str, seed: int) -> dict:
    """Wall time from starting a fresh interpreter to a built workload."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("coldstart.py")), workload, str(seed)],
        capture_output=True, text=True, timeout=120, cwd=env.ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed:\n{proc.stderr}")
    stamps = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "setup_s": stamps["built"] - start,
        "import_s": stamps["imported"] - start,
        "build_s": stamps["built"] - stamps["imported"],
    }


def check_rounds(prepared, rounds: list[Round]) -> tuple[int, int, list[str], dict]:
    """(attempted, failed, problems, recomputed outcome of one round) over all rounds."""
    attempted = failed = 0
    problems: list[str] = []
    outcome = {"delivered_kwh": 0.0, "profit_usd": 0.0}
    first = rounds[0].results
    for r, rnd in enumerate(rounds):
        for i, (result, decided) in enumerate(zip(rnd.results, rnd.decisions)):
            attempted += len(decided)
            where = f"round {r} simulation {i} ({prepared.configs[i]['algorithm']} {prepared.configs[i]['scenario']})"
            if result is None:
                failed += len(decided)
                problems.append(f"{where}: raised")
                continue
            rec = checks.record(prepared, i, result, decided)
            flagged, sim_problems, values = checks.check_simulation(rec)
            if first[i] is None or not (
                np.array_equal(result.pilots, first[i].pilots) and np.array_equal(result.measured, first[i].measured)
            ):
                sim_problems.append("differs from round 0")
            bad = checks.failed_decisions(rec, flagged, sim_problems)
            failed += bad
            problems += [f"{where}: {p}" for p in sim_problems]
            problems += [f"{where}: {name} check failed in {int(m.sum())} periods" for name, m in flagged.items() if m.any()]
            if r == 0:
                for key in outcome:
                    outcome[key] += values[key]
    return attempted, failed, problems, outcome


def highs_checks(captured: list) -> tuple[int, list[str]]:
    """(programs checked, problems) for the solves captured in a traced round."""
    problems = []
    for n, (program, status, objective) in enumerate(captured):
        problems += [f"solve {n}: {p}" for p in checks.check_program(program, status, objective)]
    return len(captured), problems


def per_decision_s(rounds: list[Round]):
    """Each decision's median time across rounds, or None if the rounds decided differently."""
    if len({len(r.decision_s) for r in rounds}) != 1:  # a failure, already counted
        return None
    return np.median(np.array([r.decision_s for r in rounds]), axis=0)


def percentiles_ms(rounds: list[Round]) -> tuple[float, float]:
    """p50 and p95 over the decisions of a round, of each decision's median time."""
    per = per_decision_s(rounds)
    if per is None:
        per = np.concatenate([r.decision_s for r in rounds])
    return float(np.percentile(per, 50)) * 1e3, float(np.percentile(per, 95)) * 1e3


def measure(prepared, seed: int, seconds: float, trace: bool) -> tuple[list[Round], list[Round], list[dict]]:
    """(untraced rounds, traced rounds, cold starts) until the next round would overrun ``seconds``.

    Cold starts run between rounds, so that their median samples the whole
    run rather than one moment of it.
    """
    untraced: list[Round] = []
    traced_rounds: list[Round] = []
    colds: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        colds += [cold_start(prepared.name, seed) for _ in range(COLD_STARTS_PER_ROUND)]
        if trace and len(untraced) > len(traced_rounds):
            tracer = Tracer(capture=not traced_rounds)
            with traced(tracer):
                traced_rounds.append(one_round(prepared, tracer))
        else:
            untraced.append(one_round(prepared))
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if (not trace or traced_rounds) and elapsed + max(durations) > seconds:
            break
    while len(colds) < MIN_COLD_STARTS:
        colds.append(cold_start(prepared.name, seed))
    return untraced, traced_rounds, colds


def typical_round_s(rounds: list[Round]) -> float:
    """Wall time of a typical round, assembled from medians across rounds.

    Each decision contributes its median time, and the simulator's time
    outside decisions its median, so a burst of machine noise during one
    round moves only the parts it overlapped, and only if most rounds saw it.
    """
    per = per_decision_s(rounds)
    if per is None:
        return statistics.median(r.wall_s for r in rounds)
    return statistics.median(r.wall_s - sum(r.decision_s) for r in rounds) + float(per.sum())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prepared = workloads.prepare(args.workload, args.seed)
    untraced, traced_rounds, colds = measure(prepared, args.seed, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, problems, outcome = check_rounds(prepared, untraced + traced_rounds)
    report: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(untraced),
        "round_wall_s": [r.wall_s for r in untraced],
        "cold_starts": colds,
    }
    if args.trace:
        checked, solver_problems = highs_checks(traced_rounds[0].tracer.captured)
        failed += len(solver_problems)
        problems += solver_problems
        per_round = [round_metrics(r.tracer, sum(res.periods for res in r.results if res is not None)) for r in traced_rounds]
        metrics = {
            key: statistics.median(m[key] for m in per_round) if key.endswith(("_s", "_ms")) else per_round[0][key]
            for key in per_round[0]
        }
        metrics["setup.import_s"] = statistics.median(c["import_s"] for c in colds)
        metrics["setup.build_s"] = statistics.median(c["build_s"] for c in colds)
        metrics["workload.sessions"] = len(prepared.sessions)
        metrics["trace.overhead_s"] = typical_round_s(traced_rounds) - typical_round_s(untraced)
        report["traced_round_wall_s"] = [r.wall_s for r in traced_rounds]
        report["highs_checked"] = checked
    else:
        p50, p95 = percentiles_ms(untraced)
        metrics = {
            "setup_s": statistics.median(c["setup_s"] for c in colds),
            "run_s": typical_round_s(untraced),
            "decision_p50_ms": p50,
            "decision_p95_ms": p95,
            "peak_rss_mb": peak_rss_mb,
            **outcome,
        }
        report["decisions_per_round"] = len(untraced[0].decision_s)

    declared = json.loads((env.ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    report["problems"] = problems
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report["result"] = result
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=2) + "\n")

    for p in problems[:20]:
        print(f"FAILED {p}")
    print(
        f"{args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced_rounds)} traced rounds, "
        f"{attempted} decisions, {failed} failed"
        + (f", {report['highs_checked']} solves checked against HiGHS" if args.trace else "")
    )
    for k, v in metrics.items():
        print(f"  {k:28s} {v:14.6g} {units[k]}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
