"""Benchmark of levyfluct: identity sweep, Monte Carlo oracle, modified-process CLI.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
from traced rounds that repeat the requests of untraced ones.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
seeds, inputs, versions and thread settings.  Per-request records (and spans
of a traced run) go to ``bench/out/``.  Workloads and metrics are described
in ``bench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 3              # this process plus two fresh interpreters
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def configure_threads():
    """One Monte Carlo worker; BLAS and OpenMP capped at the core count."""
    nproc = len(os.sched_getaffinity(0))
    os.environ["LEVYFLUCT_THREADS"] = "1"
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time the workload's set-up in this interpreter and exit")
    return p.parse_args(argv)


def set_up(name, seed):
    """Import the package and build what the workload reuses; (workload, seconds)."""
    t0 = perf_counter()
    import workloads
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name](seed)
    workload.build()
    seconds = perf_counter() - t0
    import levyfluct
    if Path(levyfluct.__file__).resolve().parent != ROOT / "src" / "levyfluct":
        raise RuntimeError(f"levyfluct imported from {levyfluct.__file__}, not this checkout")
    return workload, seconds


def setup_in_fresh_interpreter(name, seed):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
         "--setup-only"], capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def run_request(request, tracer, request_id):
    from workloads import Result

    if tracer is not None:
        tracer.request_id = request_id
    t0 = perf_counter()
    try:
        return request.call()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return Result(request.lane, request.kind, perf_counter() - t0, False, math.inf,
                      route=request.route)


def drive(workload, seconds, count=None, tracer=None):
    """Closed loop, one client: run the workload's rounds request by request.

    Without ``count``, stop before a request once ``seconds`` have passed and
    a whole round has run; with it, after exactly ``count`` requests.  Gates
    that span requests are checked per round.  Returns the results and the
    number of whole rounds among them.
    """
    results, rounds = [], 0
    start = perf_counter()
    while True:
        requests, batch = workload.round(rounds), []
        for request in requests:
            if count is not None:
                if len(results) + len(batch) == count:
                    break
            elif rounds and perf_counter() - start >= seconds:
                break
            batch.append(run_request(request, tracer, len(results) + len(batch)))
        workload.gate(batch)
        results += batch
        if len(batch) < len(requests):
            return results, rounds
        rounds += 1


def end_to_end(results, rounds, mix):
    """Means weight each (kind, route) by ``mix``, its count in one round.

    A run may stop inside a round; the weights keep the mix of a whole round.
    The 90th percentile is taken over the ``rounds`` whole rounds only.
    """
    import numpy as np
    from workloads import ERR_TARGET

    latency, cost = {}, {}
    for r in results:
        key = (r.kind, r.route)
        latency.setdefault(key, []).append(r.seconds)
        if r.ok:    # a failed request reached no error target
            cost.setdefault(key, []).append(r.seconds * max(1.0, (r.err / ERR_TARGET) ** 2))

    def mean(table, keys):
        keys = [k for k in keys if k in table]
        return (sum(mix[k][1] * statistics.fmean(table[k]) for k in keys)
                / sum(mix[k][1] for k in keys))

    def lane_keys(name):
        return [k for k, (lane, _) in mix.items() if lane == name]

    whole = results[:rounds * sum(n for _, n in mix.values())]
    rational = [r.seconds for r in whole if r.lane == "rational"]
    kinds = {kind for kind, _ in mix}
    return {
        "requests_per_s": (1.0 / mean(latency, list(mix)), "1/s"),
        "rational_ms_mean": (1e3 * mean(latency, lane_keys("rational")), "ms"),
        "rational_ms_p90": (1e3 * float(np.percentile(rational, 90)), "ms"),
        "tempered_ms_mean": (1e3 * mean(latency, lane_keys("tempered")), "ms"),
        "s_to_err_1e-3": (sum(mean(cost, [k for k in mix if k[0] == kind]) for kind in kinds),
                          "s"),
    }


def round_mix(workload):
    """(kind, route) -> (lane, requests per round)."""
    mix = {}
    for q in workload.round(0):
        lane, n = mix.get((q.kind, q.route), (q.lane, 0))
        mix[(q.kind, q.route)] = (lane, n + 1)
    return mix


def per_layer(tracer, overhead):
    import numpy as np

    kind, dur, self_time = tracer.tables()
    ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(*names):
        return np.isin(kind, [ids[n] for n in names])

    def calls(*names):
        return int(np.count_nonzero(mask(*names)))

    def total(*names):
        return float(dur[mask(*names)].sum())

    def own(*names):
        return float(self_time[mask(*names)].sum())

    sims = tuple(f"montecarlo.{n}" for n in ("simulate_first_passage",
                                             "simulate_reflected", "simulate_refracted"))
    ests = tuple(f"montecarlo.{n}" for n in ("estimate_overshoot_functional",
                                             "estimate_exit_transform",
                                             "estimate_creeping", "estimate_resolvent"))
    quads = ("quadrature.quad", "quadrature.quad_log", "quadrature.quad_singular_left")
    routes = {"general": "overshoot_functional_general",
              "simple": "overshoot_functional_simple",
              "zero_extension": "overshoot_zero_extension",
              "osf": "overshoot_of_scale_function"}
    apply_calls = calls("generator.apply_generator")
    m = {
        "models.phi_calls": (calls("models.right_inverse_phi"), "count"),
        "models.phi_s": (total("models.right_inverse_phi"), "s"),
        "models.psi_calls": (calls("models.laplace_exponent"), "count"),
        "scale.build_calls": (calls("ScaleFunction.__init__"), "count"),
        "scale.build_s": (total("ScaleFunction.__init__"), "s"),
        "scale.tolerance_estimate_max": (max(tracer.tolerance_estimates, default=0.0),
                                         "ratio"),
        "scale.w_calls": (calls("ScaleFunction.w"), "count"),
        "scale.w_points": (tracer.w_points, "count"),
        "scale.w_s": (total("ScaleFunction.w"), "s"),
        "scale.w_prime_calls": (calls("ScaleFunction.w_prime"), "count"),
        "scale.w_prime_s": (total("ScaleFunction.w_prime"), "s"),
        "scale.z_calls": (calls("ScaleFunction.z"), "count"),
        "scale.z_s": (total("ScaleFunction.z"), "s"),
        "generator.extend_s": (total("generator.extend_penalty"), "s"),
        "generator.membership_calls": (calls("generator.check_membership"), "count"),
        "generator.membership_s": (total("generator.check_membership"), "s"),
        "generator.apply_calls": (apply_calls, "count"),
        "generator.apply_self_s": (own("generator.apply_generator"), "s"),
        "generator.apply_us_per_call": (
            1e6 * total("generator.apply_generator") / apply_calls if apply_calls else 0.0,
            "us"),
        "quadrature.quad_calls": (calls("quadrature.quad"), "count"),
        "quadrature.quad_s": (own(*quads), "s"),
    }
    for short, fn in routes.items():
        m[f"identities.{short}_calls"] = (calls(f"identities.{fn}"), "count")
        m[f"identities.{short}_self_s"] = (own(f"identities.{fn}"), "s")
    sim_s = total(*sims)
    m.update({
        "montecarlo.simulate_calls": (calls(*sims), "count"),
        "montecarlo.simulate_s": (sim_s, "s"),
        "montecarlo.paths": (tracer.sim_paths, "count"),
        "montecarlo.path_steps": (tracer.sim_steps, "count"),
        "montecarlo.ns_per_path_step": (
            1e9 * sim_s / tracer.sim_steps if tracer.sim_steps else 0.0, "ns"),
        "montecarlo.live_share": (
            tracer.sim_steps / tracer.sim_slots if tracer.sim_slots else 0.0, "ratio"),
        "montecarlo.capped_fraction": (
            tracer.sim_capped / tracer.sim_paths if tracer.sim_paths else 0.0, "ratio"),
        "montecarlo.estimate_s": (own(*ests), "s"),
        "reflected_refracted.provider_self_s": (
            own("MonteCarloProvider.reflected", "MonteCarloProvider.refracted"), "s"),
        "reflected_refracted.identity_self_s": (
            own("reflected_refracted.reflected_overshoot",
                "reflected_refracted.refracted_overshoot"), "s"),
        "cli.requests": (calls("cli.main"), "count"),
        "cli.self_s": (own("cli.main"), "s"),
        "trace.overhead": (overhead, "ratio"),
    })
    return m


def machine_probe():
    """Seconds for a fixed Python and numpy loop: a record of machine speed, not a metric."""
    import numpy as np

    t0 = perf_counter()
    total = 0.0
    for i in range(200_000):
        total += i * 0.5
    data = np.random.default_rng(0).random(100_000)
    for _ in range(10):
        np.sort(data)
    return perf_counter() - t0


def versions():
    import mpmath
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__}


def main(argv=None):
    args = parse_args(argv)
    nproc = configure_threads()
    if not (ROOT / "src" / "levyfluct" / "__init__.py").is_file():
        print(f"no levyfluct sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload, setup_here = set_up(args.workload, args.seed)
    if args.setup_only:
        print(repr(setup_here))
        return 0

    import workloads
    from tracer import Tracer

    setup = [setup_here] + [setup_in_fresh_interpreter(args.workload, args.seed)
                            for _ in range(SETUP_REPEATS - 1)]
    t0 = perf_counter()
    accuracy, gates = workloads.accuracy_probe(workload.catalog)
    workload.check()
    check_s = perf_counter() - t0
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    probes = [machine_probe()]
    if args.trace == 0:
        results, rounds = drive(workload, args.seconds)
        metrics = end_to_end(results, rounds, round_mix(workload))
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics.update(accuracy)
    else:
        # the same rounds untraced, then traced
        plain, rounds = drive(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = drive(workload, 0.0, len(plain), tracer)
        finally:
            tracer.uninstall()
        overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1.0
        metrics = per_layer(tracer, overhead)
        tracer.write(OUT / f"spans-{stem}.csv.gz")
        results = plain + traced
    probes.append(machine_probe())

    failed = sum(not r.ok for r in results) + sum(not ok for ok in gates.values())
    attempted = len(results) + len(gates)
    with open(OUT / f"requests-{stem}.json", "w") as fh:
        json.dump([vars(r) for r in results], fh)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(f"{'failed_fraction':40s} {failed / attempted:>16.6g} ratio")
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": workload.describe(),
        "sim_seeds": [r.seed for r in results if r.seed is not None],
        "setup_samples_s": setup, "check_s": check_s, "rounds": rounds,
        "machine_probe_s": probes,
        "gates": gates,
        "failed_fraction": failed / attempted,
        "nproc": nproc, **versions(),
        "threads": {v: os.environ[v] for v in ("LEVYFLUCT_THREADS",) + THREAD_VARS},
    }
    print(json.dumps(context))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
