"""imrc benchmark: one closed-loop workload, end-to-end or traced.

    python3 perfbench/run.py --workload {sweep,grid,scalar} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
`src/` directory. One client in one process sends the next item when the
previous one returns; the program's own grid-search pool keeps its default
worker count. Human-readable lines come first; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics` (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1). Scratch files go to `.perfbench_work/` in the checkout. See
perfbench/DESIGN.md for the workloads, the metrics and what each should
move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5

# Layer metrics that only the unlisted `scalar` workload exercises; they
# read 0 on the listed workloads, so they are printed as `#` lines only.
SCALAR_LAYER_UNITS = {
    "search.bisect_intersection.us_p50": "us", "search.bisect_evals": "count",
    "lowpower.taylor_coeffs.us_p50": "us", "lowpower.closed_form_phat.us_p50": "us",
    "lowpower.linearized_rates.us_p50": "us",
    "beamforming.zero_forcing_residual.us_p50": "us",
    "model.ChannelSetup.us_p50": "us", "model.feasibility.us_p50": "us",
}

# Counters that must repeat exactly for a given seed.
COUNTERS = ("search.cells", "search.feasible_cell_ratio", "search.refine_win_ratio",
            "search.refine_gain_bits", "search.bisect_evals",
            "rates.scheme_rate_point.calls", "rates.mac_rates.calls",
            "rates.ic_rates.calls", "rates.truncated_ratio", "rates.mac_bind_ratio",
            "cli.csv_bytes", "cli.refused_ratio", "model.infeasible_ratio", "lowpower.closed_gap_rel",
            "input.det0_share", "input.boundary_share", "input.pr_gt_p_share")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "grid", "scalar"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, run the warm-up item, print 'ready', exit")
    return parser.parse_args(argv)


def listed_units(kind: str) -> dict:
    """Metric name -> unit for one list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def measure_setup(args) -> list[float]:
    """Wall time from process start to 'ready' (import, inputs, one
    warm-up item) for fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", "0", "--setup-probe"]
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as probe:
            line = probe.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            probe.stdout.read()
            code = probe.wait(timeout=120)
        if line != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
        times.append(elapsed)
    return times


class Loop:
    """Closed loop over a workload's input pool."""

    def __init__(self, workload, pool):
        self.wl = workload
        self.pool = pool
        self.first = {}          # pool index -> output of its first run
        self.errors = []         # (pool index, message) per failed occurrence
        self.attempted = 0
        self.occurrences = []    # pool index of every timed item

    def run_one(self, idx: int) -> float:
        """Run pool item idx once; return its latency in seconds."""
        start = time.perf_counter()
        try:
            out = self.wl.run(self.pool[idx])
        except Exception as exc:  # an unexpected error fails the item
            self.errors.append((idx, f"{type(exc).__name__}: {exc}"))
            return time.perf_counter() - start
        latency = time.perf_counter() - start
        if idx not in self.first:
            self.first[idx] = out
        elif out != self.first[idx]:
            self.errors.append((idx, "output differs from the first run"))
        return latency

    def timed(self, idx: int) -> float:
        self.attempted += 1
        self.occurrences.append(idx)
        return self.run_one(idx)

    def check_all(self):
        """Check each distinct output once (running untimed any pool item
        the timed phase did not reach); return per-index facts and add a
        failure for every occurrence of an index whose check failed."""
        from workloads import CheckFailed
        facts = {}
        for idx, inp in enumerate(self.pool):
            if idx not in self.first:
                self.run_one(idx)
            if idx not in self.first:
                continue
            try:
                facts[idx] = self.wl.check(inp, self.first[idx])
            except CheckFailed as exc:
                bad = self.occurrences.count(idx) or 1
                self.errors.extend([(idx, f"check: {exc}")] * bad)
        return facts


def failed_count(loop: Loop) -> int:
    return min(len(loop.errors), loop.attempted)


def run_e2e(args, wl, pool, loop, setup_times):
    n = len(pool)
    latencies, pass_rates = [], []
    start = pass_start = time.perf_counter()
    deadline = start + args.seconds
    # the first pass over the pool always completes, so every input is timed
    while len(latencies) < n or time.perf_counter() < deadline:
        latencies.append(loop.timed(len(latencies) % n))
        if len(latencies) % n == 0:
            now = time.perf_counter()
            pass_rates.append(n / (now - pass_start))
            pass_start = now
    phase = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    facts = loop.check_all()
    failed = failed_count(loop)
    ok_ratio = (loop.attempted - failed) / loop.attempted
    rates = [f["sum_rate"] for f in facts.values() if "sum_rate" in f]
    # Inputs of one pool cost about the same, so a tail over occurrences only
    # tells when the host was slow; the tail is taken over the inputs instead.
    by_input = [latencies[i::n] for i in range(n)]
    input_p50 = [statistics.median(v) for v in by_input]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": ok_ratio * statistics.median(pass_rates),
        "item_p50_ms": 1e3 * statistics.median(latencies),
        "item_tail_ms": 1e3 * statistics.quantiles(input_p50, n=4, method="inclusive")[2],
        "ok_ratio": ok_ratio,
        "sum_rate_bits": sum(rates) / len(rates) if rates else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    pct = max((p for p in (50, 75, 90, 99) if len(latencies) * (100 - p) >= 1000),
              default=50)
    occurrence_tail = statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]
    print(f"# workload {wl.name}, seed {args.seed}: {loop.attempted} items in "
          f"{phase:.3f} s, {len(pass_rates)} whole passes over a pool of {n}")
    print(f"# item_tail_ms is p75 over the {n} inputs of each input's median latency; "
          f"over all {len(latencies)} items p{pct} is {1e3 * occurrence_tail:.3f} ms "
          f"({len(latencies) * (100 - pct) / 100:.0f} items beyond it)")
    print(f"# fail_ratio = {failed}/{loop.attempted}; setup probes "
          + ", ".join(f"{t:.3f}" for t in setup_times) + " s")
    return metrics, failed


def _median_or_zero(values, scale=1.0) -> float:
    return scale * statistics.median(values) if len(values) else 0.0


def run_traced(args, wl, pool, loop):
    from spans import Tracer
    import imrc
    # untraced reference pass for the tracing overhead
    untraced = [loop.run_one(idx) for idx in range(len(pool))]
    probe = wl.probe_cells(pool) if hasattr(wl, "probe_cells") else None
    tracer = Tracer()
    tracer.install()
    if hasattr(wl, "channel_setup"):
        wl.channel_setup = tracer.wrap(imrc.ChannelSetup, "model.ChannelSetup")
    traced, first_pass = [], []
    refine, coarse, unrefined = [], [], {}
    start = time.perf_counter()
    deadline = start + args.seconds
    k = 0
    try:
        while k < len(pool) or time.perf_counter() < deadline:
            idx = k % len(pool)
            tracer.counting = k < len(pool)
            tracer.item = k
            before = tracer.self_total.get("search.sweep_P", 0.0)
            latency = loop.timed(idx)
            traced.append(latency)
            if tracer.counting:
                first_pass.append(latency)
            if wl.name == "sweep":
                # the same row without refinement; refine time is the difference
                with_refine = tracer.self_total["search.sweep_P"] - before
                tracer.prefix, tracer.counting = "aux:", False
                before = tracer.self_total.get("aux:search.sweep_P", 0.0)
                result = wl.unrefined(pool[idx])
                without = tracer.self_total["aux:search.sweep_P"] - before
                tracer.prefix = ""
                unrefined.setdefault(idx, result)
                coarse.append(without)
                refine.append(with_refine - without)
            k += 1
    finally:
        tracer.uninstall()
    facts = loop.check_all()
    failed = failed_count(loop)
    n_items = len(traced)
    m = {name: 0.0 for name in (*listed_units("per_layer"), *SCALAR_LAYER_UNITS)}

    def p50(name, scale):
        return _median_or_zero(tracer.durations.get(name, ()), scale)

    def per_first_pass(name):
        return tracer.calls.get(name, 0) / len(pool)

    for module in ("cli", "search", "lowpower", "rates", "beamforming", "model"):
        total = sum(v for key, v in tracer.self_total.items() if key.startswith(module + "."))
        m[f"{module}.self_ms"] = 1e3 * total / n_items
    m["search.bisect_intersection.us_p50"] = p50("search.bisect_intersection", 1e6)
    for name in ("taylor_coeffs", "closed_form_phat", "linearized_rates", "region_rho"):
        m[f"lowpower.{name}.us_p50"] = p50(f"lowpower.{name}", 1e6)
    for name in ("scheme_rate_point", "mac_rates", "ic_rates"):
        m[f"rates.{name}.us_p50"] = p50(f"rates.{name}", 1e6)
        m[f"rates.{name}.calls"] = per_first_pass(f"rates.{name}")
    for name in ("beam_vectors", "effective_gains", "zero_forcing_residual"):
        m[f"beamforming.{name}.us_p50"] = p50(f"beamforming.{name}", 1e6)
    for name in ("ChannelSetup", "validate", "feasibility"):
        m[f"model.{name}.us_p50"] = p50(f"model.{name}", 1e6)
    m["search.grid_search_sum_rate.ms"] = p50("search.grid_search_sum_rate", 1e3)
    m["lowpower.sum_rate_allocation.ms"] = p50("lowpower.sum_rate_allocation", 1e3)
    m["cli.write_csv.ms"] = p50("cli.write_csv", 1e3)
    m["cli.main.self_ms"] = 1e3 * tracer.self_total.get("cli.main", 0.0) / n_items
    bisections = tracer.calls.get("search.bisect_intersection", 0)
    if bisections:
        m["search.bisect_evals"] = tracer.pair_calls.get(
            ("search.bisect_intersection", "lowpower.linearized_rates"), 0) / bisections
    m["search.cells"] = float(wl.cells_per_item)
    if wl.name == "grid":
        m["search.ns_per_cell"] = 1e6 * m["search.grid_search_sum_rate.ms"] / wl.cells_per_item
    values = list(facts.values())
    scored = [f for f in values if "sum_rate" in f]

    def share(key, among=values):
        return sum(1 for f in among if f.get(key)) / len(among) if among else 0.0

    if wl.name == "sweep":
        m["search.refine_ms"] = _median_or_zero(refine, 1e3)
        m["search.coarse_ms"] = _median_or_zero(coarse, 1e3)
        m["search.refine_share"] = m["search.refine_ms"] / _median_or_zero(traced, 1e3)
        m["search.ns_per_cell"] = 1e6 * m["search.coarse_ms"] / wl.cells_per_item
        pairs = [(f["sum_rate_full"], unrefined[i]) for i, f in facts.items()
                 if "sum_rate_full" in f and unrefined.get(i) is not None]
        m["search.refine_win_ratio"] = sum(
            1 for refined, coarse_only in pairs
            if refined - coarse_only > 1e-9 * max(1.0, coarse_only)) / len(pairs)
        m["search.refine_gain_bits"] = sum(r - c for r, c in pairs) / len(pairs)
        m["cli.refused_ratio"] = share("refused")

    if probe is not None:
        m["search.feasible_cell_ratio"], m["model.infeasible_ratio"] = probe
    else:
        m["model.infeasible_ratio"] = share("rejected")
        m["search.feasible_cell_ratio"] = 1.0 - m["model.infeasible_ratio"]
    gaps = [f["closed_gap"] for f in values if "closed_gap" in f]
    m["lowpower.closed_gap_rel"] = sum(gaps) / len(gaps) if gaps else 0.0
    m["rates.truncated_ratio"] = share("truncated", scored)
    m["rates.mac_bind_ratio"] = (sum(f["mac_bind"] for f in scored) / (2 * len(scored))
                                 if scored else 0.0)
    m["beamforming.max_residual"] = max((f["residual"] for f in scored), default=0.0)
    sizes = [f["csv_bytes"] for f in values if "csv_bytes" in f]
    m["cli.csv_bytes"] = sum(sizes) / len(sizes) if sizes else 0.0
    m["input.det0_share"] = share("det0")
    m["input.boundary_share"] = share("boundary", scored)
    m["input.pr_gt_p_share"] = share("pr_gt_p")
    m["trace.overhead_ratio"] = sum(first_pass) / sum(untraced)
    m["trace.covered_ratio"] = tracer.root_total / sum(traced)
    spans_path = ROOT / ".perfbench_work" / f"spans-{wl.name}-{args.seed}.csv"
    tracer.write(spans_path)
    print(f"# workload {wl.name}, seed {args.seed}: {n_items} traced items, "
          f"{len(tracer.spans)} spans kept in {spans_path.relative_to(ROOT)}")
    print("# counters: " + json.dumps({c: m[c] for c in COUNTERS}, sort_keys=True))
    return m, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "imrc" / "__init__.py").is_file():
        print(f"perfbench: no imrc package under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    setup_times = None
    if not args.setup_probe and not args.trace:
        setup_times = measure_setup(args)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        from workloads import WORKLOADS
        wl = WORKLOADS[args.workload](args.seed, workdir)
        pool = wl.make_pool()
        loop = Loop(wl, pool)
        loop.run_one(0)  # untimed warm-up item
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.trace:
            metrics, failed = run_traced(args, wl, pool, loop)
            units = listed_units("per_layer")
            for name, unit in SCALAR_LAYER_UNITS.items():
                print(f"# {name} = {metrics[name]!r} {unit} (not listed)")
        else:
            metrics, failed = run_e2e(args, wl, pool, loop, setup_times)
            units = listed_units("end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for idx, message in loop.errors[:10]:
        print(f"# FAILED item {idx}: {message}")
    for name in units:
        print(f"# {name} = {metrics[name]!r} {units[name]}")
    result = {"correct": not loop.errors,
              "attempted": loop.attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
