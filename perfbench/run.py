"""End-to-end benchmark of the spatialvote CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One client runs the workload's query list in a closed loop: every query is
a fresh `python -m spatialvote.cli ...` process, and the next starts only
after it has exited, so a query pays what a CLI user pays, cold caches and
interpreter start included.  Passes over the list repeat until `--seconds`
have elapsed; times are medians over passes, scaled to a reference CPU
speed sampled while each query runs (see SpeedSampler).  Every query's exit code and
stdout are checked (see checks.py); every later run of a query must repeat
its first output byte for byte.

With `--trace 1` untraced passes alternate with passes whose queries run
under tracer.py, and the per-layer metrics come from the traced passes.
Work counts must repeat exactly between traced passes, the workload's
dominant layer must have the largest self time, and the layers it bypasses
must record no calls.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it print every metric
by name with its unit.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import checks
from workloads import DEFAULT_SEED, WORKLOADS, make_documents

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"

QUERY_TIMEOUT_S = 30.0
RUN_LIMIT_S = 150.0  # no query starts later than this after the run began
SETUP_SAMPLES_PER_PASS = 3
COUNT_SUFFIXES = ("calls", "rows", "jobs", "completions")

# On a shared 2-vCPU VM (Intel Xeon, 2.1 GHz) a fixed loop's time swings by
# up to 2.4x within seconds, independently on each CPU, and query times move
# with it.  So the
# benchmark and its queries share one CPU, and while a query runs a thread
# of the benchmark times a short fixed loop every SAMPLE_PERIOD_S on that
# CPU.  The query's time is scaled by SAMPLE_REF_S over the mean sample:
# times are seconds at the speed where the loop takes SAMPLE_REF_S.  The
# samples take about 4% of the CPU from the query.
SAMPLE_PERIOD_S = 0.01
SAMPLE_REF_S = 0.00035


def speed_sample() -> float:
    """Time a fixed stdlib-only loop of the kind the package runs."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 100):
        acc += Fraction(i % 97, i % 89 + 1)
    return time.perf_counter() - start


class SpeedSampler(threading.Thread):
    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list[float] = []
        self.stop = threading.Event()

    def run(self) -> None:
        while not self.stop.wait(SAMPLE_PERIOD_S):
            self.samples.append(speed_sample())

    def speed(self) -> float:
        """Reference speed over this sampler's speed, after stopping it."""
        self.stop.set()
        self.join()
        return SAMPLE_REF_S / statistics.mean(self.samples or [speed_sample()])


COMMAND_METRIC = {
    "rankings": "rankings_s",
    "pw": "pw_s",
    "nw": "nw_s",
    "oracle": "oracle_s",
    "faces": "faces_s",
    "reduce-sched": "reduce_s",
}
END_TO_END = ("setup_s", "wall_s", "pw_s", "nw_s", "peak_rss_mb")  # as in BENCHMARK.json


class Runner:
    """Runs query processes one at a time and keeps a record of each."""

    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.deadline = started + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.records: list[dict] = []

    def spawn(self, argv: list[str]) -> dict:
        """Run one process to completion; time it and read its peak RSS."""
        timeout = max(0.0, min(QUERY_TIMEOUT_S, self.deadline - time.perf_counter()))
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        state = {"done": False, "timed_out": False}
        lock = threading.Lock()
        sampler = SpeedSampler()
        sampler.start()
        try:
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                start = time.perf_counter()
                proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)

                def kill():
                    with lock:
                        if not state["done"]:
                            state["timed_out"] = True
                            proc.kill()

                timer = threading.Timer(timeout, kill)
                timer.start()
                try:
                    # wait without reaping, so the timer can never signal a reused pid
                    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                    elapsed = time.perf_counter() - start
                    with lock:
                        state["done"] = True
                finally:
                    timer.cancel()
                    timer.join()
                _, status, usage = os.wait4(proc.pid, 0)
        finally:
            speed = sampler.speed()
        return {
            "seconds": timeout if state["timed_out"] else elapsed * speed,
            "raw_s": timeout if state["timed_out"] else elapsed,
            "speed": speed,
            "code": None if state["timed_out"] else os.waitstatus_to_exitcode(status),
            "stdout": out_path.read_bytes(),
            "stderr": err_path.read_bytes()[:500],
            "rss_mb": usage.ru_maxrss / 1024,
        }

    def query(self, label: str, argv: list[str], traced: bool) -> dict:
        if traced:
            spans = self.workdir / "spans.json"
            spans.unlink(missing_ok=True)
            result = self.spawn([sys.executable, str(HERE / "tracer.py"), str(spans), "--", *argv])
            result["trace"] = json.loads(spans.read_text()) if spans.exists() else None
        else:
            result = self.spawn([sys.executable, "-m", "spatialvote.cli", *argv])
        result.update(label=label, command=argv[0], traced=traced)
        stdout = result.pop("stdout")
        result["sha256"] = hashlib.sha256(stdout).hexdigest() if result["code"] == 0 else None
        if result["code"] == 0 and not self.records_for(label):
            result["stdout_bytes"] = stdout
        self.records.append(result)
        return result

    def records_for(self, label: str) -> list[dict]:
        return [r for r in self.records if r["label"] == label]

    def setup_time(self) -> float:
        return self.spawn([sys.executable, "-c", "import spatialvote.cli"])["seconds"]


def write_documents(workload, seed: int, workdir: Path) -> tuple[dict, list[tuple[str, str, list[str]]]]:
    docs = make_documents(workload, seed)
    paths = {}
    for key, doc in docs.items():
        paths[key] = workdir / f"{key}.json"
        paths[key].write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    queries = []
    for key, args in workload.queries:
        label = f"{key}: {' '.join(args)}"
        queries.append((label, key, [*args, "--instance", str(paths[key])]))
    return docs, queries


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_outputs(docs: dict, queries, runner: Runner, seed: int, name: str) -> dict[str, list[str]]:
    """Problems per query label, from the first output of each query."""
    problems: dict[str, list[str]] = {label: [] for label, _, _ in queries}
    payloads = {}
    for label, key, argv in queries:
        first = runner.records_for(label)[0]
        if first["code"] != 0:
            problems[label].append(f"exit code {first['code']}: {first['stderr']!r}")
            continue
        payload = payloads[label] = json.loads(first["stdout_bytes"])
        doc, cmd = docs[key], argv[0]
        if cmd == "rankings":
            problems[label] += checks.check_rankings(doc, payload)
        elif cmd in ("pw", "nw", "oracle"):
            possible = cmd == "pw" or argv[1] == "pw"
            problems[label] += checks.check_winners(doc, payload, possible)
        elif cmd == "faces":
            problems[label] += checks.check_faces(doc, payload)
        elif cmd == "reduce-sched":
            problems[label] += checks.check_reduction(doc, int(argv[argv.index("--k") + 1]), payload)

    def winners(label):
        return set(payloads[label]["winners"]) if label in payloads and "winners" in payloads[label] else None

    by_pair: dict[tuple, dict[str, str]] = {}
    for label, key, argv in queries:
        if argv[0] in ("pw", "nw", "oracle"):
            which = argv[1] if argv[0] == "oracle" else argv[0]
            rule = argv[argv.index("--rule") + 1]
            by_pair.setdefault((key, rule), {})[f"{argv[0]} {which}"] = label
    for (key, rule), labels in by_pair.items():
        for pw_kind in ("pw pw", "oracle pw"):
            for nw_kind in ("nw nw", "oracle nw"):
                pw, nw = winners(labels.get(pw_kind)), winners(labels.get(nw_kind))
                if pw is not None and nw is not None and not nw <= pw:
                    problems[labels[nw_kind]].append(f"NW {sorted(nw)} not within PW {sorted(pw)} for {rule}")
        for alg, ref in (("pw pw", "oracle pw"), ("nw nw", "oracle nw")):
            got, want = winners(labels.get(alg)), winners(labels.get(ref))
            if got is not None and want is not None and got != want:
                problems[labels[alg]].append(f"{sorted(got)} differs from the oracle's {sorted(want)}")

    if seed == DEFAULT_SEED:
        golden = json.loads(GOLDEN.read_text()).get(name, {}) if GOLDEN.exists() else {}
        for label, _, _ in queries:
            first = runner.records_for(label)[0]
            want = golden.get(label)
            if want != {"exit": first["code"], "sha256": first["sha256"]}:
                problems[label].append(f"output differs from the recorded golden {want}")
    return problems


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


def query_layers(trace: dict, doc: dict, speed: float) -> dict[str, float]:
    """Calls and self time per span name, plus the tracer's counts; self
    times are scaled by the query's sampled speed."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), inner in zip(spans, child):
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + ((end - start) - inner) * speed
    out.update(trace["counts"])
    oracle_calls = out.get("oracle.calls", 0)
    if oracle_calls:
        out["oracle.completions"] = oracle_calls * (checks.completion_count(doc) if doc["dimension"] == 1 else 0)
    return out


def layer_metrics(total: dict[str, float]) -> dict[str, float]:
    def get(key):
        return total.get(key, 0)

    def ratio(num, den):
        return get(num) / get(den) if get(den) else 0.0

    hits, misses = get("geometry.cache_hits"), get("geometry.cache_misses")
    return {
        "lfp.feasible.calls": get("lfp.feasible.calls"),
        "lfp.feasible.rows": get("lfp.rows"),
        "lfp.feasible.empty_frac": ratio("lfp.empty", "lfp.feasible.calls"),
        "lfp.feasible.self_s": get("lfp.feasible.self_s"),
        "geometry.enumerate_rankings_1d.calls": get("geometry.enumerate_rankings_1d.calls"),
        "geometry.enumerate_rankings_1d.self_s": get("geometry.enumerate_rankings_1d.self_s"),
        "model.rank_from_point.calls": get("model.rank_from_point"),
        "geometry.enumerate_rankings_dd.self_s": get("geometry.enumerate_rankings_dd.self_s"),
        "geometry.rankings_per_voter": ratio("geometry.rankings", "geometry.enumerations"),
        "geometry.specify_faces.self_s": get("geometry.specify_faces.self_s"),
        "geometry.ranking_completions.calls": get("geometry.ranking_completions.calls"),
        "geometry.ranking_completions.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "scheduling.feasible_equal_length.calls": get("scheduling.feasible_equal_length.calls"),
        "scheduling.feasible_equal_length.jobs": get("scheduling.jobs"),
        "scheduling.feasible_equal_length.feasible_frac": ratio(
            "scheduling.feasible", "scheduling.feasible_equal_length.calls"
        ),
        "scheduling.feasible_equal_length.self_s": get("scheduling.feasible_equal_length.self_s"),
        "scheduling.reduce_scheduling_to_pw.self_s": get("scheduling.reduce_scheduling_to_pw.self_s"),
        "winners.flow.self_s": get("winners.flow.self_s"),
        "winners.necessary_winner.self_s": get("winners.necessary_winner.self_s"),
        "winners.two_valued.self_s": get("winners.two_valued.self_s"),
        "oracle.calls": get("oracle.calls"),
        "oracle.self_s": get("oracle.self_s"),
        "oracle.completions": get("oracle.completions"),
        "cli.main.self_s": get("cli.main.self_s"),
        "cli.parse.self_s": get("cli.parse.self_s"),
        "cli.serialize.self_s": get("cli.serialize.self_s"),
    }


def layer_self_times(total: dict[str, float]) -> dict[str, float]:
    """Self time per module: the span name up to its first dot."""
    out: dict[str, float] = {}
    for key, value in total.items():
        if key.endswith(".self_s"):
            layer = key.split(".")[0]
            out[layer] = out.get(layer, 0.0) + value
    return out


def is_count(key: str) -> bool:
    return not key.endswith(".self_s")


def trace_problems(workload, passes: list[dict[str, dict]]) -> list[str]:
    """Repeat, dominance and bypass checks over the traced passes."""
    if not passes:
        return []
    problems = []
    first = passes[0]
    for later in passes[1:]:
        for label in first.keys() | later.keys():
            a = {k: v for k, v in first.get(label, {}).items() if is_count(k)}
            b = {k: v for k, v in later.get(label, {}).items() if is_count(k)}
            if a != b:
                diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
                problems.append(f"{label}: work counts differ between traced passes: {diff}")
    selves = layer_self_times(sum_layers(layers for p in passes for layers in p.values()))
    top = max(selves, key=selves.get)
    if top != workload.dominant:
        problems.append(f"dominance: {top} has the largest self time, expected {workload.dominant}")
    metrics = layer_metrics(sum_layers(first.values()))
    for key in workload.zero_calls:
        if metrics[key] != 0:
            problems.append(f"bypass: {key} = {metrics[key]}, expected 0")
    return problems


def sum_layers(items) -> dict[str, float]:
    total: dict[str, float] = {}
    for layers in items:
        for key, value in layers.items():
            total[key] = total.get(key, 0) + value
    return total


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-golden", action="store_true",
        help="store the exit code and stdout SHA-256 of every query at the default seed",
    )
    args = parser.parse_args()
    if not (SRC / "spatialvote" / "cli.py").is_file():
        print(f"no spatialvote sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_golden and args.seed != DEFAULT_SEED:
        parser.error("--record-golden needs the default seed")
    sys.path.insert(0, str(SRC))

    # One CPU for this process and every query it starts (see SpeedSampler).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    started = time.perf_counter()
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    docs, queries = write_documents(workload, args.seed, workdir)
    runner = Runner(workdir, started)
    runner.setup_time()  # compile the package's bytecode before anything is timed

    passes: list[dict] = []
    measure_start = time.perf_counter()
    while True:
        untraced = sum(1 for p in passes if not p["traced"])
        traced = args.trace == 1 and untraced > (len(passes) - untraced) // 2
        one = {"traced": traced, "commands": {}, "layers": {}, "raw": []}
        one["setup"] = [] if traced else [runner.setup_time() for _ in range(SETUP_SAMPLES_PER_PASS)]
        for label, key, argv in queries:
            rec = runner.query(label, argv, traced)
            one["commands"][rec["command"]] = one["commands"].get(rec["command"], 0.0) + rec["seconds"]
            one["raw"].append(rec["raw_s"])
            if traced and rec["trace"] is not None:
                one["layers"][label] = query_layers(rec["trace"], docs[key], rec["speed"])
        one["wall"] = sum(one["commands"].values())
        passes.append(one)
        untraced += not traced
        enough = args.trace == 0 or (untraced and len(passes) - untraced >= 2)
        if (time.perf_counter() - measure_start >= args.seconds and enough) or time.perf_counter() - started > RUN_LIMIT_S:
            break
    (workdir / "passes.json").write_text(json.dumps([{k: v for k, v in p.items() if k != "layers"} for p in passes]))
    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]

    first_sha = {label: runner.records_for(label)[0]["sha256"] for label, _, _ in queries}
    if args.record_golden:
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        golden[args.workload] = {
            label: {"exit": runner.records_for(label)[0]["code"], "sha256": first_sha[label]}
            for label, _, _ in queries
        }
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")

    problems = check_outputs(docs, queries, runner, args.seed, args.workload)
    failed = sum(
        1 for r in runner.records
        if r["code"] != 0 or r["sha256"] != first_sha[r["label"]] or problems[r["label"]]
    )
    attempted = len(runner.records)
    for label, found in problems.items():
        for p in found:
            print(f"FAIL {label}: {p}", file=sys.stderr)

    report: dict[str, tuple[float, str]] = {}
    for cmd in sorted({argv[0] for _, _, argv in queries}):
        report[COMMAND_METRIC[cmd]] = (statistics.median(p["commands"][cmd] for p in plain), "s")
    report["wall_s"] = (statistics.median(p["wall"] for p in plain), "s")
    report["setup_s"] = (statistics.median(x for p in plain for x in p["setup"]), "s")
    report["peak_rss_mb"] = (max(r["rss_mb"] for r in runner.records if not r["traced"]), "MB")
    report["raw_wall_s"] = (statistics.median(sum(p["raw"]) for p in plain), "s")
    if args.trace == 0:
        metrics = {name: report[name] for name in END_TO_END}
    else:
        trace_failures = trace_problems(workload, [p["layers"] for p in traced_passes])
        if len(traced_passes) < 2:
            trace_failures.append(f"{len(traced_passes)} traced passes in {RUN_LIMIT_S} s, need 2")
        for p in trace_failures:
            print(f"FAIL trace: {p}", file=sys.stderr)
        failed += len(trace_failures)
        totals = [layer_metrics(sum_layers(p["layers"].values())) for p in traced_passes] or [layer_metrics({})]
        metrics = {}
        for key in totals[0]:
            if key.endswith("self_s"):
                metrics[key] = (statistics.median(t[key] for t in totals), "s")
            else:
                metrics[key] = (totals[0][key], "count" if key.endswith(COUNT_SUFFIXES) else "ratio")
        overhead = statistics.median(p["wall"] for p in traced_passes) / statistics.median(p["wall"] for p in plain)
        metrics["trace.overhead"] = (overhead, "ratio")
        for layer, value in sorted(layer_self_times(sum_layers(traced_passes[0]["layers"].values() if traced_passes else [])).items()):
            report[f"layer.{layer}.self_s"] = (value, "s")
        report.update(metrics)
    report["failed_frac"] = (failed / attempted, "ratio")
    report["passes"] = (len(passes), "count")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  queries/pass {len(queries)}")
    for name, (value, unit) in report.items():
        print(f"  {name:48s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
