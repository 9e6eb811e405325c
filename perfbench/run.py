"""Time-to-verdict benchmark for `ffr`.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the library is imported from
`./src`).  One client runs the workload's seeded corpus as a closed loop:
each instance is built from text, decided and checked against its known
answer before the next one starts.  The loop keeps cycling through the
corpus until `--seconds` have passed, always finishing one full pass and
skipping, after that, any instance whose last time exceeds the time left.

Times are reported in `ref`, the time of a fixed reference computation
(pure Python, independent of `ffr`) timed just before every instance; for
`cli`, whose instances are child interpreters, the reference is a child
interpreter importing a few standard modules.  An instance's cost is the
median over its repeats of its time over the median reference time within
half a second of it.  On a shared host the speed of the machine drifts by
up to a third for stretches of seconds to minutes; the drift slows the
reference as much as the library, so costs in `ref` stay put where times
in seconds do not.  The metrics are verdicts per thousand `ref` at the
corpus size (`verdicts_per_kref`) and the median and tail cost over the
instances; the summary line gives the same three figures in wall-clock
time, from each instance's fastest repeat.  Every instance is short enough
to repeat in a run.  `--long` adds the two long instances whose rows are
the ROADMAP baselines (Koszul n=5 to `certify`, cyclic-6 over F_p to
`gb`); they run once or twice at most, so such a run is not a benchmark
run.

Output: one JSON row per instance (`{"row": ...}`), a summary line and, as
the last line, the result object.  With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` the run makes one untraced and one traced
pass over the corpus and reports the per-layer metrics (see tracing.py).

Workloads (why each was chosen is recorded in BENCHMARK.json):
  certify  exactness certification, Cayley factorization and resultants:
           the only workload with determinantal work
  depth    depth + dimension of small seeded ideals: many small Groebner
           bases on extended rings
  gb       reduced bases of named and disguised dense systems: one long
           Buchberger loop per instance, Q and F_p twins
  cli      one `python -m ffr.cli` child per instance over all 16
           subcommands: interpreter start-up, import and report output
"""

from __future__ import annotations

import argparse
import bisect
import functools
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import decide  # noqa: E402

SETUP_REPS = 9
REF_WINDOW_S = 0.5
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
CORPORA = {
    "certify": lambda seed, refs, long: corpus.certify_corpus(seed, long),
    "depth": lambda seed, refs, long: corpus.depth_corpus(seed),
    "gb": corpus.gb_corpus,
    "cli": lambda seed, refs, long: corpus.cli_corpus(seed),
}


def setup(workload: str, seed: int, src: str, workdir: str,
          long: bool = False):
    """Import, corpus generation and loading the reference answers."""
    lib = decide.load_library(src)
    insts = CORPORA[workload](seed, corpus.load_refs(), long)
    if workload == "cli":
        for inst in insts:
            for name, doc in inst["data"]["files"].items():
                with open(os.path.join(workdir, name), "w",
                          encoding="utf-8") as fh:
                    json.dump(doc, fh)
        subprocess.run([sys.executable, "-m", "ffr.cli", "--version"],
                       cwd=workdir, env=decide.cli_env(lib), check=True,
                       capture_output=True, timeout=120)
    return lib, insts


def _reference_polys():
    rng = random.Random(0)

    def poly():
        return {tuple(rng.randrange(3) for _ in range(4)):
                Fraction(rng.choice([-7, -3, -1, 1, 2, 5]), rng.randint(1, 6))
                for _ in range(12)}
    return poly(), poly()


REF_POLYS = _reference_polys()


def reference_run() -> tuple[float, float]:
    """(start, duration) of the reference computation: a fixed product of
    two sparse polynomials with Fraction coefficients, pure Python and
    independent of `ffr`, the kind of work the library spends its time on.
    """
    t0 = time.perf_counter()
    corpus.pmul(*REF_POLYS)
    return t0, time.perf_counter() - t0


def reference_child(env: dict, cwd: str) -> tuple[float, float]:
    """(start, duration) of the reference for `cli`, whose timed work is a
    child interpreter: a child interpreter that imports a few standard
    modules, independent of `ffr`."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import argparse, fractions, json"],
                   env=env, cwd=cwd, check=True, capture_output=True,
                   timeout=120)
    return t0, time.perf_counter() - t0


class Runner:
    """Runs instances, times them and checks each verdict.

    Before each instance it collects garbage, so no instance pays for
    another's, and times `reference` (a function returning the start and
    duration of one reference run); `ref_costs()` divides each instance's
    time by the median reference time around it.
    """

    def __init__(self, lib, insts, workdir, reference=reference_run):
        self.lib = lib
        self.insts = insts
        self.workdir = workdir
        self.reference = reference
        self.samples = [[] for _ in insts]    # ms of each repeat
        self.intervals = [[] for _ in insts]  # (start, end) of each repeat
        self.refs: list[tuple[float, float]] = []
        self.attempted = self.failed = self.wrong = 0
        self.last: list = [None] * len(insts)  # last raw result per instance

    def run_one(self, i: int, child=None) -> float:
        inst = self.insts[i]
        self.attempted += 1
        gc.collect()
        self.refs.append(self.reference())
        t0 = time.perf_counter()
        try:
            raw = decide.decide(self.lib, inst, self.workdir, child)
        except Exception as exc:  # counted, reported, and the loop goes on
            t1 = time.perf_counter()
            self.failed += 1
            print(json.dumps({"error": inst["id"], "reason": repr(exc)}),
                  file=sys.stderr)
            return self._record(i, t0, t1)
        ms = self._record(i, t0, time.perf_counter())
        self.last[i] = raw
        if not decide.check(self.lib, inst, raw):
            self.wrong += 1
            print(json.dumps({"wrong": inst["id"]}), file=sys.stderr)
        return ms

    def _record(self, i: int, t0: float, t1: float) -> float:
        ms = (t1 - t0) * 1000
        self.samples[i].append(ms)
        self.intervals[i].append((t0, t1))
        return ms

    def ref_costs(self) -> list[float]:
        """Times one last reference run, then gives each instance's cost
        in `ref`: the median over its repeats of its time over the median
        reference time within REF_WINDOW_S of it."""
        self.refs.append(self.reference())
        starts = [t for t, _ in self.refs]

        def ref_time(t0, t1):
            lo = bisect.bisect_left(starts, t0 - REF_WINDOW_S)
            hi = bisect.bisect_right(starts, t1 + REF_WINDOW_S)
            return statistics.median(d for _, d in self.refs[lo:hi])
        return [statistics.median((t1 - t0) / ref_time(t0, t1)
                                  for t0, t1 in spans)
                for spans in self.intervals]

    def closed_loop(self, seconds: float, between) -> float:
        """Cycle through the corpus until `seconds` have passed.

        The first pass always completes; after it, an instance whose last
        time exceeds the time left is skipped, so one long instance neither
        overruns the deadline nor ends the loop for the short ones.
        `between(elapsed)` runs after every instance.
        """
        n = len(self.insts)
        t_start = time.perf_counter()
        deadline = t_start + seconds
        for i in range(n):
            self.run_one(i)
            between(time.perf_counter() - t_start)
        idle = 0
        i = 0
        while idle < n:
            left = deadline - time.perf_counter()
            if left <= 0:
                break
            if self.samples[i][-1] / 1000 <= left:
                self.run_one(i)
                between(time.perf_counter() - t_start)
                idle = 0
            else:
                idle += 1
            i = (i + 1) % n
        return time.perf_counter() - t_start


def timing_metrics(costs: list[float], names) -> dict:
    """Verdicts per thousand units of cost at the corpus size, and the
    median and tail percentile over the instances, from one cost per
    instance; `names` names the three figures."""
    n = len(costs)
    ordered = sorted(costs)
    return dict(zip(names, (
        n * 1000 / sum(costs), statistics.median(ordered),
        ordered[_rank(tail_percentile(n), n) - 1])))


def tail_percentile(n: int) -> float:
    """The highest percentile with at least 10 of n instances beyond it."""
    return max(p for p in PERCENTILES if n - _rank(p, n) >= 10)


def _rank(p: float, n: int) -> int:
    """Nearest-rank position (1-based) of the p-th percentile of n values."""
    return max(1, -(-p * n // 100))


def _rows(runner: Runner, best, costs) -> None:
    for inst, ms, cost, samples, raw in zip(runner.insts, best, costs,
                                            runner.samples, runner.last):
        print(json.dumps({"row": {
            "id": inst["id"], "kind": inst["kind"], "size": inst["size"],
            "field": inst["field"], "ms": round(ms, 3),
            "ref": round(cost, 3), "runs": len(samples),
            "verdict": _verdict_text(inst, raw)}}))


def _verdict_text(inst, raw) -> str:
    if raw is None:
        return "failed"
    kind = inst["kind"]
    if kind.startswith("cli:"):
        return json.loads(raw[0]).get("verdict", "?")
    if kind in ("koszul", "koszul-disguised", "koszul-broken", "taylor"):
        return ("exact" if raw.exact else
                f"not exact at level {raw.failing_level}")
    if kind in ("cayley", "resultant"):
        return f"det {raw}"
    if kind in ("cyclic", "katsura", "dense"):
        return f"basis of {len(raw)}"
    return f"depth {raw[0]}, dim {raw[1]}"


def _result(runner: Runner, metrics: dict, units: dict) -> dict:
    return {"correct": runner.wrong == 0 and runner.failed == 0,
            "attempted": runner.attempted, "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


UNITS = {"verdicts_per_kref": "1/kref", "verdict_p50_ref": "ref",
         "verdict_tail_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
REF_NAMES = ("verdicts_per_kref", "verdict_p50_ref", "verdict_tail_ref")
WALL_NAMES = ("verdicts_per_s", "verdict_p50_ms", "verdict_tail_ms")


def settle() -> None:
    """Collect garbage and freeze what is left, so that the collection
    before each instance only walks what instances leave behind."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def measure(runner: Runner, workload: str, seconds: float,
            setup_times: list, setup_again) -> dict:
    """The timed loop; set-up is repeated at even intervals during it, so
    its median spans the run as the other metrics do."""
    def timed_setup():
        t0 = time.perf_counter()
        setup_again()
        setup_times.append(time.perf_counter() - t0)
        settle()

    def between(elapsed):
        if len(setup_times) < SETUP_REPS and \
                elapsed >= seconds * len(setup_times) / SETUP_REPS:
            timed_setup()

    elapsed = runner.closed_loop(seconds, between)
    while len(setup_times) < SETUP_REPS:
        timed_setup()
    costs = runner.ref_costs()
    best = [min(s) for s in runner.samples]
    _rows(runner, best, costs)
    n = len(runner.insts)
    metrics = timing_metrics(costs, REF_NAMES)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else \
        resource.RUSAGE_SELF
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    print(json.dumps({"summary": {
        "workload": workload, "corpus_size": n,
        "measured_s": round(elapsed, 3),
        "tail_percentile": tail_percentile(n), "samples": n,
        "reference_ms_median": 1000 * statistics.median(
            d for _, d in runner.refs),
        # wall-clock figures from each instance's fastest repeat
        "wall": timing_metrics(best, WALL_NAMES),
        "wrong_verdict_ratio": runner.wrong / runner.attempted,
        "failed_ratio": runner.failed / runner.attempted}}))
    return _result(runner, metrics, UNITS)


def measure_traced(runner: Runner, workload: str, seed: int,
                   workdir: str) -> dict:
    """One pass in which every instance runs untraced, then traced.

    Pairing the two runs of each instance keeps the overhead estimate clear
    of slow phases of the machine.  The cli metrics come from the untraced
    children: start-up is the child's wall time minus its report's
    `timing_ms`.
    """
    import tracing
    tracer = tracing.Tracer(None if workload == "cli" else runner.lib)
    span_file = os.path.join(workdir, "child-spans.json")
    child = (os.path.join(HERE, "cli_child.py"), span_file)
    untraced, traced, reports = [], [], []
    for i in range(len(runner.insts)):
        untraced.append(runner.run_one(i))
        reports.append(runner.last[i])
        tracer.current_instance = i
        if workload == "cli":
            traced.append(runner.run_one(i, child))
            with open(span_file, encoding="utf-8") as fh:
                tracer.merge(json.load(fh), i)
        else:
            with tracer.active():
                traced.append(runner.run_one(i))
    metrics = {name: 0 for name, _ in tracing.PER_LAYER}
    metrics.update(tracing.layer_metrics(tracer))
    summary = {}
    if workload == "cli" and all(reports):
        timing = [json.loads(out)["timing_ms"] for out, _ in reports]
        walls = [wall for _, wall in reports]
        metrics["cli.startup_ms"] = statistics.median(
            w - t for w, t in zip(walls, timing))
        metrics["cli.report_ms"] = statistics.median(timing)
        # without the `timing_ms` line, whose digits vary from run to run
        metrics["cli.report_bytes"] = sum(
            len(line.encode()) + 1 for out, _ in reports
            for line in out.splitlines()
            if not line.lstrip().startswith('"timing_ms"'))
        summary["cli_startup_share_median"] = statistics.median(
            (w - t) / w for w, t in zip(walls, timing))
    tracer.write(os.path.join(workdir, f"spans-{workload}-{seed}.json"))
    self_total = sum(metrics[f"{layer}.self_s"] for layer in decide.LAYERS)
    print(json.dumps({"summary": {
        "workload": workload, "corpus_size": len(runner.insts),
        "spans": len(tracer.name),
        "untraced_s": sum(untraced) / 1000, "traced_s": sum(traced) / 1000,
        "tracing_overhead": sum(traced) / sum(untraced) - 1,
        "determinantal_share": metrics["complexes.det_ideal_s"]
        / (sum(traced) / 1000),
        "layer_self_share": {layer: metrics[f"{layer}.self_s"] / self_total
                             for layer in decide.LAYERS} if self_total else {},
        **summary}}))
    return _result(runner, metrics, dict(tracing.PER_LAYER))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(CORPORA))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--long", action="store_true",
                    help="add the long instances whose rows compare with "
                    "the ROADMAP baselines (Koszul n=5 certification, "
                    "cyclic-6 over F_p); not a benchmark run")
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "ffr", "__init__.py")):
        print("run.py: no ./src/ffr here; run from a source checkout",
              file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, ".work", args.workload)
    os.makedirs(workdir, exist_ok=True)

    t0 = time.perf_counter()
    lib, insts = setup(args.workload, args.seed, src, workdir, args.long)
    setup_times = [time.perf_counter() - t0]
    settle()
    runner = Runner(lib, insts, workdir, functools.partial(
        reference_child, decide.cli_env(lib), workdir)
        if args.workload == "cli" else reference_run)
    if args.trace:
        result = measure_traced(runner, args.workload, args.seed, workdir)
    else:
        result = measure(runner, args.workload, args.seconds, setup_times,
                         lambda: setup(args.workload, args.seed, src,
                                       workdir, args.long))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
