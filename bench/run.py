"""Benchmark of the leemodel package: three seeded workloads, end-to-end
metrics, and a traced run with per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload sweep-bare --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``sweep-bare`` (CLI g0 sweeps, root-finding),
``points-ren`` (independent renormalized points, no root solve),
``oracle-ladder`` (arrowhead oracle validation).  Load is one caller in a
closed loop: the next job starts when the previous one returns.

``--trace 0`` measures, with tracing off, in one fresh worker process:
  setup_s      median wall time of a fresh ``python -m leemodel --config`` on a
               free-theory point (g0 = 0, no integrals), over several starts
  job_ms_p50   median job wall time
  job_ms_p90   90th percentile job wall time (a run holds at least 100 jobs,
               so at least 10 lie beyond it)
  points_per_s parameter points finished / summed job wall time
  ok_frac      1 - failed_frac, where failed_frac = (typed errors + outputs
               outside the reference tolerance) / points attempted
  peak_rss_mb  peak resident memory of the process that ran the jobs
Every wall time above is rescaled to a fixed host speed (see CAL_REF_S).
``--trace 1`` records spans for a fixed prefix of the job stream, then runs
untraced for the rest of the time, and reports the per-layer metrics of
spans.py and the import split measured with ``python -X importtime``.
After the timed part, both modes print how many points of a near-threshold
probe raise (see workloads.ThresholdProbe); a traced run also reports that
share as renorm.near_threshold_fail_frac.

Every run first checks the mpmath reference in reference.py against the
golden constants in tests/helpers.py (exit code 3 if it fails), then checks
a seeded sample of outputs against it.  The last line of standard output is
one JSON object with keys correct, attempted, failed and metrics.  Scratch
files and the span dump go to bench/out/.
"""

from __future__ import annotations

import argparse
import array
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One caller and no extra threads: numpy's BLAS would otherwise start a thread
# per core, and on a small machine those contend with the caller.  Set before
# numpy is first imported; child processes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

MIN_JOBS = 100          # p90 then has at least 10 samples beyond it
HARD_STOP_S = 60.0      # a timed loop ends here even short of its minimum jobs
# Host speed.  On a host shared with other tenants the same job can run 1.5
# times slower from one repeat to the next, and the speed drifts by as much
# over minutes, with no change to the program.  The timed loop therefore
# runs a fixed calibration kernel (the benchmark's own code, not the
# package's) between jobs whenever CAL_EVERY_S has passed since the last
# one, and multiplies every job time by CAL_REF_S / (mean of the kernel times
# just before and just after the job): times read as they would at the host
# speed where the kernel takes CAL_REF_S.  On a 2-core shared virtual machine
# that cut the median max/min ratio of four repeats of the same oracle-ladder
# job from 1.66 to 1.22, where a median kernel time over a 2 s window only
# reached 1.37.  A change to the package does not touch the kernel, so its
# gain or loss shows in full.
CAL_EVERY_S = 0.05
CAL_REF_S = 0.0070
SETUP_REPEATS = 9
IMPORT_REPEATS = 7
CHILD_TIMEOUT_S = 60

FREE_CONFIG = {
    "model": {"m_N": 1.0, "mu": 1.0, "form_factor": {"kind": "sharp", "lambda": 10.0}},
    "input": {"mode": "bare", "m_V0": 1.8, "g0": 0.0},
}


def fail(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(code)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def calibrate() -> float:
    """Wall time, in s, of a fixed kernel that mixes the two kinds of work the
    package does: numpy arithmetic on arrays of integrand nodes, and
    interpreted Python."""
    import numpy as np

    k = np.linspace(0.0, 40.0, 4096)
    start = time.perf_counter()
    total = 0.0
    for i in range(96):
        om = np.sqrt(k * k + (1.0 + i))
        total += float(np.sum(np.exp(-2.0 * om / 7.0) / (2.0 * om)))
    n = 0
    for i in range(36000):
        n += i * i % 7
    return time.perf_counter() - start


def rescale(times, stamps, cal: list[tuple[float, float]]):
    """Job times at the reference host speed, from the calibration samples
    (start, kernel time), which bracket every job start in ``stamps``."""
    import numpy as np

    cal_at = np.array([at for at, _ in cal])
    kernel = np.array([k for _, k in cal])
    after = np.searchsorted(cal_at, np.frombuffer(stamps), side="right")
    return np.frombuffer(times) * 2.0 * CAL_REF_S / (kernel[after - 1] + kernel[after])


class Outcomes:
    """What a run keeps of its point records: the count, every failed point,
    every oracle record, and a uniform sample (a reservoir) of the other
    successful points for the reference check.  Memory does not grow with
    the number of points, so peak RSS does not depend on how many jobs fit
    in the run."""

    def __init__(self, seed: int, sample: int):
        self.rng = random.Random(seed)
        self.size = sample
        self.attempted = self.done = 0
        self.errors, self.oracle, self.sample = [], [], []

    def add(self, point: dict) -> None:
        point["seq"] = self.attempted
        self.attempted += 1
        if point["error"]:
            self.errors.append(point)
            return
        if "oracle" in point:
            self.oracle.append(point)
        self.done += 1
        if len(self.sample) < self.size:
            self.sample.append(point)
        else:
            j = self.rng.randrange(self.done)
            if j < self.size:
                self.sample[j] = point

    def to_json(self) -> dict:
        return {key: getattr(self, key) for key in
                ("attempted", "done", "errors", "oracle", "sample")}

    @classmethod
    def from_json(cls, doc: dict) -> "Outcomes":
        out = cls(0, len(doc["sample"]))
        for key, value in doc.items():
            setattr(out, key, value)
        return out


def measure_setup(workdir: str) -> float:
    """Median wall time of a fresh CLI process on the free-theory point, each
    start rescaled by the median of three kernel times before and three after."""
    config = os.path.join(workdir, "free.json")
    table = os.path.join(workdir, "free.csv")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(FREE_CONFIG, fh)
    times = []
    for _ in range(SETUP_REPEATS):
        cal = [calibrate() for _ in range(3)]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "leemodel", "--config", config,
                               "--out", table], cwd=workdir, env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        cal += [calibrate() for _ in range(3)]
        times.append(elapsed * CAL_REF_S / statistics.median(cal))
        if proc.returncode != 0:
            fail(f"free-theory CLI run exited {proc.returncode}: {proc.stderr.strip()}")
    with open(table, encoding="utf-8") as fh:
        row = fh.read().splitlines()[1].split(",")
    # free theory: m_V = m_V0 to root tolerance, Z = 1 exactly, x = 0
    if not (abs(float(row[1]) - 1.8) <= 1e-11 and row[7] == "1" and row[6] == "0"
            and row[9] == "Normal"):
        fail(f"free-theory CLI row is wrong: {row}", 1)
    return statistics.median(times)


def measure_imports() -> tuple[float, float]:
    """Median cumulative import time of leemodel and of scipy.special, in s."""
    found = {"leemodel": [], "scipy.special": []}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import leemodel"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            fail(f"import leemodel failed in a fresh interpreter: {proc.stderr[-500:]}")
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                name = parts[2].strip()
                if name in found and parts[1].strip().isdigit():
                    seen[name] = int(parts[1]) * 1e-6
        for name in found:
            found[name].append(seen.get(name, 0.0))
    return statistics.median(found["leemodel"]), statistics.median(found["scipy.special"])


def timed_loop(wl, stream, outcomes: Outcomes, seconds: float = math.inf,
               min_jobs: int = 0, recorder=None):
    """Closed loop over ``stream`` until it ends, or until ``seconds`` have
    passed and ``min_jobs`` jobs ran (or HARD_STOP_S passed), with a
    calibration sample at the start, between jobs once CAL_EVERY_S has passed
    since the last, and at the end.  Adds the points to ``outcomes``; returns
    the job wall times at the reference host speed, as a numpy array.

    Times are kept in flat arrays, so the loop's memory barely grows with
    the number of jobs."""
    times, stamps, cal = array.array("d"), array.array("d"), []
    started = next_cal = time.perf_counter()
    for job in stream:
        now = time.perf_counter()
        if now - started >= seconds and (len(times) >= min_jobs
                                         or now - started >= HARD_STOP_S):
            break
        if now >= next_cal:
            cal.append((now, calibrate()))
            next_cal = time.perf_counter() + CAL_EVERY_S
        wl.prepare(job)
        if recorder is not None:
            recorder.job = job["index"]
        t0 = time.perf_counter()
        raw = wl.run(job) if recorder is None else recorder.span("job", lambda: wl.run(job))
        times.append(time.perf_counter() - t0)
        stamps.append(t0)
        for point in wl.collect(job, raw):
            outcomes.add(point)
    cal.append((time.perf_counter(), calibrate()))
    return rescale(times, stamps, cal)


def check_outputs(outcomes: Outcomes) -> tuple[int, bool, list[str]]:
    """Reference checks of a run's points; returns (points failed, correct, messages).

    A point fails when it raised a typed error or missed a reference
    tolerance; every oracle record is checked, and a uniform sample of the
    successful points against the mpmath reference.  The run is incorrect
    when a miss is gross (see reference.GROSS) or when more than a quarter of
    the sampled points miss: that many means a systematic loss of accuracy.
    """
    import reference

    misses: dict[int, list[tuple[float, str]]] = {}
    for point in outcomes.oracle:
        found = reference.check_oracle(point)
        if found:
            misses[point["seq"]] = found
    sampled_misses = 0
    for point in outcomes.sample:
        try:
            found = reference.check_continuum(point)
        except reference.ReferenceError as exc:
            fail(f"reference could not evaluate a sampled point: {exc}", 3)
        if found:
            misses.setdefault(point["seq"], []).extend(found)
            sampled_misses += 1
    gross = sum(1 for found in misses.values() if max(r for r, _ in found) > reference.GROSS)
    correct = gross == 0 and 4 * sampled_misses <= len(outcomes.sample)
    messages = [f"{'WRONG' if r > reference.GROSS else 'outside tolerance'} "
                f"({r:.3g}x): {m}" for found in misses.values() for r, m in found]
    print(f"checked {len(outcomes.sample)} sampled points against the mpmath reference"
          + (f" and {len(outcomes.oracle)} oracle ladders" if outcomes.oracle else "")
          + f": {len(misses)} outside tolerance, {gross} of them wrong")
    return len(outcomes.errors) + len(misses), correct, messages


def self_test() -> None:
    """Fail loudly unless the reference reproduces the golden constants."""
    import reference

    try:
        broken = reference.self_test(ROOT)
    except (OSError, reference.ReferenceError) as exc:
        broken = [str(exc)]
    if broken:
        fail("reference self-test failed: " + "; ".join(broken), 3)


def summarize_errors(errors: list[dict]) -> str:
    kinds: dict[str, int] = {}
    for p in errors:
        kind = p["error"].split(":")[0]
        kinds[kind] = kinds.get(kind, 0) + 1
    return ", ".join(f"{k} x{v}" for k, v in sorted(kinds.items())) or "none"


def repeat_counters(wl, jobs: int) -> dict:
    """Deterministic counters of the first ``jobs`` jobs, traced in this process."""
    from spans import DETERMINISTIC, SpanRecorder, layer_metrics

    recorder = SpanRecorder()
    recorder.install()
    try:
        timed_loop(wl, itertools.islice(wl.jobs(), jobs), Outcomes(wl.seed, 0),
                   recorder=recorder)
    finally:
        recorder.uninstall()
    metrics = layer_metrics(recorder.spans)
    return {key: metrics[key] for key in DETERMINISTIC}


def threshold_probe(seed: int, workdir: str) -> float:
    """Evaluate the near-threshold points of workloads.ThresholdProbe, after
    the timed part; print and return the share that raise."""
    from workloads import ThresholdProbe

    probe = ThresholdProbe(seed, workdir)
    probed = Outcomes(seed, 0)
    timed_loop(probe, itertools.islice(probe.jobs(), probe.size), probed)
    print(f"near-threshold probe, delta in [1e-9, 1e-6) mu, outside the workload: "
          f"{len(probed.errors)} of {probed.attempted} points raise; typed errors: "
          f"{summarize_errors(probed.errors)}")
    return len(probed.errors) / probed.attempted


def run_worker(args, wl) -> dict:
    """The timed loop of an untraced run, in a process that imports only the
    package and the workloads."""
    import numpy as np

    outcomes = Outcomes(wl.seed, wl.sample)
    times = timed_loop(wl, wl.jobs(), outcomes, args.seconds, MIN_JOBS)
    q90 = float(np.quantile(times, 0.9))
    return {"jobs": len(times), "p50_s": float(np.median(times)), "p90_s": q90,
            "beyond_p90": int(np.sum(times > q90)), "total_s": float(np.sum(times)),
            "outcomes": outcomes.to_json(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def run_untraced(args, wl, workdir: str) -> dict:
    setup_s = measure_setup(workdir)
    # a fixed hash seed: string hashing, and so dict and set layout, is then
    # the same in every run rather than one more source of run-to-run spread
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--worker"],
                          cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
                          capture_output=True, text=True,
                          timeout=HARD_STOP_S + 30)
    if proc.returncode != 0:
        fail(f"worker exited {proc.returncode}: {proc.stderr[-1000:]}")
    part = json.loads(proc.stdout.splitlines()[-1])
    outcomes = Outcomes.from_json(part["outcomes"])
    attempted = outcomes.attempted
    failed, correct, messages = check_outputs(outcomes)
    threshold_probe(args.seed, workdir)
    metrics = {
        "setup_s": (setup_s, "s"),
        "job_ms_p50": (1000.0 * part["p50_s"], "ms"),
        "job_ms_p90": (1000.0 * part["p90_s"], "ms"),
        "points_per_s": (outcomes.done / part["total_s"], "1/s"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
        "peak_rss_mb": (part["peak_rss_mb"], "MB"),
    }
    print(f"workload {args.workload}, seed {args.seed}: {part['jobs']} jobs "
          f"({part['beyond_p90']} beyond p90), {attempted} points attempted, "
          f"{failed} failed; typed errors: {summarize_errors(outcomes.errors)}")
    for msg in messages[:10]:
        print(f"  {msg}")
    for name, (value, unit) in metrics.items():
        print(f"{name:14s} {value:.6g} {unit}")
    print(f"{'failed_frac':14s} {failed / attempted:.6g} frac  (reported as ok_frac = 1 - failed_frac)")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_traced(args, wl, workdir: str) -> dict:
    from spans import DETERMINISTIC, SpanRecorder, layer_metrics

    import_s, scipy_special_s = measure_imports()
    stream = wl.jobs()
    prefix = [next(stream) for _ in range(wl.trace_jobs)]
    started = time.perf_counter()
    recorder = SpanRecorder()
    recorder.install()
    outcomes = Outcomes(wl.seed, wl.sample)
    try:
        traced_times = timed_loop(wl, prefix, outcomes, recorder=recorder)
    finally:
        recorder.uninstall()
    # the same jobs again untraced, for the overhead as a per-job paired ratio
    plain_times = timed_loop(wl, prefix, Outcomes(wl.seed, 0))
    overhead = statistics.median(t / p for t, p in zip(traced_times, plain_times)) - 1.0
    # new jobs untraced for the rest of the run, checked like the prefix
    remaining = max(args.seconds - (time.perf_counter() - started), 0.0)
    more_times = timed_loop(wl, stream, outcomes, remaining)

    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           "--workload", args.workload, "--seed", str(args.seed),
                           "--repeat-counters", str(wl.repeat_jobs)],
                          cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"counter repeat run exited {proc.returncode}: {proc.stderr[-500:]}")
    again = json.loads(proc.stdout.splitlines()[-1])
    first = layer_metrics(recorder.spans, jobs=wl.repeat_jobs)
    repeat_ok = all(first[key] == again[key] for key in DETERMINISTIC)
    print(f"counters of the first {wl.repeat_jobs} jobs in a fresh process: "
          + ("identical" if repeat_ok else f"DIFFER: {again} vs "
             f"{ {k: first[k] for k in DETERMINISTIC} }"))

    probe_fail_frac = threshold_probe(args.seed, workdir)
    failed, correct, messages = check_outputs(outcomes)
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    recorder.write(spans_path)

    units = {"_s": "s", "frac": "frac", "ratio": "ratio", "bytes_out": "B"}
    metrics = {}
    for name, value in layer_metrics(recorder.spans).items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        metrics[name] = (value, unit)
    metrics["setup.import_s"] = (import_s, "s")
    metrics["setup.scipy_special_s"] = (scipy_special_s, "s")
    metrics["trace.overhead_frac"] = (overhead, "frac")
    metrics["renorm.near_threshold_fail_frac"] = (probe_fail_frac, "frac")
    print(f"workload {args.workload}, seed {args.seed}: {len(traced_times)} traced jobs "
          f"({len(recorder.spans)} spans -> {os.path.relpath(spans_path, ROOT)}), rerun "
          f"untraced: job_ms_p50 traced {1000 * statistics.median(traced_times):.4g} vs "
          f"untraced {1000 * statistics.median(plain_times):.4g}; then {len(more_times)} "
          f"more untraced jobs")
    for msg in messages[:10]:
        print(f"  {msg}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    return {"correct": correct and repeat_ok, "attempted": outcomes.attempted,
            "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat-counters", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "leemodel", "__init__.py")):
        fail(f"no package source at {SRC}; run from a full checkout of the repository")
    if not os.path.isfile(os.path.join(ROOT, "tests", "helpers.py")):
        fail("tests/helpers.py (golden constants for the reference self-test) is missing")
    sys.path.insert(0, SRC)
    import leemodel
    if os.path.dirname(os.path.abspath(leemodel.__file__)) != os.path.join(SRC, "leemodel"):
        fail(f"imported leemodel from {leemodel.__file__}, not from {SRC}")
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.repeat_counters:
            print(json.dumps(repeat_counters(wl, args.repeat_counters)))
            return 0
        if args.worker:
            print(json.dumps(run_worker(args, wl)))
            return 0
        self_test()
        result = (run_traced if args.trace else run_untraced)(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
