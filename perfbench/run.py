"""The repository benchmark: one command, four workloads, every response
checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pages-sloth --seed 1 --seconds 10 \\
        --trace 0

prints one line per metric (name, value, unit) and, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, measured with tracing off; ``--trace 1``
reports the per-layer metrics of a separate traced run (see ``layers.py``).

Load comes from this one thread as a closed loop with no think time: the
next request is sent when the previous one returns.  Request times are the
thread's CPU time, not wall time, because wall time on a small shared
machine does not repeat, rescaled to a fixed machine speed (see
:class:`Speed`); ``sim_ms`` is the program's virtual SimClock time, the
paper's currency.

Other modes::

    python3 perfbench/run.py --steadiness [--runs 5] [--seconds 10]
    python3 perfbench/run.py --describe [--seed 1] \\
        > perfbench/workload_properties.json

``--steadiness`` runs two sets of runs of the same code per workload and
prints each metric's median, quartiles and spread per set, and whether the
sets agree within the metric's bound in ``BENCHMARK.json``; it also checks
that ``sim_ms.mean`` and ``round_trips.mean`` repeat exactly at a fixed
seed.
``--describe`` prints the workloads' input properties (see README.md).
"""

import argparse
import gc
import json
import math
import os
import pickle
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Spans of this many traced requests are kept for ``--spans``.
KEEP_SPANS = 20
#: Thunks created and forced by the ``calib.thunk_ms`` loop.
THUNK_CALIBRATION = 20000
#: A seed no tuning of the benchmark used, for confirming claims.
HELD_OUT_SEED = 7919
#: Timed requests a run makes at least, so that 10 samples lie beyond p99.
MIN_REQUESTS = 1000


def percentile(values, q):
    """Nearest-rank percentile: a sample value, and the same for any whole
    number of repeats of one pass."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class PeakRss:
    """Peak resident memory over the timed requests: the resident set is
    read from Linux's ``/proc/self/statm`` after every request, so the
    set-up's and the checks' own peaks do not count."""

    def __init__(self):
        self.peak = 0
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._page = os.sysconf("SC_PAGE_SIZE")

    def sample(self):
        resident = int(os.pread(self._fd, 128, 0).split()[1]) * self._page
        self.peak = max(self.peak, resident)

    def mb(self):
        return self.peak / 2**20

    def close(self):
        os.close(self._fd)


class _Row:
    __slots__ = ("key", "label", "cell")

    def __init__(self, key, label, cell):
        self.key = key
        self.label = label
        self.cell = cell


def _calibration_work():
    """Fixed interpreter work, independent of the program under test:
    tuples, strings, small objects, a keyed sort and dict grouping."""
    rows = [_Row(i * 7919 % 1000, "v%d" % (i % 97), i) for i in range(150)]
    rows.sort(key=lambda row: row.key)
    groups = {}
    for row in rows:
        groups.setdefault(row.label, []).append(row.key + row.cell)
    return sum(len(group) for group in groups.values()) + len(
        ",".join(groups))


class Speed:
    """The machine's current speed, from a fixed calibration loop.

    On a shared machine the same work takes up to twice as much thread CPU
    time in some stretches of a run as in others: other tenants share the
    cores' caches and execution units.  The harness times a calibration
    loop between blocks of requests.  A block's speed is the median of the
    loop samples around it, which ignores a sample hit by an interrupt.
    Each request's CPU time is then rescaled to a machine on which one
    loop takes ``REFERENCE_NS``, the loop's time in the fast stretches
    of a shared 2-core Xeon machine.  The program slows less than the loop when
    the machine is busy.  On all four workloads, raw time went as the
    loop's time to the power 0.8-0.9, hence ``EXPONENT``.  A program
    change does not move the loop, so it moves the rescaled times as it
    moves the raw ones.
    """

    REFERENCE_NS = 175_000
    EXPONENT = 0.85
    #: Request CPU time between two calibrations.
    BLOCK_NS = 3_000_000
    #: Samples on each side of a block that set its speed.
    WINDOW = 2

    def __init__(self):
        self.samples = []

    def sample(self):
        # Collections stay off so the loop's garbage neither triggers nor
        # absorbs a collection of the requests' garbage.
        gc.disable()
        try:
            start = time.thread_time_ns()
            _calibration_work()
            elapsed = time.thread_time_ns() - start
        finally:
            gc.enable()
        self.samples.append(elapsed)
        return elapsed

    def rescale(self, blocks, samples):
        """Rescaled CPU times of ``blocks`` of requests, where block ``i``
        ran between ``samples[i]`` and ``samples[i + 1]``."""
        out = []
        for i, block in enumerate(blocks):
            window = samples[max(0, i + 1 - self.WINDOW):i + 1 + self.WINDOW]
            factor = self._factor(window)
            out += [ns * factor for ns in block]
        return out

    def measure(self, fn):
        """Rescaled CPU ns of one call of ``fn``."""
        before = [self.sample() for _ in range(self.WINDOW)]
        start = time.thread_time_ns()
        fn()
        elapsed = time.thread_time_ns() - start
        after = [self.sample() for _ in range(self.WINDOW)]
        return elapsed * self._factor(before + after)

    def factor(self):
        """Rescaling factor from every sample taken so far."""
        return self._factor(self.samples)

    def _factor(self, samples):
        return (self.REFERENCE_NS / statistics.median(samples)) ** (
            self.EXPONENT)


class Measurement:
    """Per-request samples of the timed passes; ``cpu_ns`` is rescaled by
    :class:`Speed`."""

    def __init__(self, rss=None):
        self.cpu_ns = []
        self.sim_ms = []
        self.round_trips = []
        self.phases = {}
        self.attempted = 0
        self.failed = 0
        self.rss = rss

    @property
    def requests(self):
        return len(self.cpu_ns)

    def rps(self):
        return self.requests / (sum(self.cpu_ns) / 1e9)


def run_passes(workload, seconds, into, speed, tracer=None,
               min_requests=MIN_REQUESTS):
    """Run whole passes until ``seconds`` of wall time have gone by and at
    least ``min_requests`` requests have been made, and at least one pass.

    Only ``workload.execute`` is timed; checks, calibrations and per-pass
    preparation run between the timings.  Failed requests and failed
    checks are counted in ``into.failed``.
    """
    clock = time.thread_time_ns
    deadline = time.monotonic() + seconds
    passes = made = 0
    while (not passes or made < min_requests
           or time.monotonic() < deadline):
        workload.begin_pass()
        gc.collect()
        samples, blocks, block = [speed.sample()], [], []
        for request in workload.requests:
            into.attempted += 1
            if tracer is not None:
                tracer.begin_request()
                tracer.active = True
            try:
                start = clock()
                outcome = workload.execute(request)
                cpu = clock() - start
            except Exception:
                into.failed += 1
                if into.failed == 1:
                    traceback.print_exc(file=sys.stderr)
                continue
            finally:
                if tracer is not None:
                    tracer.active = False
            if not workload.check(request, outcome):
                into.failed += 1
            if into.rss is not None:
                into.rss.sample()
            block.append(cpu)
            if sum(block) >= speed.BLOCK_NS:
                blocks.append(block)
                samples.append(speed.sample())
                block = []
            into.sim_ms.append(outcome.sim_ms)
            into.round_trips.append(outcome.round_trips)
            for phase, ms in outcome.phases.items():
                into.phases[phase] = into.phases.get(phase, 0.0) + ms
        if block:
            blocks.append(block)
            samples.append(speed.sample())
        into.cpu_ns += speed.rescale(blocks, samples)
        into.failed += workload.end_pass()
        passes += 1
        made += len(workload.requests)
    return passes


def in_child(fn):
    """``fn()`` computed in a forked child process and sent back pickled,
    so that its working set never grows this process's memory."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            with os.fdopen(write_fd, "wb") as out:
                pickle.dump(fn(), out, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        except BaseException:
            traceback.print_exc(file=sys.stderr)
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as data:
        payload = data.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError("perfbench: computing the references failed")
    return pickle.loads(payload)


def set_up(workload, speed):
    """Build the workload ``SETUP_REPEATS`` times and compute the check
    references; returns the median set-up time in seconds of thread CPU
    time, rescaled by ``speed``, and the measurement of the untimed fill
    passes."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        times.append(speed.measure(workload.build))
    workload.reference = in_child(workload.references)
    # Set-up state is permanent for the rest of the run: keep it out of
    # the collector's way so request-time collections see request garbage.
    gc.collect()
    gc.freeze()
    fill = Measurement()
    for _ in range(workload.fill_passes):
        run_passes(workload, 0, fill, speed, min_requests=0)
    return statistics.median(times) / 1e9, fill


def thunk_ms(speed):
    """CPU ms to create and force one thunk through the runtime."""
    from repro.core.runtime import SlothRuntime
    from repro.core.thunk import force
    from repro.net.clock import CostModel, SimClock
    from repro.net.driver import BatchDriver

    runtime = SlothRuntime(BatchDriver(None, SimClock(), CostModel()),
                           SimClock(), CostModel())
    value = object()

    def thunks():
        for _ in range(THUNK_CALIBRATION):
            force(runtime.defer(lambda: value))

    return speed.measure(thunks) / 1e6 / THUNK_CALIBRATION


def end_to_end(workload, seconds):
    speed = Speed()
    setup_s, fill = set_up(workload, speed)
    rss = PeakRss()
    timed = Measurement(rss)
    try:
        run_passes(workload, seconds, timed, speed)
    finally:
        rss.close()
    metrics = {
        "setup_s": (setup_s, "s"),
        "rps": (timed.rps(), "1/s"),
        "cpu_ms.p50": (percentile(timed.cpu_ns, 0.50) / 1e6, "ms"),
        "cpu_ms.p99": (percentile(timed.cpu_ns, 0.99) / 1e6, "ms"),
        # statistics.mean sums exactly, so whole repeats of one pass give
        # the same mean to the last digit.
        "sim_ms.mean": (statistics.mean(timed.sim_ms), "ms"),
        "round_trips.mean": (statistics.mean(timed.round_trips), "count"),
        "max_rss_mb": (rss.mb(), "MB"),
    }
    notes = {"requests": timed.requests,
             "error_rate": _error_rate(fill, timed)}
    return metrics, fill, timed, notes


def per_layer(workload, seconds):
    """The traced run: untraced passes (alternating with the eager twin's,
    for ``calib.sloth_overhead``, where the workload has one), then traced
    passes."""
    from layers import Tracer
    from workloads import twin as twin_of

    speed = Speed()
    _, fill = set_up(workload, speed)
    twin = twin_of(workload)
    plain, plain_twin = Measurement(), Measurement()
    deadline = time.monotonic() + seconds / 2
    while time.monotonic() < deadline:
        run_passes(workload, 0, plain, speed, min_requests=0)
        if twin is not None:
            run_passes(twin, 0, plain_twin, speed, min_requests=0)
    tracer = Tracer(keep_requests=KEEP_SPANS)
    tracer.install()
    traced = Measurement()
    traced_speed = Speed()
    try:
        run_passes(workload, seconds / 2, traced, traced_speed,
                   tracer=tracer)
    finally:
        tracer.uninstall()
    requests = traced.requests
    layer = tracer.metrics(requests, traced_speed.factor())
    units = {name: ("ms" if name.endswith(".ms") else "count")
             for name in layer}
    for name in ("core.issued_per_registered", "sqldb.parse_cache.hit_rate",
                 "sqldb.result_cache.hit_rate",
                 "sqldb.rows_touched_per_row"):
        units[name] = "ratio"
    units["calib.statement_ms"] = "ms"
    metrics = {name: (value, units[name]) for name, value in layer.items()}
    # Virtual times do not depend on tracing; their percentiles are
    # reported here because on the page workloads they are the same for
    # every seed (see README.md).
    metrics["sim_ms.p50"] = (percentile(traced.sim_ms, 0.50), "ms")
    metrics["sim_ms.p99"] = (percentile(traced.sim_ms, 0.99), "ms")
    for phase in ("network", "db", "app"):
        metrics[f"sim.{phase}_ms"] = (
            traced.phases.get(phase, 0.0) / max(1, requests), "ms")
    metrics["trace.overhead"] = (plain.rps() / traced.rps(), "ratio")
    metrics["calib.thunk_ms"] = (thunk_ms(speed), "ms")
    # Not defined without an eager twin: 0, as for other ratios whose
    # denominator is missing.
    overhead = 0.0
    if twin is not None:
        lazy, eager = ((plain, plain_twin) if workload.sloth
                       else (plain_twin, plain))
        overhead = ((sum(lazy.cpu_ns) / lazy.requests)
                    / (sum(eager.cpu_ns) / eager.requests))
    metrics["calib.sloth_overhead"] = (overhead, "ratio")
    combined = Measurement()
    for part in (plain, traced):
        combined.attempted += part.attempted
        combined.failed += part.failed
    notes = {"requests": requests,
             "error_rate": _error_rate(fill, combined, plain_twin),
             "model.per_query_overhead_ms":
                 workload.cost_model.per_query_overhead_ms,
             "model.thunk_alloc_ms": workload.cost_model.thunk_alloc_ms,
             "model.sloth_overhead": "1.05-1.15 (Fig 13)"}
    return metrics, fill, combined, notes, tracer, plain_twin


def _error_rate(*parts):
    attempted = sum(part.attempted for part in parts)
    return sum(part.failed for part in parts) / max(1, attempted)


def run(args):
    import workloads

    workload = workloads.make(args.workload, args.seed)
    if args.trace:
        metrics, fill, measured, notes, tracer, twin = per_layer(
            workload, args.seconds)
        extra = [twin]
        if args.spans:
            with open(args.spans, "w") as out:
                json.dump({"fields": ["request", "layer", "start_ns",
                                      "end_ns", "parent"],
                           "spans": tracer.spans}, out)
    else:
        metrics, fill, measured, notes = end_to_end(workload, args.seconds)
        extra = []
    attempted = sum(part.attempted for part in [fill, measured] + extra)
    failed = sum(part.failed for part in [fill, measured] + extra)
    for name, value in sorted(notes.items()):
        print(f"# {name} = {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


# -- --steadiness ------------------------------------------------------------


def _run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else math.inf


def steadiness(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    seconds = args.seconds or spec["run_seconds"]
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {name: ([], []) for name in names}
    for index in range(args.runs):
        for set_index in (0, 1):
            for name in names:
                seed = args.seed + set_index * args.runs + index
                result = _run_once(name, seed, seconds)
                results[name][set_index].append((seed, result))
                print(f"# {name} seed {seed}: correct={result['correct']}",
                      file=sys.stderr)
    all_ok = all(result["correct"] for sets in results.values()
                 for runs in sets for _, result in runs)
    for name in names:
        print(f"\n{name}")
        print(f"  {'metric':18s} {'set':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s}  verdict")
        for metric, bound in bounds.items():
            medians = []
            unresolved = False
            for set_index in (0, 1):
                values = [r["metrics"][metric]["value"]
                          for _, r in results[name][set_index]]
                median, q1, q3, spread = _spread(values)
                medians.append(median)
                if spread > bound:
                    unresolved = True
                print(f"  {metric:18s} {set_index + 1:3d} {median:12.5f} "
                      f"{q1:12.5f} {q3:12.5f} {spread:7.4f}")
            # The sets' order is arbitrary: a change either way counts.
            change = (medians[1] - medians[0]) / medians[0]
            agree = abs(change) <= bound
            verdict = ("unresolved (spread > bound)" if unresolved else
                       f"{'agree' if agree else 'DISAGREE'} "
                       f"(change {change:+.4f}, bound {bound})")
            all_ok = all_ok and agree and not unresolved
            print(f"  {'':18s} {'':3s} {verdict}")
        seed, first = results[name][0][0]
        again = _run_once(name, seed, seconds)
        exact = all(first["metrics"][m]["value"] == again["metrics"][m]["value"]
                    for m in ("sim_ms.mean", "round_trips.mean"))
        all_ok = all_ok and exact
        print(f"  sim_ms.mean and round_trips.mean repeat exactly at seed "
              f"{seed}: {exact}")
    print("\n# every run:", json.dumps(
        {name: [[seed, {m: v["value"] for m, v in r["metrics"].items()}]
                for runs in sets for seed, r in runs]
         for name, sets in results.items()}))
    return 0 if all_ok else 1


# -- --describe ----------------------------------------------------------------


def describe(args):
    """Input properties of every workload at ``--seed`` and at the held-out
    seed: one set-up, then one traced pass whose counts give the shares."""
    import workloads

    record = {"held_out_seed": HELD_OUT_SEED,
              "caches": {"result_cache_entries":
                         workloads.RESULT_CACHE_ENTRIES,
                         "parse_cache_entries":
                         workloads.PARSE_CACHE_ENTRIES,
                         "plan_cache_entries":
                         workloads.PLAN_CACHE_ENTRIES},
              "seeds": {}}
    for seed in (args.seed, HELD_OUT_SEED):
        record["seeds"][str(seed)] = {
            name: _properties(workloads.make(name, seed))
            for name in workloads.WORKLOADS}
    print(json.dumps(record, indent=1, sort_keys=True))
    return 0


def _properties(workload):
    from layers import Tracer

    speed = Speed()
    set_up(workload, speed)
    tracer = Tracer(keep_requests=0)
    tracer.keys = {}
    tracer.install()
    measured = Measurement()
    try:
        run_passes(workload, 0, measured, speed, tracer=tracer,
                   min_requests=0)
    finally:
        tracer.end_request()
        tracer.uninstall()
    counts = tracer.counts.get
    keys = tracer.keys
    properties = workload.properties()
    properties.update({
        "statements_per_request": counts("sqldb.statements", 0)
        / measured.requests,
        "distinct_sql": len({sql for sql, _ in keys}),
        "distinct_statement_keys": len(keys),
        "statement_mix_top": [
            [sql[:60], n] for sql, n in sorted(
                _by_sql(keys).items(), key=lambda kv: -kv[1])[:5]],
        "select_share_served_by_result_cache": (
            counts("sqldb.result_cache_hits", 0)
            / max(1, counts("sqldb.selects", 0))),
        "request_share_served_by_result_cache": (
            counts("requests_fully_cached", 0) / measured.requests),
        "mean_batch_size": (counts("net.statements", 0)
                            / max(1, counts("net.round_trips", 0))),
        "round_trips_per_request": statistics.fmean(measured.round_trips),
        "plans_built_in_pass": counts("sqldb.plans_built", 0),
    })
    return properties


def _by_sql(keys):
    totals = {}
    for (sql, _), n in keys.items():
        totals[sql] = totals.get(sql, 0) + n
    return totals


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the kept trace spans here")
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.steadiness:
        return steadiness(args)
    if args.describe:
        return describe(args)
    if not args.workload or args.seconds is None:
        parser.error("--workload and --seconds are required")
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
