"""One measured round, run in a fresh process by run.py.

The process runs only the program: it imports wikiq, reads the run config,
then runs the workload's timed section. It prints one JSON line with the
monotonic time it started, its set-up time, the timed section's time, its
peak memory and the stage calls it attempted and failed. run.py adds the
time from the spawn to the start, so set-up counts the interpreter's start.

Set-up and the timed section are measured on a `ProbeClock` unless the
round is traced: the host's speed changes from moment to moment, and the
clock scales each slice of the program's time by the speed a probe saw.

    python3 perfbench/child.py WORKLOAD RUNDIR TRACE
"""

import bisect
import dataclasses
import itertools
import json
import resource
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

# The network_sweep grid: every network crossed with every metric, each
# running the stages the CLI would for `--network N --metric M`.
NETWORKS = ("coauthor", "talk-sig", "talk-hist")
METRICS = ("degree", "betweenness", "eigenvector", "pagerank")
GRID_STAGES = ("net", "centrality", "score", "eval")
GRID_ARTIFACTS = ("edges.tsv", "centrality.tsv", "scores.tsv", "report.tsv")


# The probe: a fixed slice of interpreter work of the program's kind (dict
# and list operations on short strings), run every PROBE_PERIOD_S.
PROBE_PERIOD_S = 0.02
PROBE_TOKENS = tuple(f"w{i % 89}" for i in range(1200))
# About the median CPU time of probe_work() on the 2-core VM the bounds were
# set on, so that clock readings stay close to that VM's wall time.
PROBE_REFERENCE_S = 1.8e-4


def probe_work() -> int:
    seen: dict[str, int] = {}
    first: list[str] = []
    for token in PROBE_TOKENS:
        count = seen.get(token, 0)
        if not count:
            first.append(token)
        seen[token] = count + 1
    return len(first)


class ProbeClock:
    """Program time on a host whose speed changes from moment to moment.

    On the 2-core KVM guest the bounds were set on, a vCPU runs up to 1.8x
    slower in bursts shorter than a second, and how much of the time it is
    slow changes over minutes, so a plain wall time of a few seconds
    spreads by 20% between runs. While started, a SIGALRM handler runs
    probe_work() every PROBE_PERIOD_S and takes its CPU time: the host's
    interference slows the CPU time too, while waiting for the program's
    own workers, if it ever has any, does not. `elapsed` leaves the probes
    out and scales each slice of program time between two probes by
    PROBE_REFERENCE_S over the mean of their CPU times: a slice run while
    the host was slow counts what it would have taken at the reference
    speed. Without probes it is the plain wall time.
    """

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # perf_counter start, end
        self.probe_cpu: list[float] = []  # CPU time of each probe

    def _tick(self, _signum, _frame) -> None:
        start, cpu = time.perf_counter(), time.thread_time()
        probe_work()
        self.probe_cpu.append(time.thread_time() - cpu)
        self.probes.append((start, time.perf_counter()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    @staticmethod
    def _speed(probe_cpu: list[float]) -> float:
        return PROBE_REFERENCE_S * len(probe_cpu) / sum(probe_cpu) if probe_cpu else 1.0

    def mean_speed(self) -> float:
        """Speed over every probe so far: the phase the round ran in."""
        return self._speed(self.probe_cpu)

    def elapsed(self, begin: float, end: float, scaled: bool = True) -> float:
        """Program time between two perf_counter readings, probes left
        out; scaled unless `scaled` is false. The readings are taken in
        the main thread, so no probe straddles them."""
        starts = [start for start, _end in self.probes]
        inside = self.probes[bisect.bisect_left(starts, begin):
                             bisect.bisect_left(starts, end)]
        edges = [begin, *itertools.chain.from_iterable(inside), end]
        total = 0.0
        for a, b in zip(edges[::2], edges[1::2]):
            speed = 1.0
            if scaled:  # the probes just before and just after the slice
                i = bisect.bisect_left(starts, b)
                speed = self._speed(self.probe_cpu[max(i - 1, 0):i + 1])
            total += (b - a) * speed
        return total


def peak_rss_kib() -> int:
    """Peak resident memory of this process since exec, plus the largest
    of any worker processes it waited for.

    getrusage(RUSAGE_SELF) would also count the spawning process: exec
    folds the parent's peak into it, and run.py holds the generated corpus.
    """
    with open("/proc/self/status", encoding="ascii") as fp:
        hwm = next(int(line.split()[1]) for line in fp
                   if line.startswith("VmHWM:"))
    return hwm + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


class Stages:
    """Runs stage calls and counts them. After a failed call the remaining
    calls of the same group count as failed without running."""

    def __init__(self, pipeline):
        self.pipeline = pipeline
        self.attempted = 0
        self.failed = 0

    def run(self, stages, config) -> None:
        broken = False
        for stage in stages:
            self.attempted += 1
            if broken:
                self.failed += 1
                continue
            try:
                self.pipeline.run_stage(stage, config)
            except Exception:  # a failed stage is counted, not fatal
                traceback.print_exc()
                self.failed += 1
                broken = True


def main(workload: str, rundir: Path, trace: bool) -> dict:
    started = time.monotonic()
    setup_begin = time.perf_counter()
    clock = ProbeClock()
    if not trace:
        clock.start()
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import wikiq.pipeline as pipeline
    if Path(pipeline.__file__).resolve().parent != src / "wikiq":
        raise SystemExit(f"wikiq imported from {pipeline.__file__}, not {src}")
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    config = pipeline.RunConfig.from_json(
        (rundir / "config.json").read_text(encoding="utf-8"))
    stages = Stages(pipeline)
    if workload == "network_sweep":
        stages.run(("ingest", "contrib", "select"), config)
    setup_end = time.perf_counter()

    timed: list[tuple[float, float]] = []  # perf_counter begin, end
    if workload == "network_sweep":
        for network in NETWORKS:
            for metric in METRICS:
                cfg = dataclasses.replace(config, network=network,
                                          metric=metric)
                t0 = time.perf_counter()
                stages.run(GRID_STAGES, cfg)
                timed.append((t0, time.perf_counter()))
                # keep each configuration's outputs for the checks
                keep = rundir / "grid" / f"{network}_{metric}"
                keep.mkdir(parents=True, exist_ok=True)
                for name in GRID_ARTIFACTS:
                    if (rundir / "work" / name).exists():
                        shutil.copyfile(rundir / "work" / name, keep / name)
    else:
        t0 = time.perf_counter()
        stages.run(pipeline.STAGES, config)
        timed.append((t0, time.perf_counter()))
    clock.stop()

    raw = sum(clock.elapsed(b, e, scaled=False) for b, e in timed)
    probe_times = sorted(clock.probe_cpu)
    result = {"started": started, "speed": clock.mean_speed(),
              "setup_s": clock.elapsed(setup_begin, setup_end),
              "wall_s": sum(clock.elapsed(b, e) for b, e in timed),
              "wall_raw_s": raw, "probes": len(probe_times),
              "probe_median_s": (probe_times[len(probe_times) // 2]
                                 if probe_times else 0.0),
              "peak_rss_kib": peak_rss_kib(),
              "attempted": stages.attempted, "failed": stages.failed}
    if tracer is not None:
        result["layers"] = tracer.metrics(raw)
        tracer.write(rundir / "spans.jsonl")
    return result


if __name__ == "__main__":
    out = main(sys.argv[1], Path(sys.argv[2]), sys.argv[3] == "1")
    print(json.dumps(out))
