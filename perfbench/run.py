"""The repository benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload designer_verify --seed 1 --seconds 33 --trace 0

Run from the root of a checkout; the program is the checkout's ``src``.
Workloads (see :mod:`workloads`): ``designer_verify`` (``optimize`` with
verification on), ``bench_batch`` (``bench``) and ``service_resubmit`` (a
closed-loop client of ``python -m repro serve``).  Load is one closed loop
from one process; every repetition runs in fresh processes.

``--trace 0`` repeats the workload's job list, each time in a fresh
process under another ``PYTHONHASHSEED``, until ``--seconds`` of set-up
and jobs have been measured, and reports the end-to-end metrics.  Set-up
is measured on every repetition and on extra set-up-only probes.  Times
are reported at the reference speed of :mod:`calib`: each job's wall (and
each set-up) is scaled by a calibration loop timed right around it, the
median over repetitions is taken per job and the medians are summed; the
unscaled figures are reported too, as ``raw_wall_s`` and ``raw_setup_s``.
``--trace 1``
runs the job list once untraced, then twice traced (see :mod:`compose`)
under two more hash seeds, and reports the per-layer metrics, the tracing
overhead and whether the traced and untraced runs agree.

Every run checks its outputs outside the timed region: emitted designs
against the behavioural ones (see :mod:`checks`), quality-of-result rows
that must repeat exactly across repetitions and hash seeds, and, for the
service, each submission's cache provenance.  Results, logs, the Chrome
trace (``trace.json``, opens in Perfetto) and daemon artifacts go to
``--out`` (default ``.perfbench_out/`` in the checkout).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from calib import scaled, speed
from workloads import TIME_BOXED, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH_DIR, "worker.py")

#: Set-up-only probes per run, on top of the set-up of every repetition.
SETUP_PROBES = 2
#: Limit on any one child process (a run must end within 180s).
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "delay_ratio": "ratio", "area_ratio": "ratio", "dag_area_ratio": "ratio",
}
#: Reported in the table and the results file, not in the result line.
INFORMATIONAL = {
    "failed_share": "ratio", "proved_share": "ratio", "hit_latency_s": "s",
    "calib_s": "s", "raw_wall_s": "s", "raw_setup_s": "s",
}
PER_LAYER_UNITS = {
    "ingest.s": "s", "emit.s": "s",
    "saturate.s": "s", "saturate.search_s": "s", "saturate.apply_s": "s",
    "saturate.rebuild_s": "s", "saturate.apply_per_search": "ratio",
    "saturate.iterations": "count", "saturate.nodes": "count",
    "saturate.applied": "count", "saturate.nodes_per_s": "1/s",
    "shard.s": "s", "shard.count": "count", "shard.max_s": "s",
    "extract.s": "s", "extract.steps": "count",
    "ilp.s": "s", "ilp.steps": "count", "ilp.optimal_share": "ratio",
    "verify.s": "s", "verify.exhaustive_s": "s", "verify.exhaustive_trials": "count",
    "verify.bdd_s": "s", "verify.bdd_nodes": "count", "verify.bdd_proof_share": "ratio",
    "verify.random_s": "s", "verify.random_trials": "count",
    "serialize.save_s": "s", "serialize.load_s": "s", "serialize.artifact_bytes": "bytes",
    "service.digest_s": "s", "service.overhead_s": "s",
    "service.cache_hit_share": "ratio", "service.warm_hit_share": "ratio",
    "proved_share": "ratio", "hit_latency_s": "s",
    "trace.overhead_s": "s", "calib_s": "s",
}
#: Per-layer counts that must repeat exactly across hash seeds.
EXACT_COUNTS = (
    "saturate.nodes", "saturate.applied", "extract.steps",
    "verify.exhaustive_trials", "verify.random_trials", "verify.bdd_nodes",
    "serialize.artifact_bytes",
)


class ChildFailed(RuntimeError):
    pass


def wait_child(proc: subprocess.Popen, timeout: float):
    """Reap ``proc``; returns its resource usage (peak RSS included)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise ChildFailed(f"pid {proc.pid} exceeded {timeout:.0f}s")
        time.sleep(0.005)


def median(values):
    return statistics.median(values) if values else 0.0


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, out: str) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.out = out
        self.attempted = 0
        #: job (or check) -> what went wrong with it.
        self.failures: dict[str, list[str]] = {}
        #: counts that differed between hash seeds (traced runs).
        self.drifts: list[str] = []

    # ------------------------------------------------------------ children
    def hashseed(self, index: int) -> int:
        return 1 + (self.seed * 1009 + index) % 4_000_000_000

    def env(self, hashseed: int) -> dict:
        return dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(hashseed))

    def workdir(self, tag: str) -> str:
        path = os.path.join(self.out, tag)
        os.makedirs(path, exist_ok=True)
        return path

    def worker(self, mode: str, hashseed: int, tag: str, check: bool = False,
               sampled: bool = False) -> dict:
        """One fresh worker process; its result plus set-up and peak RSS.
        ``check`` has it check its emitted designs after the timed jobs."""
        workdir = self.workdir(tag)
        spec = {
            "workload": self.workload, "mode": mode, "workdir": workdir,
            "seed": self.seed, "result": os.path.join(workdir, "result.json"),
            "check": check, "sampled": sampled,
        }
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w") as handle:
            json.dump(spec, handle)
        with open(os.path.join(workdir, "worker.log"), "w") as log:
            calib = speed()
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, WORKER, spec_path], cwd=ROOT,
                env=self.env(hashseed), stdout=log, stderr=subprocess.STDOUT,
            )
            usage = wait_child(proc, CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} worker exited {proc.returncode}; see {log.name}")
        with open(spec["result"]) as handle:
            result = json.load(handle)
        result["setup"] = (result["ready"] - spawned, calib)
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        return result

    def socket_path(self, workdir: str) -> str:
        # AF_UNIX paths are short; a relative one (both processes share
        # the checkout as working directory) keeps deep checkouts working.
        return os.path.relpath(os.path.join(workdir, "d.sock"), ROOT)

    def daemon(self, workdir: str, hashseed: int):
        """Spawn ``python -m repro serve``; returns (process, log, socket,
        (seconds from spawn to the first ``ping`` reply, calibration))."""
        from repro.service import request

        from workloads import TENANTS

        sock = self.socket_path(workdir)
        log = open(os.path.join(workdir, "daemon.log"), "w")
        calib = speed()
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", sock,
             "--tenants", ",".join(TENANTS),
             "--cache-file", os.path.join(workdir, "cache.json")],
            cwd=ROOT, env=self.env(hashseed), stdout=log, stderr=subprocess.STDOUT,
        )
        while True:
            try:
                request(sock, {"op": "ping"}, timeout=5.0)
                return proc, log, sock, (time.monotonic() - spawned, calib)
            except OSError:
                if proc.poll() is not None or time.monotonic() - spawned > 60:
                    proc.kill()
                    proc.wait()
                    log.close()
                    raise ChildFailed(f"daemon did not come up; see {log.name}") from None
                time.sleep(0.002)

    def stop_daemon(self, proc, log, sock):
        from repro.service import request

        try:
            request(sock, {"op": "shutdown"}, timeout=CHILD_TIMEOUT_S)
            return wait_child(proc, CHILD_TIMEOUT_S)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            log.close()

    def setup_probe(self, index: int) -> tuple[float, float]:
        tag = f"probe{index}"
        if self.workload == "service_resubmit":
            proc, log, sock, setup = self.daemon(self.workdir(tag), self.hashseed(200 + index))
            self.stop_daemon(proc, log, sock)
            return setup
        return self.worker("setup", self.hashseed(200 + index), tag)["setup"]

    # -------------------------------------------------------------- service
    def service_pass(self, hashseed: int, tag: str, tracer=None) -> dict:
        """One closed-loop client session against a fresh daemon."""
        from repro.pipeline import resolve_design
        from repro.service import request, wait_for_result

        from qor import record_row
        from workloads import service_plan, wire_job

        workdir = self.workdir(tag)
        proc, log, sock, setup = self.daemon(workdir, hashseed)
        try:
            timings = []
            for sub in service_plan(self.seed):
                before = speed()  # the daemon idles between submissions
                span = (
                    tracer.span(f"request:{sub.job.name}", "service", job=sub.job.name)
                    if tracer is not None else contextlib.nullcontext()
                )
                with span:
                    started = time.monotonic()
                    reply = request(
                        sock, {"op": "submit", "tenant": sub.tenant, "job": wire_job(sub.job)}
                    )
                    if not reply.get("ok"):
                        raise ChildFailed(f"submit refused: {reply.get('error')}")
                    record = wait_for_result(
                        sock, reply["ticket"], timeout=CHILD_TIMEOUT_S, poll_s=0.01
                    )
                    done = time.monotonic()
                timings.append((sub, record, started, done, (before + speed()) / 2))
        finally:
            usage = self.stop_daemon(proc, log, sock)
        entries, walls, overheads, hits = [], {}, [], []
        for sub, record, started, done, calib in timings:
            roots, ranges = resolve_design(sub.job)
            entries.append({
                "job": sub.job.name, "kind": sub.kind, "record": record.as_dict(),
                "rows": [record_row(record, roots[record.output], ranges)],
            })
            latency = done - started
            walls[sub.job.name] = (latency, calib)
            overheads.append(latency - (0.0 if record.cache_hit else record.runtime_s))
            if record.cache_hit:
                hits.append(latency)
        misses = [e for e in entries if not e["record"]["cache_hit"]]
        return {
            "wall_s": timings[-1][3] - timings[0][2],
            "job_walls": walls,
            "setup": setup,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "jobs": entries,
            "service": {
                "hit_latency_s": sum(hits) / len(hits) if hits else 0.0,
                "service.overhead_s": sum(overheads) / len(overheads),
                "service.cache_hit_share": len(hits) / len(entries),
                "service.warm_hit_share": (
                    sum(e["record"]["warm_start"].startswith("hit:") for e in misses)
                    / len(misses) if misses else 0.0
                ),
            },
        }

    # ---------------------------------------------------------------- reps
    def rep(self, index: int, tracer=None, check: bool = False) -> dict:
        hashseed, tag = self.hashseed(index), f"rep{index}"
        if self.workload == "service_resubmit":
            return self.service_pass(hashseed, tag, tracer)
        return self.worker("timed", hashseed, tag, check=check, sampled=True)

    def compose(self, index: int, sampled: bool = False) -> dict:
        return self.worker(
            "compose", self.hashseed(100 + index), f"compose{index}",
            check=index == 0, sampled=sampled,
        )

    # --------------------------------------------------------------- checks
    def judge(self, runs: list[dict], reference: dict | None) -> None:
        """Count attempts and failures of every pass; compare the passes."""
        from qor import drift

        passes = runs + ([reference] if reference else [])
        for run in passes:
            for entry in run["jobs"]:
                self.attempted += 1
                problem = self.entry_problem(entry)
                if problem:
                    self.fail(entry["job"], problem)
        base = runs[0]
        for run in passes[1:]:
            for name in drift(base_rows(base), base_rows(run)):
                self.fail(name, "quality of result drifted between runs")
        if self.workload == "designer_verify":
            for run in runs[1:]:
                for mine, theirs in zip(base["jobs"], run["jobs"], strict=True):
                    if read(mine["emitted"]) != read(theirs["emitted"]):
                        self.fail(mine["job"], "emitted RTL differs between runs")

    def fail(self, name: str, problem: str) -> None:
        self.failures.setdefault(name, []).append(problem)

    def entry_problem(self, entry: dict) -> str:
        check = entry.get("check")
        if check and check["problems"]:
            return f"emitted design is wrong ({check['via']}): {check['problems'][0]}"
        for row in entry["rows"]:
            if row["equivalent"] is False:
                return f"{row['output']} proved non-equivalent"
        record = entry.get("record")
        if record is None:
            return ""
        if record["status"] != "ok":
            return f"status {record['status']}: {record['error']}"
        kind = entry.get("kind")
        if kind == "duplicate" and not record["cache_hit"]:
            return "duplicate submission missed the record cache"
        if kind in ("cold", "edited") and record["cache_hit"]:
            return f"{kind} submission was served from the record cache"
        if kind == "edited" and not record["warm_start"].startswith("hit:"):
            return f"edited submission did not warm-start ({record['warm_start']!r})"
        return ""

    # ----------------------------------------------------------------- runs
    def end_to_end(self) -> dict:
        from qor import proved_share

        calib = speed(9)
        setups = [self.setup_probe(i) for i in range(SETUP_PROBES)]
        runs: list[dict] = []
        measured = 0.0  # set-up plus jobs; checks stay out of the budget
        while not runs or measured + measured / len(runs) <= self.seconds:
            # Designer runs emit RTL themselves; the first one is checked
            # (the seed's sample of its designs).
            runs.append(self.rep(len(runs), check=not runs))
            measured += runs[-1]["setup"][0] + runs[-1]["wall_s"]
        setups += [run["setup"] for run in runs]
        # bench and the service return records, not designs: a composed run
        # of the seed's sample of their jobs provides the designs to check.
        reference = (
            self.compose(0, sampled=True) if self.workload != "designer_verify" else None
        )
        self.judge(runs, reference)
        rows = base_rows(runs[0])
        jobs = list(runs[0]["job_walls"])
        metrics = {
            # Times at the reference speed (see calib.py): each job's wall
            # scaled by the calibration loop timed around it, then the
            # median over repetitions, summed over jobs.
            "wall_s": sum(
                median([
                    wall if job in TIME_BOXED else scaled(wall, calib)
                    for wall, calib in (r["job_walls"][job] for r in runs)
                ])
                for job in jobs
            ),
            "setup_s": median([scaled(*setup) for setup in setups]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in runs]),
            **quality(runs),
            "failed_share": self.failed() / max(self.attempted, 1),
            "proved_share": proved_share(rows),
            "hit_latency_s": median([r.get("service", {}).get("hit_latency_s", 0.0) for r in runs]),
            "calib_s": calib,
            "raw_wall_s": sum(median([r["job_walls"][job][0] for r in runs]) for job in jobs),
            "raw_setup_s": median([raw for raw, _ in setups]),
        }
        self.save({"runs": runs, "reference": reference, "setups": setups}, metrics)
        return metrics

    def per_layer(self) -> dict:
        from qor import drift, proved_share
        from spans import Tracer, write_chrome_trace

        calib = speed(9)
        client = Tracer()
        untraced = self.rep(0, tracer=client)
        traced = [self.compose(0), self.compose(1)]
        self.judge([untraced], traced[0])
        first, second = traced
        for name in drift(base_rows(first), base_rows(second)):
            self.fail(name, "quality of result differs between hash seeds")
        # A count that drifts across hash seeds is reported by name; only
        # outputs that differ count as failures.
        self.drifts = [
            f"{name}: {first['metrics'][name]} vs {second['metrics'][name]}"
            for name in EXACT_COUNTS
            if first["metrics"][name] != second["metrics"][name]
        ]
        self.attempted += len(second["jobs"])
        metrics = {}
        for name in first["metrics"]:
            values = [t["metrics"][name] for t in traced]
            unit = PER_LAYER_UNITS[name]
            metrics[name] = sum(values) / len(values) if unit == "s" else values[0]
        service = untraced.get("service", {})
        metrics.update({
            "service.overhead_s": service.get("service.overhead_s", 0.0),
            "service.cache_hit_share": service.get("service.cache_hit_share", 0.0),
            "service.warm_hit_share": service.get("service.warm_hit_share", 0.0),
            "hit_latency_s": service.get("hit_latency_s", 0.0),
            "proved_share": proved_share(base_rows(first)),
            "trace.overhead_s": first["wall_s"] - untraced["wall_s"],
            "calib_s": calib,
        })
        tracks = {"traced run": first["events"]}
        if client.spans:
            tracks["daemon requests (untraced run)"] = client.chrome_events()
        write_chrome_trace(os.path.join(self.out, "trace.json"), tracks)
        self.layers = {
            name: sum(t["layers"].get(name, 0.0) for t in traced) / len(traced)
            for name in sorted({n for t in traced for n in t["layers"]})
        }
        self.save({"untraced": untraced, "traced": traced, "layers": self.layers}, metrics)
        return metrics

    def failed(self) -> int:
        return min(len(self.failures), self.attempted)

    def save(self, detail: dict, metrics: dict) -> None:
        for run in detail.get("traced", []):
            run.pop("events", None)
        payload = {
            "workload": self.workload, "seed": self.seed, "metrics": metrics,
            "attempted": self.attempted, "failures": self.failures,
            "count_drifts": self.drifts, **detail,
        }
        with open(os.path.join(self.out, "results.json"), "w") as handle:
            json.dump(payload, handle, indent=1, default=str)


def read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def base_rows(run: dict) -> list[dict]:
    return [row for entry in run["jobs"] for row in entry["rows"]]


def quality(runs: list[dict]) -> dict:
    """The ratios; medians over runs (only time-boxed ILP rows vary)."""
    from qor import ratios

    per_run = [ratios(base_rows(run)) for run in runs]
    return {name: median([r[name] for r in per_run]) for name in per_run[0]}


def table(workload: str, metrics: dict, units: dict) -> str:
    lines = [f"{workload}:"]
    for name, value in metrics.items():
        unit = units.get(name, "")
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        lines.append(f"  {name:<28} {text:>14} {unit}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", default=None,
        help="directory for results, logs, the trace and daemon artifacts "
        "(default: .perfbench_out/<workload>-... in the checkout)",
    )
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # daemon sockets are addressed relative to the checkout
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"repro resolved outside the checkout: {repro.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {WORKLOADS}", file=sys.stderr)
        return 2
    out = args.out or os.path.join(
        ROOT, ".perfbench_out",
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}",
    )
    os.makedirs(out, exist_ok=True)
    bench = Bench(args.workload, args.seed, args.seconds, out)
    try:
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
    except ChildFailed as err:
        bench.fail("run", str(err))
        bench.attempted = max(bench.attempted, 1)
        metrics = {}
    finally:
        prune(out)

    names = PER_LAYER_UNITS if args.trace else END_TO_END
    print(table(args.workload, metrics, {**END_TO_END, **INFORMATIONAL, **PER_LAYER_UNITS}))
    if args.trace and metrics:
        print("  self time by layer (traced run):")
        for layer, seconds in sorted(bench.layers.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<24} {seconds:10.4f} s")
    for drift in bench.drifts:
        print(f"DRIFT between hash seeds: {drift}")
    for name, problems in bench.failures.items():
        print(f"FAILED {name}: {'; '.join(problems)}")
    print(f"results in {out}")
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed(),
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in names.items()
        },
    }
    print(json.dumps(result))
    return 0


def prune(out: str) -> None:
    """Drop the daemons' e-graph artifacts, megabytes per repetition."""
    for dirpath, dirnames, _ in os.walk(out):
        for name in dirnames:
            if name.endswith(".egraphs"):
                shutil.rmtree(os.path.join(dirpath, name), ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
