"""Seeded end-to-end benchmark of the opdkit CLI pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload oa-l512 --seed 1 --seconds 40 --trace 0

For one workload it generates a seeded raw corpus, then times the real CLI
(``python -m opdkit.cli``, with ``src`` on ``PYTHONPATH``) as subprocesses:
``mix`` + ``enhance`` (setup_s), ``--version`` (startup_s) and the ``oa`` /
``dsa`` sweep (sweep_s, peak_rss_mb).  Every sweep table is checked.  With
``--trace 1`` it instead reports per-layer metrics from an in-process traced
replay (see spans.py).  The last stdout line is one JSON object with keys
correct, attempted, failed and metrics; the exit code is non-zero when any
check fails.  ``--workload all`` runs every workload in turn.

BLAS thread variables are passed through as found, never set: pinning them
would hide the BLAS thread oversubscription that ``cli.cpu_per_wall`` and the
``--workers 2`` probe of the traced run are meant to show.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

import corpus

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

MIN_ROUNDS = 3
IMPORT_REPEATS = 3
POOL_WORKERS = 2
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    command: str          # "oa" or "dsa"
    utterances: int
    utterance_s: float
    snr_db: float
    method: str
    max_delay: int
    workers: int
    grid_points: int      # the CLI's default grid for the command


# Why each workload was chosen is in BENCHMARK.json.
WORKLOADS = {
    "oa-l512": Workload("oa", 4, 4.0, 0.0, "spectral-subtraction", 512, 1, 16),
    "dsa-t16": Workload("dsa", 3, 16.0, 5.0, "ideal-binary-mask", 512, 1, 49),
    "oa-l2048": Workload("oa", 1, 4.0, 5.0, "oracle-wiener", 2048, 1, 16),
}


def cli_env() -> dict:
    """The caller's environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliRun:
    """One CLI subprocess: wall time, exit code and the rusage of its tree."""

    def __init__(self, args: list[str], log_path: str):
        with open(log_path, "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "opdkit.cli", *args], env=cli_env(),
                                    stdout=log, stderr=log, start_new_session=True)
            status, usage = self._wait(proc)
            self.wall_s = time.perf_counter() - start
        self.returncode = os.waitstatus_to_exitcode(status)
        proc.returncode = self.returncode
        # wait4 folds in every reaped descendant, so this covers pool workers;
        # ru_maxrss is the largest single process of the tree, in KiB.
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.cpu_s = usage.ru_utime + usage.ru_stime

    @staticmethod
    def _wait(proc):
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                return status, usage
            if time.monotonic() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                return status, usage
            time.sleep(0.002)


def cli(args: list[str], log_path: str) -> CliRun:
    run = CliRun(args, log_path)
    if run.returncode != 0:
        print(f"opdkit {args[0]} exited {run.returncode}; see {log_path}", file=sys.stderr)
    return run


class WorkloadRun:
    """Directories, corpus and CLI argument lists of one workload run."""

    def __init__(self, name: str, seed: int, trace: int):
        self.name, self.seed, self.w = name, seed, WORKLOADS[name]
        self.dir = os.path.join(WORK, f"{name}-seed{seed}-trace{trace}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.log = os.path.join(self.dir, "cli.log")
        self.speech_dir, self.noise_dir = corpus.generate(
            os.path.join(self.dir, "raw"), seed, self.w.utterances, self.w.utterance_s)
        self.utterance_ids = sorted(os.path.splitext(f)[0] for f in os.listdir(self.speech_dir))
        self._outputs = 0

    def fresh(self, label: str) -> str:
        self._outputs += 1
        return os.path.join(self.dir, f"{label}{self._outputs}")

    def mix_args(self, out: str) -> list[str]:
        return ["mix", "--speech-dir", self.speech_dir, "--noise-dir", self.noise_dir,
                "--snr", repr(self.w.snr_db), "--seed", str(self.seed), "--out", out]

    def enhance_args(self, mix_out: str, out: str) -> list[str]:
        return ["enhance", "--corpus", os.path.join(mix_out, "corpus.jsonl"),
                "--method", self.w.method, "--out", out]

    def sweep_args(self, enhanced: str, out: str, workers: int) -> list[str]:
        return [self.w.command, "--corpus", os.path.join(enhanced, "corpus.jsonl"),
                "-L", str(self.w.max_delay), "--workers", str(workers), "--out", out]

    def setup(self) -> tuple[float, str, bool]:
        """Untraced mix + enhance; returns (seconds, enhanced dir, ok)."""
        mix_out, enh_out = self.fresh("mix"), self.fresh("enhanced")
        mix = cli(self.mix_args(mix_out), self.log)
        enh = cli(self.enhance_args(mix_out, enh_out), self.log)
        return mix.wall_s + enh.wall_s, enh_out, mix.returncode == 0 and enh.returncode == 0

    def table(self, out: str) -> str:
        return os.path.join(out, f"{self.w.command}.csv")


class Outcome:
    """Attempted / failed utterance analyses, and what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check_sweep(self, run: WorkloadRun, out: str, returncode: int,
              more: dict[str, list[str]] | None = None) -> float:
        """Check one sweep's table, adding the problems ``more`` found by other
        checks of the same sweep; returns the table's largest law gap in dB."""
        import checks
        ids = run.utterance_ids
        if returncode != 0:
            found, gap = {checks.CORPUS: [f"sweep exited {returncode}"]}, 0.0
        else:
            found, gap = checks.check_sweep_table(run.table(out), run.w.command, ids,
                                                  run.w.grid_points)
        for utt, problems in (more or {}).items():
            found.setdefault(utt, []).extend(problems)
        bad = set(ids) if checks.CORPUS in found else set(found)
        self.attempted += len(ids)
        self.failed += len(bad)
        self.problems += [f"{utt or 'corpus'}: {p}" for utt, ps in found.items() for p in ps]
        return gap

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems


def corrupted_table_is_flagged(run: WorkloadRun, out: str) -> bool:
    """The checker must flag a copy of a real table with one value altered,
    for every kind of corruption."""
    import checks
    bad_path = os.path.join(run.dir, "corrupted.csv")
    for corruption in checks.CORRUPTIONS:
        victim = checks.corrupt_table(run.table(out), bad_path, run.w.command, corruption)
        found, _ = checks.check_sweep_table(bad_path, run.w.command, run.utterance_ids,
                                            run.w.grid_points)
        if victim not in found:
            return False
    return True


def import_times() -> dict:
    """``-X importtime`` of ``import opdkit.cli``: cumulative seconds of the
    opdkit import and of scipy.signal within it, plus a breakdown tree."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import opdkit.cli"],
                          env=cli_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)
    pending: dict[int, list] = {}
    for line in proc.stderr.splitlines()[1:]:
        _, cum_us, name = line.split(":", 1)[1].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        node = {"name": name.strip(), "cumulative_s": int(cum_us) / 1e6,
                "children": pending.pop(depth + 1, [])}
        pending.setdefault(depth, []).append(node)
    top = pending[min(pending)]
    ours = [n for n in top if n["name"].split(".")[0] == "opdkit"]

    def find(nodes, name):
        for n in nodes:
            if n["name"] == name:
                return n
            hit = find(n["children"], name)
            if hit:
                return hit
        return None

    signal_node = find(ours, "scipy.signal")
    return {"import_s": sum(n["cumulative_s"] for n in ours),
            "scipy_signal_s": signal_node["cumulative_s"] if signal_node else 0.0,
            "tree": ours}


def import_breakdown_lines(imports: dict, min_s: float = 0.02) -> list[str]:
    share = imports["scipy_signal_s"] / imports["import_s"]
    lines = [f"import opdkit.cli: {imports['import_s']:.3f} s cumulative, of which "
             f"scipy.signal {imports['scipy_signal_s']:.3f} s ({100 * share:.0f}%)"]

    def walk(nodes, depth):
        for n in sorted(nodes, key=lambda n: -n["cumulative_s"]):
            if n["cumulative_s"] >= min_s and depth <= 3:
                lines.append(f"  {'  ' * depth}{n['name']:<{40 - 2 * depth}} "
                             f"{n['cumulative_s']:.3f} s")
                walk(n["children"], depth + 1)

    walk(imports["tree"], 0)
    return lines


def environment() -> dict:
    import numpy
    import scipy
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((l.split(":", 1)[1].strip() for l in fh
                              if l.startswith("model name")), None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:  # the ceiling keeps git from reporting a repository above the checkout
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
                                timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(os.path.join(SRC, "opdkit"))):
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    digest.update(f.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values), "values": values}


def keep_going(loop_start: float, done: int, minimum: int, deadline: float) -> bool:
    """True while fewer than ``minimum`` iterations ran, or while one more
    iteration of the loop's average length is expected to end by ``deadline``."""
    if done < minimum:
        return True
    now = time.perf_counter()
    return now + (now - loop_start) / done <= deadline


def end_to_end(run: WorkloadRun, seconds: float, outcome: Outcome) -> tuple[dict, dict]:
    # Each round sets up, starts up and sweeps once, so drift of the
    # machine's speed during a run reaches every metric alike and every
    # metric is the median of as many samples.  A round starts only if it is
    # expected to end by the deadline.
    start = time.perf_counter()
    setups, startups, sweeps, rss, cpu = [], [], [], [], []
    while keep_going(start, len(sweeps), MIN_ROUNDS, start + seconds):
        wall, enhanced, ok = run.setup()
        outcome.require(ok, "mix or enhance exited non-zero")
        setups.append(wall)
        version = cli(["--version"], run.log)
        outcome.require(version.returncode == 0, "--version exited non-zero")
        startups.append(version.wall_s)
        out = run.fresh("sweep")
        sweep = cli(run.sweep_args(enhanced, out, run.w.workers), run.log)
        outcome.check_sweep(run, out, sweep.returncode)
        sweeps.append(sweep.wall_s)
        rss.append(sweep.peak_rss_mb)
        cpu.append(sweep.cpu_s)
        if len(sweeps) == 1 and outcome.correct:
            outcome.require(corrupted_table_is_flagged(run, out),
                            "checker missed a corrupted sweep table")

    imports = import_times()
    metrics = {"setup_s": statistics.median(setups), "sweep_s": statistics.median(sweeps),
               "startup_s": statistics.median(startups),
               "peak_rss_mb": statistics.median(rss)}
    detail = {"setup_s": summary(setups), "sweep_s": summary(sweeps),
              "startup_s": summary(startups), "peak_rss_mb": summary(rss),
              "sweep_cpu_s": summary(cpu),
              "cpu_per_wall": summary([c / w for c, w in zip(cpu, sweeps)]),
              "import_breakdown": import_breakdown_lines(imports)}
    return metrics, detail


def traced(run: WorkloadRun, seconds: float, outcome: Outcome) -> tuple[dict, dict]:
    import checks
    import spans
    start = time.perf_counter()
    _, enhanced, ok = run.setup()
    outcome.require(ok, "mix or enhance exited non-zero")
    # Untraced sweeps alternate the workload's worker count with a pool of
    # POOL_WORKERS, which shows what the process pool costs or saves.
    serial, pool = [], []
    while keep_going(start, len(serial), 2, start + 0.45 * seconds):
        for workers, runs in ((run.w.workers, serial), (POOL_WORKERS, pool)):
            out = run.fresh("sweep")
            sweep = cli(run.sweep_args(enhanced, out, workers), run.log)
            outcome.check_sweep(run, out, sweep.returncode)
            runs.append(sweep)
    imports = [import_times() for _ in range(IMPORT_REPEATS)]

    passes, tracers = [], []
    tol = checks.orthogonality_tolerance()
    passes_start = time.perf_counter()
    while keep_going(passes_start, len(passes), 1, start + seconds):
        traced_pass = spans.TracedPass(run.speech_dir)
        mix_out, enh_out, out = run.fresh("tmix"), run.fresh("tenhanced"), run.fresh("tsweep")
        pass_start = time.perf_counter()
        try:
            traced_pass.install()
            codes = [traced_pass.run_cli(run.mix_args(mix_out)),
                     traced_pass.run_cli(run.enhance_args(mix_out, enh_out)),
                     traced_pass.run_cli(run.sweep_args(enh_out, out, 1))]
        finally:
            wall = time.perf_counter() - pass_start
            traced_pass.tracer.uninstall()
        outcome.require(codes[:2] == [0, 0], "traced mix or enhance returned non-zero")
        m = spans.pass_metrics(traced_pass.tracer.spans, wall, run.w.command)
        residuals = traced_pass.orthogonality()
        m["projection.orthogonality_rel"] = max(residuals.values(), default=0.0)
        m["analysis.max_check_gap_db"] = outcome.check_sweep(run, out, codes[2], {
            utt: [f"orthogonality residual {r:.3e} > {tol:g}"]
            for utt, r in residuals.items() if r > tol})
        passes.append(m)
        tracers.append(traced_pass.tracer)
    spans_path = os.path.join(WORK, "results", f"spans-{run.name}-seed{run.seed}.jsonl")
    with open(spans_path, "w", encoding="utf-8") as fh:
        for i, tracer in enumerate(tracers):
            tracer.dump(fh, i)

    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics.update({
        "cli.import_s": statistics.median(i["import_s"] for i in imports),
        "cli.import_scipy_signal_s": statistics.median(i["scipy_signal_s"] for i in imports),
        "cli.sweep_cpu_s": statistics.median(r.cpu_s for r in serial),
        "cli.cpu_per_wall": statistics.median(r.cpu_s / r.wall_s for r in serial),
        "cli.pool_sweep_s": statistics.median(r.wall_s for r in pool),
        "cli.pool_cpu_s": statistics.median(r.cpu_s for r in pool),
        "trace.untraced_sweep_s": statistics.median(r.wall_s for r in serial),
    })
    metrics["cli.pool_speedup"] = metrics["trace.untraced_sweep_s"] / metrics["cli.pool_sweep_s"]
    detail = {"traced_passes": len(passes),
              "untraced_sweeps": summary([r.wall_s for r in serial]),
              "pool_sweeps": summary([r.wall_s for r in pool]),
              "import_breakdown": import_breakdown_lines(imports[0]),
              # A site the package no longer has is not traced; its metrics read 0.
              "untraced_sites": traced_pass.missing_sites,
              "moves": spans.LAYER_METRICS,
              "spans_file": spans_path}
    return metrics, detail


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit of the reported metrics, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    run = WorkloadRun(name, seed, trace)
    outcome = Outcome()
    try:
        values, detail = (traced if trace else end_to_end)(run, seconds, outcome)
    finally:
        if outcome.correct:
            shutil.rmtree(run.dir, ignore_errors=True)
    units = declared_units(trace)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "parameters": asdict(run.w), "environment": environment(),
        "outcome": {"attempted": outcome.attempted, "failed": outcome.failed,
                    "problems": outcome.problems},
        "detail": detail,
        "result": {"correct": outcome.correct, "attempted": max(outcome.attempted, 1),
                   "failed": outcome.failed,
                   "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}},
    }


def report(record: dict) -> None:
    w, o = record["parameters"], record["outcome"]
    print(f"== {record['workload']} seed {record['seed']}: {w['utterances']} x "
          f"{w['utterance_s']:g} s utterances, {w['snr_db']:g} dB, {w['method']}, "
          f"{w['command']} ({w['grid_points']} grid points), L={w['max_delay']}, "
          f"workers {w['workers']}")
    detail = record["detail"]
    for name, m in record["result"]["metrics"].items():
        spread = detail.get(name)
        extra = (f"  (median of {spread['n']}, min {spread['min']:.4g}, max {spread['max']:.4g})"
                 if isinstance(spread, dict) and "n" in spread else "")
        print(f"  {name:34s} {m['value']:12.6g} {m['unit']}{extra}")
    frac = o["failed"] / max(o["attempted"], 1)
    print(f"  {'failed_frac':34s} {frac:12.6g} ratio  ({o['failed']}/{o['attempted']} "
          "utterance analyses)")
    for line in detail.get("import_breakdown", []):
        print(f"  {line}")
    for site in detail.get("untraced_sites", []):
        print(f"  WARN lookup site gone, not traced: {site}")
    for problem in o["problems"]:
        print(f"  FAIL {problem}")
    print("env: " + json.dumps(record["environment"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "opdkit", "cli.py")):
        print(f"error: no opdkit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import opdkit
    if not os.path.abspath(opdkit.__file__).startswith(SRC + os.sep):
        print(f"error: opdkit imported from {opdkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        record = run_workload(name, args.seed, args.seconds, args.trace)
        path = os.path.join(WORK, "results", f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        report(record)
        print(json.dumps(record["result"]), flush=True)
        correct = correct and record["result"]["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
