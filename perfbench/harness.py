"""Runs one workload through the CLI, or replays it traced, and computes its metrics."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import mmscatter.cli as cli
import mmscatter.lobes as lobes
import spans
import workloads
from mmscatter.fileio import read_report

SETUP_CODE = "import mmscatter.cli\nfrom mmscatter.fileio import default_materials\ndefault_materials()"
# set-up is timed in two groups, before and after the passes, so that the
# median spans the run rather than one moment of it
SETUP_REPEATS = 4
CALL_TIMEOUT_S = 120.0
# no timed call or traced replay pair starts after this point, so that a slow
# machine still ends the run well within three minutes
LAST_CALL_START_S = 100.0
# The shared machine's speed drifts by up to 1.5x over minutes, on CPU time
# as on wall time. speed_reference.py, run before every timed call and once
# after the last, tracks that speed; end-to-end times are scaled to the
# speed at which it takes REFERENCE_S
REFERENCE_SCRIPT = Path(__file__).resolve().parent / "speed_reference.py"
REFERENCE_S = 0.25
WORK_DIR = ".perfbench_work"
TRACE_DIR = ".perfbench_out"


@dataclass
class CallResult:
    wall: float
    cpu: float
    rss_mb: float
    returncode: int
    stdout: str


def run_process(argv: list[str], cwd: Path, env: dict) -> CallResult:
    """Run one child to completion; wall time, user+sys time and peak RSS from wait4."""
    with open(cwd / ".stdout", "w+b") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.DEVNULL)
        watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode("utf-8", "replace")
    return CallResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode, stdout)


def copy_inputs(files: list[str], source: Path, dest: Path) -> Path:
    dest.mkdir(parents=True, exist_ok=True)
    for name in files:
        shutil.copyfile(source / name, dest / name)
    return dest


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "mmscatter").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path, src: Path, nproc: int) -> dict:
    import numpy

    sha = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {
        "git_sha": sha,
        "src_sha256": source_digest(src),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "blas": blas_name,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "machine": platform.machine(),
    }


class Bench:
    def __init__(self, root: Path, seconds: float):
        self.root = root
        self.run_dir = root  # a fresh directory per workload, set by run_workload
        self.seconds = seconds
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference_walls: list[float] = []

    def reference(self, cwd: Path) -> None:
        result = run_process([sys.executable, str(REFERENCE_SCRIPT)], cwd, self.env)
        self.record("speed reference", [] if result.returncode == 0 else [f"exit code {result.returncode}"])
        self.reference_walls.append(result.wall)

    def timed(self, call, cwd: Path) -> CallResult:
        """Run one timed CLI call, after a run of the speed reference."""
        self.reference(cwd)
        return self.cli(call.args, cwd)

    def cli(self, args: list[str], cwd: Path) -> CallResult:
        return run_process([sys.executable, "-m", "mmscatter.cli", *args], cwd, self.env)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend(f"{label}: {p}" for p in problems)

    def setup_walls(self) -> list[float]:
        cwd = self.run_dir / "setup"
        cwd.mkdir(exist_ok=True)
        walls = []
        for _ in range(SETUP_REPEATS):
            result = run_process([sys.executable, "-c", SETUP_CODE], cwd, self.env)
            self.record("setup", [] if result.returncode == 0 else [f"exit code {result.returncode}"])
            walls.append(result.wall)
        return walls

    def run_pass(self, wl, index: int, calls=None, go=None) -> list[CallResult]:
        """Run the calls of one pass in order; stop before the k-th when go(k) is false."""
        pass_dir = copy_inputs(wl.inputs, self.run_dir / "inputs", self.run_dir / f"pass{index}")
        results = []
        for k, call in enumerate(wl.calls if calls is None else calls):
            if go is not None and not go(k):
                break
            result = self.timed(call, pass_dir)
            problems = checks.check_call(call, pass_dir, result.returncode, result.stdout)
            if index > 0 and not problems:
                problems = checks.compare_passes(call, self.run_dir / "pass0", pass_dir)
            self.record(f"pass {index} {call.name}", problems)
            results.append(result)
        if index > 0:
            shutil.rmtree(pass_dir)
        return results

    def run_checks(self, wl) -> None:
        """Untimed correctness calls: the on-grid fit and the stored references."""
        if wl.ongrid is not None:
            check_dir = copy_inputs(wl.inputs, self.run_dir / "inputs", self.run_dir / "ongrid")
            result = self.cli(wl.ongrid.args, check_dir)
            self.record("ongrid", checks.check_call(wl.ongrid, check_dir, result.returncode, result.stdout))
        expected = checks.load_reference()
        ref_dir = copy_inputs([expected["fit"]["input"]], checks.REFERENCE_DIR, self.run_dir / "reference")
        for kind, check in (("simulate", checks.check_reference_simulate), ("fit", checks.check_reference_fit)):
            result = self.cli(expected[kind]["args"], ref_dir)
            if result.returncode != 0:
                self.record(f"reference {kind}", [f"exit code {result.returncode}"])
            else:
                self.record(f"reference {kind}", check(expected[kind], ref_dir))

    # --- untraced: end-to-end metrics ---------------------------------------------

    def end_to_end(self, wl) -> tuple[dict, dict]:
        self.reference_walls = []
        setup_walls = self.setup_walls()
        started = time.perf_counter()
        samples: list[list[CallResult]] = [[] for _ in wl.calls]  # every timed run of each call

        def fits(k: int) -> bool:
            elapsed = time.perf_counter() - started
            typical = statistics.mean(r.wall for r in samples[k])
            return elapsed + typical <= self.seconds and elapsed <= LAST_CALL_START_S

        passes = 0
        while True:
            # the first pass always runs whole; later ones run call by call
            # while the next call is expected to end within --seconds
            results = self.run_pass(wl, passes, go=None if passes == 0 else fits)
            for k, result in enumerate(results):
                samples[k].append(result)
            passes += bool(results)
            if len(results) < len(wl.calls):
                break
        self.reference(self.run_dir)
        # above 1 when the machine ran slower than the reference speed
        slowdown = statistics.mean(self.reference_walls) / REFERENCE_S
        if all(len(runs) == 1 for runs in samples):
            # untimed repeat of the pass's last call, for the byte-identity
            # check that a second run of some call would otherwise give
            self.run_pass(wl, 1, calls=wl.calls[-1:])
        self.run_checks(wl)
        setup_walls += self.setup_walls()

        # each call's mean over its runs; the machine's speed drifts in
        # phases of seconds, which a mean over the whole run evens out and a
        # median of a few passes does not
        wall = [statistics.mean(r.wall for r in runs) for runs in samples]
        cpu = [statistics.mean(r.cpu for r in runs) for runs in samples]
        per_call = [self._candidates(call) for call in wl.calls]
        work_wall = sum(w for w, n in zip(wall, per_call) if n)
        path_evals = sum(n * call.positions * call.tiles for n, call in zip(per_call, wl.calls))
        times = {
            "setup_s": statistics.median(setup_walls),
            "wall_s": sum(wall),
            "call_p50_s": statistics.median(wall),
            "call_tail_s": max(wall),
            "cpu_s": sum(cpu),
        }
        rates = {"candidates_per_s": sum(per_call) / work_wall, "path_evals_per_s": path_evals / work_wall}
        metrics = {name: (value / slowdown, "s") for name, value in times.items()}
        metrics.update((name, (value * slowdown, "1/s")) for name, value in rates.items())
        metrics["peak_rss_mb"] = (max(r.rss_mb for runs in samples for r in runs), "MB")
        notes = {"passes": passes, "runs_per_call": [len(runs) for runs in samples],
                 "candidates_per_pass": sum(per_call), "slowdown": slowdown,
                 "reference_runs": len(self.reference_walls),
                 "as_measured": " ".join(f"{name}={value:.6g}" for name, value in {**times, **rates}.items())}
        return metrics, notes

    def _candidates(self, call) -> int:
        """Lobe-parameter sets one call evaluates: fit trace rows, or 1 per simulate."""
        if call.kind == "simulate":
            return 1
        if call.kind != "fit":
            return 0
        total = 0
        for name in call.outputs[1:]:
            try:
                total += len(read_report(self.run_dir / "pass0" / name).trace)
            except (OSError, ValueError):
                pass  # already counted as a failed check
        return total

    # --- traced: per-layer metrics ------------------------------------------------

    def replay(self, wl, index: int, tracer=None) -> float:
        """Run the workload's calls in this process; wall seconds of the whole replay.

        Outputs are checked like those of a CLI pass, and every replay after
        the first must write the same bytes as the first.
        """
        replay_dir = copy_inputs(wl.inputs, self.run_dir / "inputs", self.run_dir / f"replay{index}")
        calls = list(wl.calls) + ([wl.probe] if wl.probe is not None else [])
        done = []  # (call, exit code, stdout), checked once the clock has stopped
        cwd = os.getcwd()
        os.chdir(replay_dir)
        if tracer is not None:
            tracer.instrument()
        try:
            started = time.perf_counter()
            for call in calls:
                # every CLI call is a fresh process with a cold cache
                clear = getattr(lobes.single_lobe_norm, "cache_clear", None)
                if clear is not None:
                    clear()
                span = None
                if tracer is not None:
                    tracer.alphas = call.alphas
                    span = tracer.begin(spans.PROBE_SPAN if call is wl.probe else spans.CALL_SPAN)
                stdout = io.StringIO()
                try:
                    with contextlib.redirect_stdout(stdout):
                        code = cli.main(call.args)
                except Exception:  # a crash is one failed call, as it is for a CLI process
                    traceback.print_exc()
                    code = 1
                if span is not None:
                    tracer.end(span)
                if call is not wl.probe:
                    done.append((call, code, stdout.getvalue()))
            wall = time.perf_counter() - started
        finally:
            if tracer is not None:
                tracer.restore()
            os.chdir(cwd)
        for call, code, stdout in done:
            problems = checks.check_call(call, replay_dir, code, stdout)
            if index > 0 and not problems:
                problems = checks.compare_passes(call, self.run_dir / "replay0", replay_dir)
            self.record(f"replay {index} {call.name}", problems)
        if index > 0:
            shutil.rmtree(replay_dir)
        return wall

    def per_layer(self, wl, trace_path: Path) -> tuple[dict, dict]:
        started = time.perf_counter()
        layer_runs, overheads, tracer = [], [], None
        while True:
            pair_started = time.perf_counter()
            walls = {}
            # alternate which replay goes first so that warm-up favours neither
            for traced in (False, True) if len(overheads) % 2 == 0 else (True, False):
                index = 2 * len(overheads) + len(walls)
                if traced:
                    tracer = spans.Tracer()
                    walls[traced] = self.replay(wl, index, tracer)
                    layer_runs.append(spans.layer_metrics(tracer))
                else:
                    walls[traced] = self.replay(wl, index)
            overheads.append(walls[True] - walls[False])
            elapsed = time.perf_counter() - started
            if elapsed + (time.perf_counter() - pair_started) > self.seconds or elapsed > LAST_CALL_START_S:
                break
        self.run_checks(wl)
        tracer.write(trace_path)

        metrics = {
            name: (statistics.median(run[name][0] for run in layer_runs), unit)
            for name, (_, unit) in layer_runs[0].items()
        }
        metrics["tracing_overhead_s"] = (statistics.median(overheads), "s")
        notes = {"replay_pairs": len(overheads), "spans": len(tracer.spans),
                 "span_cost_estimate_s": tracer.span_cost_s() * len(tracer.spans), "trace_file": str(trace_path),
                 "self_time": spans.self_time_table(tracer)}
        return metrics, notes


def run_workload(bench: Bench, name: str, seed: int, trace: bool) -> tuple[dict, dict]:
    bench.run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=bench.root / WORK_DIR))
    try:
        wl = workloads.generate(name, seed, bench.run_dir / "inputs")
        if trace:
            trace_dir = bench.root / TRACE_DIR
            trace_dir.mkdir(exist_ok=True)
            return bench.per_layer(wl, trace_dir / f"spans-{name}-seed{seed}.json")
        return bench.end_to_end(wl)
    finally:
        shutil.rmtree(bench.run_dir, ignore_errors=True)


def print_lines(name: str, metrics: dict, notes: dict) -> None:
    for metric, (value, unit) in metrics.items():
        print(f"{name} {metric} {value:.6g} {unit}")
    for key, value in notes.items():
        if key == "self_time":
            for span_name, (count, total, self_s) in value.items():
                print(f"{name} span {span_name} n={count} total={total:.4f}s self={self_s:.4f}s")
        else:
            print(f"{name} note {key} {value}")




def run(root: Path, nproc: int, names: tuple[str, ...], seed: int, seconds: float, trace: bool) -> int:
    src = root / "src"
    if Path(cli.__file__).resolve().parent != (src / "mmscatter").resolve():
        print(f"perfbench: imported mmscatter from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(root, src, nproc), sort_keys=True))
    (root / WORK_DIR).mkdir(exist_ok=True)
    all_metrics = {}
    bench = Bench(root, seconds)
    for name in names:
        print(f"workload {name} seed {seed}")
        metrics, notes = run_workload(bench, name, seed, trace)
        print_lines(name, metrics, notes)
        for metric, (value, unit) in metrics.items():
            key = metric if len(names) == 1 else f"{name}.{metric}"
            all_metrics[key] = {"value": value, "unit": unit}
    for problem in bench.problems:
        print(f"FAILED {problem}")
    print(f"failed_frac {bench.failed / bench.attempted:.6g} ({bench.failed} of {bench.attempted} calls)")
    print(json.dumps(
        {"correct": bench.failed == 0, "attempted": bench.attempted, "failed": bench.failed, "metrics": all_metrics}
    ))
    return 0
