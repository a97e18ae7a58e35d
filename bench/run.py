"""flagnest benchmark: run the CLI the way users run it and report metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; flagnest is loaded from ./src.  Each CLI
invocation is a fresh `python -m flagnest.cli ...` process, started one at a
time by this single-threaded process and checked against `oracle`.

--trace 0 times the workload's pass over and over until S seconds are spent
and reports the end-to-end metrics (END_TO_END).  --trace 1 runs one pass
plain and one pass through traced_cli.py and reports the per-layer metrics
(`tracer.per_layer_names`), including the tracing overhead.  Both print a
metric table and a `record` line with the raw samples and the machine, and
end with one JSON line: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import tracer
from workloads import WORKLOADS, WrongAnswer, classify_queries, query_mix

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_BURST = 3  # fresh `--version` processes timed back to back
SETUP_EVERY = 25  # workload processes between two bursts

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "classes_per_s": "1/s",
    "query_p50_s": "s",
    "query_p90_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class RunTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RunTimeout("run did not finish within its deadline")


@dataclass
class Sample:
    args: List[str]
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: str
    spans: Optional[dict] = None
    classes: int = 0
    error: Optional[str] = None


class Runner:
    """Starts CLI processes one at a time and measures each with wait4."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.env = dict(os.environ)
        path = [str(ROOT / "src"), self.env.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)

    def _spawn(self, argv: List[str]):
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024,
            proc.returncode,
            out_path.read_bytes(),
            err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def cli(self, args: List[str], traced: bool = False) -> Sample:
        if not traced:
            return Sample(args, *self._spawn([sys.executable, "-m", "flagnest.cli", *args]))
        spans_path = self.tmp / "spans.json"
        spans_path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), *args]
        sample = Sample(args, *self._spawn(argv))
        if spans_path.exists():
            sample.spans = json.loads(spans_path.read_text(encoding="utf-8"))
        return sample


def run_pass(
    runner: Runner, workload, commands, traced: bool = False, setup: Optional[List[float]] = None
) -> List[Sample]:
    """Run and check one pass; if `setup` is given, add start-up samples to it.

    Start-up is sampled in bursts spread through the run (before the pass
    and after every SETUP_EVERY processes), so that its median sees the same
    machine as the workload does.
    """
    samples = []
    for index, args in enumerate(commands):
        if setup is not None and index % SETUP_EVERY == 0:
            setup += [runner.cli(["--version"]).wall_s for _ in range(SETUP_BURST)]
        sample = runner.cli(args, traced)
        try:
            if sample.code != 0:
                raise WrongAnswer(f"exit code {sample.code}: {sample.stderr.strip()[-300:]}")
            sample.classes = workload.check(args, sample.stdout.decode("utf-8"))
        except (WrongAnswer, ValueError, KeyError, IndexError) as exc:
            sample.error = f"{' '.join(args)}: {exc}"
        samples.append(sample)
    return samples


def end_to_end(setup: List[float], passes: List[List[Sample]]) -> Dict[str, float]:
    walls = [sum(s.wall_s for s in p) for p in passes]
    latencies = sorted(s.wall_s for p in passes for s in p)
    if len(latencies) > 1:
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    else:
        p90 = latencies[0]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "classes_per_s": statistics.median(
            sum(s.classes for s in p) / wall for p, wall in zip(passes, walls)
        ),
        "query_p50_s": statistics.median(latencies),
        "query_p90_s": p90,
        "cpu_s": statistics.median(sum(s.cpu_s for s in p) for p in passes),
        "peak_rss_mb": max(s.rss_mb for p in passes for s in p),
    }


def gate_overrun(plain: Sample, traced: Sample) -> List[str]:
    """Self-check lines that flipped to `fail` under tracing on time alone.

    A check's detail lists what it found wrong after a `;`; a failing check
    whose detail has none failed only its own wall-clock gate.  Such a check
    is reported by name and not counted as a wrong answer.
    """
    plain_lines = plain.stdout.decode("utf-8", "replace").splitlines()
    traced_lines = traced.stdout.decode("utf-8", "replace").splitlines()
    if len(plain_lines) != len(traced_lines) or not traced.spans:
        return []
    overruns = []
    for before, after in zip(plain_lines, traced_lines):
        if before == after:
            continue
        name = after.split(":")[0]
        check = traced.spans["checks"].get(name)
        if before != f"{name}: pass" or after != f"{name}: fail" or not check:
            return []
        if ";" in check["detail"]:
            return []
        overruns.append(name)
    return overruns


def compare_traced(workload_name: str, plain: List[Sample], traced: List[Sample]) -> List[str]:
    """Fail each traced sample whose stdout bytes differ from its plain twin's.

    Returns the self-check gates that tracing alone overran; those samples
    are not failed.
    """
    overruns = []
    for a, b in zip(plain, traced):
        if (a.stdout, a.code) == (b.stdout, b.code):
            continue
        names = gate_overrun(a, b) if workload_name == "self-check" else []
        if names:
            overruns += names
            b.error = None
        else:
            b.error = f"{' '.join(b.args)}: traced output differs from plain output"
    return overruns


def machine() -> Dict[str, object]:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def _sample_record(s: Sample) -> dict:
    return {
        "args": " ".join(s.args),
        "wall_s": s.wall_s,
        "cpu_s": s.cpu_s,
        "rss_mb": s.rss_mb,
        "ok": s.error is None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if not (ROOT / "src" / "flagnest" / "cli.py").is_file():
        print(f"bench: no flagnest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[ns.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(workload.deadline_s)
    start = time.perf_counter()
    commands = workload.commands(ns.seed)
    record = {"workload": ns.workload, "seed": ns.seed, "seconds": ns.seconds, "trace": ns.trace}
    record.update(machine())
    if ns.workload == "classify-cold":
        record["query_mix"] = query_mix(classify_queries(ns.seed))
    try:
        with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
            runner = Runner(Path(tmp))
            if ns.trace:
                plain = run_pass(runner, workload, commands)
                traced = run_pass(runner, workload, commands, traced=True)
                passes = [plain, traced]
            else:
                runner.cli(["--version"])  # untimed: writes the bytecode caches
                setup: List[float] = []
                passes = []
                while True:
                    passes.append(run_pass(runner, workload, commands, setup=setup))
                    last = sum(s.wall_s for s in passes[-1])
                    if time.perf_counter() - start + last > ns.seconds:
                        break
                record["setup_samples_s"] = setup
    except RunTimeout as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    if ns.trace:
        record["gate_overruns"] = compare_traced(ns.workload, plain, traced)
        docs = [s.spans for s in traced if s.spans]
        metrics = tracer.summarize(docs)
        metrics["trace.overhead_s"] = sum(s.wall_s for s in traced) - sum(s.wall_s for s in plain)
        units = {name: _layer_unit(name) for name in tracer.per_layer_names()}
        record["missing_spans"] = sorted({m for d in docs for m in d["missing"]})
        record["checks"] = {k: v for d in docs for k, v in d["checks"].items()}
    else:
        metrics = end_to_end(setup, passes)
        units = END_TO_END
    errors = [s.error for p in passes for s in p if s.error]
    attempted = sum(len(p) for p in passes)
    failed = len(errors)
    if not ns.trace:
        record["failed_frac"] = failed / attempted
    record["failures"] = errors[:20]
    record["passes"] = [[_sample_record(s) for s in p] for p in passes]
    record["metrics"] = metrics

    print(f"workload {ns.workload}  seed {ns.seed}  trace {ns.trace}  "
          f"passes {len(passes)}  processes {attempted}")
    for name, unit in units.items():
        print(f"  {name:<48} {metrics[name]:>14.6g} {unit}")
    if not ns.trace:
        print(f"  {'failed_frac':<48} {failed / attempted:>14.6g} ({failed} of {attempted})")
    for error in errors[:5]:
        print(f"  FAILED {error}", file=sys.stderr)
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
