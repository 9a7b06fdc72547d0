"""Benchmark for cliquespectra: end-to-end and per-layer metrics of the CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process with one thread drives `cliquespectra.cli.run(argv)` in-process,
one operation at a time (a closed loop with a single client), over the
workload's fixed list of operations (a round), round after round until the
measured time reaches --seconds.  Every output is then checked by code apart
from the program.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
under --trace 0 and the per-layer metrics under --trace 1.  Inputs,
certificates, checkpoints, the result and the trace go to .bench_work/.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

sys.dont_write_bytecode = True  # leave no bytecode beside the sources of the checkout

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_STARTS = 15

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def measure_setup() -> float:
    """Median wall time of fresh interpreters that import cliquespectra.cli.

    Bytecode is cached under .bench_work/pycache and filled by one start
    that is not timed, so every timed start reads the same cached files
    whatever the environment says about writing bytecode.
    """
    cmd = [sys.executable, "-I", "-X", f"pycache_prefix={WORK / 'pycache'}", "-c",
           f"import sys; sys.path.insert(0, {str(SRC)!r}); import cliquespectra.cli"]
    times = []
    for i in range(SETUP_STARTS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


class Runner:
    """Runs rounds of a workload's operations and keeps their distinct outputs.

    Outputs are checked only after the timed rounds, and the peak memory is
    read before the checks, so neither counts the checks' own work.
    """

    def __init__(self, cli, ops):
        self.cli, self.ops = cli, ops
        self.round_no = 0
        self.outputs: Counter = Counter()  # (op index, exit code, stdout, stderr, file) -> runs

    def rounds(self, seconds: float, on_round=None):
        """Whole rounds until the next one would end past `seconds`; returns
        (round wall times, operation latencies), both in seconds."""
        walls, latencies = [], []
        while True:
            gc.collect()
            self.round_no += 1
            outputs = []
            round_start = time.perf_counter()
            for op in self.ops:
                argv = op.argv_for(self.round_no)
                out, err = io.StringIO(), io.StringIO()
                start = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = self.cli.run(argv)
                except Exception:  # the program raised: a failed operation
                    code = None
                    err.write(traceback.format_exc())
                latencies.append(time.perf_counter() - start)
                outputs.append((code, out.getvalue(), err.getvalue()))
            walls.append(time.perf_counter() - round_start)
            if on_round is not None:
                on_round()
            for index, (op, (code, stdout, stderr)) in enumerate(zip(self.ops, outputs)):
                self.outputs[index, code, stdout, stderr, self._take_file(op)] += 1
            if sum(walls) + statistics.median(walls) > seconds:
                return walls, latencies

    def _take_file(self, op):
        path = op.path_for(self.round_no)
        if path is None or not os.path.exists(path):
            return None
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(path)
        return text

    def check(self):
        """(correct, attempted, failed, problems).  A nonzero exit or a failed
        check fails the operation; only a failed check makes the run incorrect."""
        correct, attempted, failed, problems = True, 0, 0, []
        for (index, code, stdout, stderr, text), runs in self.outputs.items():
            op = self.ops[index]
            attempted += runs
            if code != 0:
                found = [f"exit code {code}: {(stderr or stdout).strip()[-300:]}"]
            else:
                try:
                    found = op.check(stdout, text)
                except (ValueError, KeyError, TypeError) as exc:  # unreadable output
                    found = [f"output could not be read: {exc!r}"]
                correct &= not found
            if found:
                failed += runs
                problems.append(f"{op.name} ({runs} runs): " + "; ".join(found[:3]))
        return correct, attempted, failed, problems


def run_workload(args) -> dict:
    if not (SRC / "cliquespectra" / "cli.py").is_file():
        raise SystemExit(f"error: no cliquespectra sources at {SRC}")
    sys.path.insert(0, str(SRC))
    from cliquespectra import cli, extraction, hypergraphs, layered, search

    if Path(cli.__file__).resolve().parent != SRC / "cliquespectra":
        raise SystemExit(f"error: imported cliquespectra from {cli.__file__}, not from {SRC}")
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    setup_s = None if args.trace else measure_setup()
    ops = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    runner = Runner(cli, ops)

    if not args.trace:
        walls, latencies = runner.rounds(args.seconds)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "peak_rss_mb": peak_kib / 1024,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
        families: dict = {}
        for i, latency in enumerate(latencies):
            families.setdefault(ops[i % len(ops)].family, []).append(latency * 1e3)
        detail = {"rounds": len(walls), "ops_per_round": len(ops), "round_walls_s": walls,
                  "family_p50_ms": {f: statistics.median(v) for f, v in families.items()}}
    else:
        plain_walls, _ = runner.rounds(args.seconds / 2)
        tracer = tracing.Tracer()
        tracing.install(tracer, cli, extraction, hypergraphs, layered, search)
        labeled = sum(op.labeled_space for op in ops)
        per_round = []
        try:
            traced_walls, _ = runner.rounds(
                args.seconds / 2,
                on_round=lambda: per_round.append(tracing.layer_metrics(*tracer.take_round(), labeled)))
        finally:
            tracer.restore()
        tracer.write(str(workdir / "trace.json"), per_round)
        metrics = {
            name: {"value": statistics.median(r[name] for r in per_round), "unit": tracing.unit(name)}
            for name in per_round[0]
        }
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(traced_walls) / statistics.median(plain_walls), "unit": "ratio"}
        detail = {"rounds": len(plain_walls) + len(traced_walls), "ops_per_round": len(ops)}

    correct, attempted, failed, problems = runner.check()
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, detail=detail, problems=problems), fh, indent=1)
    for problem in problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"{args.workload}: {detail['rounds']} rounds of {detail['ops_per_round']} operations, "
          f"{attempted} attempted, {failed} failed")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    return result


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
