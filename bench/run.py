"""orderlab benchmark: whole pipeline runs, timed end to end and traced per layer.

Usage (from the repository root):
    python3 bench/run.py --workload seq-long [--seed 7] [--seconds 60] [--trace 0|1]

Each workload is a fixed experiment config in bench/workloads/. The seed
is passed to the program as `--seed`; the program sees nothing else of the
benchmark. One run is a closed loop with one client: fresh
`python -m orderlab pipeline` children, each in a new directory, for as
long as the next one is expected to end within --seconds (at least
MIN_REPEATS of them); the first is also resumed once. Children run the checkout's `src/` with OpenBLAS, OpenMP and
MKL pinned to one thread. See bench/README.md.

--trace 0 prints the end-to-end metrics, each the median over the fresh
runs, with timings scaled to a reference host speed (HostSpeed); --trace 1 runs the same fresh pipeline untraced and traced
(bench/tracer.py), a traced resume, and the fixed-shape kernel probes
(bench/probes.py), and prints the per-layer metrics. The last stdout line
is the result object; earlier lines record the environment and every
child run.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = BENCH / "workloads"
RUNS = ROOT / ".bench_runs"

STAGES = (
    "data", "clean_model", "inject", "poisoned_model", "dualview",
    "detect", "influence", "rectify", "final",
)
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0  # children still running this long after the start are killed
MIN_REPEATS = 3  # fresh pipeline runs per measured run, even past --seconds
DEFAULT_SECONDS = 60.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "train_terms_per_s": "terms/s",
    "peak_rss_mb": "MB",
    "ndcg10_clean": "ndcg",
    "ndcg10_rectified": "ndcg",
}
# run-level figures reported by the traced run only: measured once per run, or
# spread over seeds wider than any bound a gate may use (see bench/README.md)
UNGATED = {
    "resume_s": "s",
    "influence_samples_per_s": "samples/s",
    "detect_f1": "f1",
    "lissa_residual": "ratio",
}


# --- child processes --------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC)
    return env


# log lines whose arrival times the parent records, by mark name
MARKS = {
    "setup_s": "stage data done",
    "lissa_done_s": "lissa: scale=",
    "influence_done_s": "stage influence done",
}


def run_child(cmd: list[str], timeout_s: float = RUN_LIMIT_S) -> dict:
    """Run one child; time it from spawn and stamp marked stderr lines on arrival.

    Returns the exit code, wall time, the arrival time of each MARKS line
    (None when absent), the child's peak RSS from wait4, and the exception
    class the CLI reported on failure.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, bufsize=1,
    )
    watchdog = threading.Timer(timeout_s, proc.kill)
    watchdog.start()
    marks = dict.fromkeys(MARKS)
    tail: list[str] = []
    try:
        for line in proc.stderr:
            for mark, text in MARKS.items():
                if marks[mark] is None and text in line:
                    marks[mark] = time.perf_counter() - start
            tail = (tail + [line.rstrip()])[-20:]
    finally:
        watchdog.cancel()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit_code": proc.returncode,
        "wall_s": time.perf_counter() - start,
        **marks,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exception": exception_class(tail) if proc.returncode else None,
    }


def exception_class(lines: list[str]) -> str | None:
    """Exception class named by the CLI's error line or a traceback's last line."""
    for line in lines:
        m = re.search(r" ERROR (\w+): ", line)
        if m:
            return m.group(1)
    for line in reversed(lines):
        m = re.match(r"^([A-Za-z_][\w.]*(?:Error|Exception|Failure|Interrupt)\w*)\b", line)
        if m:
            return m.group(1)
    return None


def orderlab_cmd(command: str, config: Path, seed: int, out: Path, resume: bool = False,
                 tracer_out: Path | None = None) -> list[str]:
    args = [command, "--config", str(config), "--seed", str(seed), "--out", str(out)]
    if resume:
        args.append("--resume")
    if tracer_out is None:
        return [sys.executable, "-m", "orderlab"] + args
    return [sys.executable, str(BENCH / "tracer.py"), str(tracer_out)] + args


# --- output checks and quality ------------------------------------------------

def read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def non_finite(obj, where="") -> list[str]:
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in non_finite(v, f"{where}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in non_finite(v, f"{where}[{i}]")]
    if isinstance(obj, float) and not math.isfinite(obj):
        return [where]
    return []


def check_outputs(out: Path) -> list[str]:
    """Problems with a finished run's artifacts; empty when all checks pass."""
    problems = []
    metrics = read_json(out / "metrics.json")
    influence = read_json(out / "influence.json")
    timings = read_json(out / "timings.json")
    for name, doc in (("metrics.json", metrics), ("influence.json", influence),
                      ("timings.json", timings)):
        problems += [f"{name}: non-finite value at {p}" for p in non_finite(doc)]
    for model in ("clean", "compromised", "rectified"):
        for mode in ("valid", "test"):
            for key, value in metrics[model][mode].items():
                if key.startswith(("NDCG@", "HR@")) and not 0.0 <= value <= 1.0:
                    problems.append(f"{model}/{mode} {key}={value} outside [0, 1]")
    missing = [s for s in STAGES if s not in timings]
    if missing:
        problems.append(f"timings.json lacks stages {missing}")
    if len(influence["values"]) != len(influence["samples"]):
        problems.append("influence.json: values and samples differ in length")

    # every planted order inside a train prefix is either caught or missed
    poisoned = read_json(out / "corpus_poisoned.json")["sequences"]
    entries = read_json(out / "manifest.json")["entries"]
    in_prefix = sum(1 for e in entries if e["position"] < len(poisoned[e["user"]]) - 2)
    overall = metrics["detection"]["overall"]
    found = overall["true_positives"] + overall["false_negatives"]
    per_type = sum(t["total"] for t in metrics["detection"]["per_type"].values())
    if not found == per_type == in_prefix:
        problems.append(
            f"detection TP+FN={found}, per-type total={per_type}, manifest={in_prefix}"
        )
    return problems


def quality(out: Path) -> dict:
    metrics = read_json(out / "metrics.json")
    return {
        "ndcg10_clean": metrics["clean"]["test"]["NDCG@10"],
        "ndcg10_rectified": metrics["rectified"]["test"]["NDCG@10"],
        "detect_f1": metrics["detection"]["overall"]["f1"],
        "lissa_residual": read_json(out / "influence.json")["residual"],
    }


def train_terms(out: Path) -> int:
    """Next-item loss terms trained: epochs run x sum(len(train_prefix) - 1)."""

    def per_epoch(corpus_file):
        seqs = read_json(out / corpus_file)["sequences"]
        return sum(len(s) - 3 for s in seqs if len(s) - 2 >= 2)

    clean, poisoned = per_epoch("corpus_clean.json"), per_epoch("corpus_poisoned.json")
    epochs = {
        name: len(read_json(out / f"trace_{name}.json")["trace"])
        for name in ("clean", "poisoned", "dualview")
    }
    return epochs["clean"] * clean + (epochs["poisoned"] + epochs["dualview"]) * poisoned


def fresh_metrics(out: Path, child: dict) -> dict:
    """Figures of one fresh run, from its child record and its artifacts."""
    timings = read_json(out / "timings.json")
    samples = len(read_json(out / "influence.json")["samples"])
    # per-sample scoring only: the LiSSA solve before it does not scale with samples
    marks = child["lissa_done_s"], child["influence_done_s"]
    scoring_s = None if None in marks else marks[1] - marks[0]
    return {
        "setup_s": child["setup_s"],
        "pipeline_s": sum(timings[s] for s in STAGES[1:]),
        "train_terms_per_s": train_terms(out) / sum(
            timings[s] for s in ("clean_model", "poisoned_model", "dualview")
        ),
        "influence_samples_per_s": scoring_s and samples / scoring_s,
        "peak_rss_mb": child["peak_rss_mb"],
        "stage_s": {s: timings[s] for s in STAGES},
        **quality(out),
    }


# --- one measured run -------------------------------------------------------

class Run:
    """Attempt accounting and child-run log for one benchmark invocation."""

    def __init__(self, config: Path, seed: int, work: Path):
        self.config = config
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def time_left(self) -> float:
        return max(self.deadline - time.perf_counter(), 1.0)

    def log(self, kind: str, **fields) -> None:
        print(json.dumps({"child": kind, **fields}, sort_keys=True), flush=True)

    def attempt(self, kind: str, cmd: list[str]) -> dict | None:
        """Run a child and count it; a non-zero exit fails it and the whole run."""
        self.attempted += 1
        child = run_child(cmd, self.time_left())
        self.log(kind, **child)
        if child["exit_code"] != 0:
            self.failed += 1
            self.correct = False
            return None
        return child

    def check(self, kind: str, problems: list[str]) -> bool:
        """Count a finished child failed, and the outputs wrong, on any problem."""
        if problems:
            self.failed += 1
            self.correct = False
            self.log(kind, problems=problems)
        return not problems

    def fresh(self, out: Path, tracer_out: Path | None = None) -> dict | None:
        kind = "fresh-traced" if tracer_out else "fresh"
        child = self.attempt(kind, orderlab_cmd("pipeline", self.config, self.seed, out,
                                                tracer_out=tracer_out))
        if child is None or not self.check(kind, check_outputs(out)):
            return None
        return fresh_metrics(out, child)

    def resume(self, out: Path, tracer_out: Path | None = None) -> float | None:
        """Rebuild the report from the fresh run's artifacts; compare its bytes.

        metrics.json is set aside first, so the final stage recomputes it
        from the reloaded checkpoints instead of reading it back. Returns
        the resumed run's summed stage times.
        """
        kind = "resume-traced" if tracer_out else "resume"
        reference = out / "metrics.fresh.json"
        os.replace(out / "metrics.json", reference)
        child = self.attempt(kind, orderlab_cmd("pipeline", self.config, self.seed, out,
                                                resume=True, tracer_out=tracer_out))
        if child is None:
            return None
        same = (out / "metrics.json").read_bytes() == reference.read_bytes()
        if not self.check(kind, [] if same else ["resumed metrics.json differs from fresh"]):
            return None
        return sum(read_json(out / "timings.json").values())

    def probes(self) -> dict:
        """Fixed-shape kernel probe times and computed operation counts."""
        path = self.work / "probes.json"
        if self.attempt("probes", [sys.executable, str(BENCH / "probes.py"), str(path)]) is None:
            return {}
        return {
            name: (value, "flop_computed" if name.endswith("_flop") else "ms")
            for name, value in read_json(path).items()
        }


# --- host speed reference -----------------------------------------------------

# The shared host runs the benchmark's core at a speed that drifts by up to
# 1.5x over minutes (see bench/README.md, "Noise on a shared host"). So
# gated timings are reported at a fixed host speed: each is divided by the
# run's slowdown, the mean time of a fixed numpy loop, timed in the parent
# between repeats, over REFERENCE_LOOP_S. The loop is the benchmark's own
# code: a change to the program moves the timings, never the reference.
REFERENCE_LOOP_S = 0.0055  # mean loop time on the host the bounds were set on
REFERENCE_LOOPS = 10  # loops timed before each repeat and after the last
TIMES = ("setup_s", "pipeline_s", "resume_s")
RATES = ("train_terms_per_s", "influence_samples_per_s")


class HostSpeed:
    """Times a GRU-like step loop and a softmax over fixed inputs."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.h0 = rng.standard_normal((32, 48))
        self.w = rng.standard_normal((48, 144)) * 0.1
        self.logits = rng.standard_normal((32, 10, 800))
        for _ in range(REFERENCE_LOOPS):  # warm-up, untimed
            self.loop()
        self.loops_s: list[float] = []

    def loop(self) -> float:
        np = self.np
        start = time.perf_counter()
        h = self.h0
        for _ in range(60):
            g = h @ self.w
            z = 1.0 / (1.0 + np.exp(-g[:, :48]))
            h = np.tanh(g[:, 48:96]) * z + h * (1.0 - z)
        p = np.exp(self.logits - self.logits.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        return time.perf_counter() - start

    def sample(self) -> None:
        self.loops_s.extend(self.loop() for _ in range(REFERENCE_LOOPS))

    def slowdown(self) -> float:
        """Mean loop time over REFERENCE_LOOP_S: above 1 on a slower host."""
        return statistics.fmean(self.loops_s) / REFERENCE_LOOP_S


def at_reference_speed(figures: dict, slowdown: float) -> dict:
    """Times divided by the slowdown and rates multiplied by it; the rest as is."""
    scaled = dict(figures)
    for name in TIMES + RATES:
        if scaled.get(name) is not None:
            scaled[name] = scaled[name] / slowdown if name in TIMES else scaled[name] * slowdown
    return scaled


def median(values) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def measure(run: Run, seconds: float) -> dict:
    """Fresh pipeline runs, each in a new directory, for `seconds`.

    A repeat starts only while it is expected to end within `seconds`,
    judged by the time the previous one took, so that a run's length does
    not vary with how far its last repeat overshoots. Every repeat must
    write the same metrics.json as the first; the first is also resumed
    once. Returns the median of each figure over the repeats, at the
    reference host speed, or {} when the first run failed.
    """
    start = time.perf_counter()
    speed = HostSpeed()
    samples: list[dict] = []
    reference = None
    last_s = 0.0
    while len(samples) < MIN_REPEATS or time.perf_counter() - start + last_s <= seconds:
        began = time.perf_counter()
        speed.sample()
        out = run.work / f"fresh{len(samples)}"
        figures = run.fresh(out)
        if figures is None:
            break
        report = (out / "metrics.json").read_bytes()
        if reference is None:
            reference = report
            figures["resume_s"] = run.resume(out)
            if figures["resume_s"] is None:
                break
        elif not run.check("repeat", [] if report == reference
                           else ["metrics.json differs between repeats at one seed"]):
            break
        samples.append(figures)
        shutil.rmtree(out)
        last_s = time.perf_counter() - began
    speed.sample()
    if not samples:
        return {}
    # the figures logged are as measured, before scaling
    run.log("figures", repeats=len(samples), slowdown=speed.slowdown(),
            **{name: [s.get(name) for s in samples] for name in samples[0]})
    medians = {name: median(s.get(name) for s in samples) for name in samples[0] if name != "stage_s"}
    return at_reference_speed(medians, speed.slowdown())


# --- traced run ---------------------------------------------------------------

# every wrapped layer runs on every workload, fresh run and resume together
SPAN_NAMES = tuple(name for _, _, name in tracer.SPANS)
REQUIRED_CALLS = SPAN_NAMES + tuple(name for _, _, name in tracer.COUNTED)
INCLUSIVE_TIME = ("rectifier.hvp", "rectifier.lissa_solve", "rectifier.influence_values")
COUNTS = (
    "encoder.cell_steps", "encoder.logits", "rectifier.lissa_iterations",
    "rectifier.influence_samples", "checkpoint.save.bytes", "checkpoint.load.bytes",
    "corpus.save.bytes", "corpus.load.bytes",
)


def layer_metrics(fresh_trace: dict, resume_trace: dict) -> tuple[dict, list[str]]:
    """Per-layer calls, self time and counts over the traced fresh run and resume."""
    spans: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for doc in (fresh_trace, resume_trace):
        for name, s in doc["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in acc:
                acc[key] += s[key]
        for name, value in doc["counts"].items():
            counts[name] = counts.get(name, 0) + value
    calls = {name: s["calls"] for name, s in spans.items()}
    calls.update({k[: -len(".calls")]: v for k, v in counts.items() if k.endswith(".calls")})
    out = {}
    for name in REQUIRED_CALLS:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in SPAN_NAMES:
        out[f"{name}.self_s"] = (spans.get(name, {}).get("self_s", 0.0), "s")
    for name in INCLUSIVE_TIME:
        out[f"{name}.total_s"] = (spans.get(name, {}).get("total_s", 0.0), "s")
    for name in COUNTS:
        out[name] = (counts.get(name, 0), "bytes" if name.endswith(".bytes") else "count")
    cells = counts.get("encoder.pad_cells", 0)
    out["encoder.pad_fraction"] = (counts.get("encoder.pad_padded", 0) / max(cells, 1), "share")
    zero = [name for name in REQUIRED_CALLS if calls.get(name, 0) == 0]
    return out, [f"layer {name} recorded zero calls" for name in zero]


def shares(fresh_trace: dict, pipeline_s: float) -> dict:
    """Shares of the traced pipeline_s held by each workload's target layers."""
    spans = fresh_trace["spans"]

    def self_s(*names):
        return sum(spans[n]["self_s"] for n in names if n in spans)

    return {
        "share.gru": (self_s("encoder.gru_forward", "encoder.gru_backward") / pipeline_s, "share"),
        "share.vocab": (
            self_s("encoder.tied_next_item_loss", "detector.features", "encoder.next_step_probs")
            / pipeline_s, "share",
        ),
        "share.hvp": (spans.get("rectifier.hvp", {}).get("total_s", 0.0) / pipeline_s, "share"),
    }


def report_figures(out: Path) -> dict:
    """Detector and rectifier figures read from a finished run's reports."""
    detection = read_json(out / "metrics.json")["detection"]
    figures = {
        f"detector.recall_{kind}": (stats["recall"], "share")
        for kind, stats in sorted(detection["per_type"].items())
    }
    figures["detector.positions_scored"] = (detection["positions_scored"], "count")
    figures["rectifier.rectify_rounds"] = (
        read_json(out / "metrics.json")["rectify"]["rounds_used"], "count"
    )
    rows = (out / "influence.csv").read_text(encoding="utf-8").splitlines()[1:]
    harmful = [r.split(",") for r in rows if r.endswith(",1")]
    figures["rectifier.harmful_fraction"] = (len(harmful) / max(len(rows), 1), "share")
    fakes = sum(1 for r in harmful if r[2])
    figures["rectifier.harmful_fake_precision"] = (fakes / max(len(harmful), 1), "share")
    return figures


def traced(run: Run) -> dict:
    """Untraced fresh run and resume, traced fresh run and resume, kernel probes."""
    plain_dir, out = run.work / "plain", run.work / "traced"
    plain = run.fresh(plain_dir)
    plain_resume_s = plain and run.resume(plain_dir)
    fresh_trace_path, resume_trace_path = run.work / "trace_fresh.json", run.work / "trace_resume.json"
    traced_fresh = run.fresh(out, tracer_out=fresh_trace_path)
    if plain_resume_s is None or traced_fresh is None:
        return {}
    same = (plain_dir / "metrics.json").read_bytes() == (out / "metrics.json").read_bytes()
    run.check("repeat", [] if same else ["metrics.json differs between repeats at one seed"])
    if run.resume(out, tracer_out=resume_trace_path) is None:
        return {}
    fresh_trace, resume_trace = read_json(fresh_trace_path), read_json(resume_trace_path)
    metrics, zero_calls = layer_metrics(fresh_trace, resume_trace)
    run.check("layers", zero_calls)
    metrics.update(shares(fresh_trace, traced_fresh["pipeline_s"]))
    metrics.update({f"stage.{s}_s": (v, "s") for s, v in traced_fresh["stage_s"].items()})
    metrics.update(report_figures(out))
    # run-level figures not gated (see bench/README.md), from the untraced run
    for name in UNGATED:
        metrics[name] = (plain_resume_s if name == "resume_s" else plain[name], UNGATED[name])
    metrics["trace.overhead_frac"] = (traced_fresh["pipeline_s"] / plain["pipeline_s"] - 1.0, "share")
    metrics.update(run.probes())
    metrics["failed_runs"] = (run.failed / run.attempted, "share")
    return metrics


# --- entry point --------------------------------------------------------------

def environment() -> dict:
    import platform

    import numpy

    blas = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "thread_pins": THREAD_PINS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
    }


def main(argv=None) -> int:
    os.environ.update(THREAD_PINS)  # before numpy loads: the parent times HostSpeed loops
    workloads = sorted(p.stem for p in WORKLOADS.glob("*.json"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "orderlab" / "__init__.py").is_file():
        print(f"error: {SRC / 'orderlab'} not found; run from an orderlab checkout",
              file=sys.stderr)
        return 2

    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed,
                      "trace": args.trace}, sort_keys=True), flush=True)
    work = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(WORKLOADS / f"{args.workload}.json", args.seed, work)
    try:
        if args.trace:
            metrics = traced(run)
        else:
            figures = measure(run, args.seconds)
            # a run with no finished pipeline reports every metric as null
            metrics = {
                name: (figures.get(name), unit) for name, unit in END_TO_END_UNITS.items()
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            RUNS.rmdir()
    result = {
        "correct": run.correct and bool(metrics) and None not in (v for v, _ in metrics.values()),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
