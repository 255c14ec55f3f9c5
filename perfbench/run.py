"""enspost benchmark: run one workload's CLI pipeline and print its metrics.

    python3 perfbench/run.py --workload readme-6d --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  Each workload (``perfbench/workloads.json``)
is a config plus a list of ``enspost`` commands.  The benchmark writes the
config with ``seed = --seed``, runs ``simulate`` as set-up, then runs the
commands one after another as separate ``python -m enspost.cli`` processes
with ``src`` on ``PYTHONPATH``: a closed loop with one client.

``simulate`` always uses the workload's fixed ``data_seed``, so every seed
sees the same stations and weather; ``--seed`` drives every random stream
of the measured commands (Metropolis chains, ECC ties, rank draws).  Mesh
refinement cost varies up to fivefold between random station layouts, which
would otherwise swamp every timing.

``--trace 0`` repeats the pipeline while another repetition fits in
``--seconds`` (at least once) and reports end-to-end metrics as medians over
repetitions.  ``--trace 1`` runs the pipeline once untraced and once through
``perfbench/traced.py``, adds standalone ``spde`` calls, and reports
per-layer metrics from the spans.  Every run checks ``scores.csv`` and
writes ``.bench_out/<workload>-seed<seed>-trace<t>/result.json`` with the
environment, per-command records and the ``scores.csv`` sha256.  The last
line of standard output is the result object.

Command times are CPU seconds (user plus system, from ``wait4``, so any
child a command waits for counts too), not wall seconds.  On a shared
two-vCPU virtual machine wall time also carries the host's steal time: over
ten seeds it spread 10-18 % per metric against 3-13 % for CPU time.  Wall
times stay in ``result.json``, and the traced run reports
``wall.pipeline_s``.  Layer spans are wall intervals.
"""

import argparse
import csv
import datetime as dt
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CLI = [sys.executable, "-m", "enspost.cli"]
TRACED = [sys.executable, str(HERE / "traced.py")]
SETUP_REPEATS = 3
DEADLINE_S = 170.0
KINDS = ("fit", "predict", "ecc", "verify")
CLI_SELF = ("mesh",) + KINDS
ARTIFACTS = {
    "cases": ("cases.csv",),
    "draws": ("draws_memos/*",),
    "predict": ("predict_*.csv", "predict_memos/*"),
    "ens": ("ens_*.csv",),
}
SUMMED_LAYERS = (
    "data.load_cases", "data.rolling_window", "data.simulate", "data.write_cases",
    "mesh.build_mesh", "emos.fit_global", "emos.fit_local",
    "memos.sample_posterior", "memos.predictive_sample",
    "memos.PosteriorDraws.to_csv", "memos.PosteriorDraws.from_csv",
    "ecc.ecc_memos", "ecc.ecc_q", "ecc.independence_shuffle",
    "verify.crps_empirical", "verify.energy_score", "verify.multivariate_rank",
)


class CommandRunner:
    """Runs CLI processes one at a time and counts attempts and failures."""

    def __init__(self, logs: Path, deadline: float):
        self.logs = logs
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        self.attempted = 0
        self.failed = 0

    def run(self, argv, label: str) -> dict:
        self.attempted += 1
        log = self.logs / f"{self.attempted:03d}-{label}.log"
        remaining = self.deadline - time.monotonic()
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            killer = threading.Timer(max(remaining, 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            self.failed += 1
        return {"label": label, "wall_s": wall, "exit": code,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "max_rss_mb": usage.ru_maxrss * 1024 / 1e6, "log": str(log.relative_to(ROOT))}

    def fail(self):
        self.failed += 1


def cli_args(config: Path, out: Path, args) -> list:
    return ["--config", str(config), "--out", str(out)] + list(args)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_bytes(path: Path, patterns=("**/*",)) -> int:
    return sum(f.stat().st_size for pat in patterns for f in path.glob(pat) if f.is_file())


def expected_scores(config: dict, workload: dict, cases: Path):
    """Rows scores.csv must hold: (date, station, method) for crps and ae,
    and (date, label) for es."""
    observed = {}
    with open(cases, newline="") as fh:
        for row in csv.DictReader(fh):
            stations = observed.setdefault(row["date"], set())
            if row["obs"] != "":
                stations.add(row["station"])
    dates = sorted(observed)
    first = dt.date.fromisoformat(dates[0])
    start = (dt.date.fromisoformat(config["eval_start"]) if "eval_start" in config
             else first + dt.timedelta(days=int(config.get("window", 25))))
    eval_dates = [d for d in ((start + dt.timedelta(days=i)).isoformat()
                              for i in range(int(config["eval_days"]))) if d in observed]
    methods = {"raw"} | {c[2] for c in workload["commands"] if c[0] == "predict"}
    labels = {f"{c[2]}_{c[4] if len(c) > 4 else 'ecc'}" for c in workload["commands"]
              if c[0] == "ecc"}
    univariate = {(d, s, m) for d in eval_dates for s in observed[d] for m in methods}
    multivariate = {(d, label) for d in eval_dates for label in labels}
    return univariate, multivariate


def check_scores(path: Path, univariate, multivariate) -> tuple:
    """Problems found in scores.csv, and the mean of every (method, score)."""
    if not path.is_file():
        return ["scores.csv missing"], {}
    seen = {"crps": set(), "ae": set(), "es": set()}
    sums = {}
    problems = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            value = float(row["value"])
            if not math.isfinite(value):
                problems.append(f"non-finite {row}")
            key = (row["method"], row["score"])
            total, count = sums.get(key, (0.0, 0))
            sums[key] = (total + value, count + 1)
            if row["score"] == "es":
                seen["es"].add((row["date"], row["method"]))
            elif row["score"] in seen:
                seen[row["score"]].add((row["date"], row["site"], row["method"]))
    for score in ("crps", "ae"):
        missing = univariate - seen[score]
        if missing:
            problems.append(f"{len(missing)} {score} rows missing, e.g. {sorted(missing)[0]}")
    missing = multivariate - seen["es"]
    if missing:
        problems.append(f"{len(missing)} es rows missing, e.g. {sorted(missing)[0]}")
    return problems, {f"{m}.{s}": total / count for (m, s), (total, count) in sums.items()}


def run_pipeline(runner, workload, config_path, data_dir, run_dir, expected, trace_id=None):
    """One pass over the workload's commands in a fresh copy of the set-up
    outputs.  Stops at the first failing command."""
    shutil.rmtree(run_dir, ignore_errors=True)
    shutil.copytree(data_dir, run_dir)
    spans = run_dir.parent / "spans.jsonl"
    records = []
    for args in workload["commands"]:
        argv = cli_args(config_path, run_dir, args)
        if trace_id is not None:
            argv = TRACED + [str(spans), trace_id, "--"] + argv
        else:
            argv = CLI + argv
        rec = runner.run(argv, "-".join(a.lstrip("-") for a in args[:3]))
        rec["command"] = args[0]
        records.append(rec)
        if rec["exit"] != 0:
            break
    problems, means = check_scores(run_dir / "scores.csv", *expected)
    if records[-1]["exit"] == 0 and problems:
        runner.fail()
    scores = run_dir / "scores.csv"
    return {
        "records": records,
        "ok": records[-1]["exit"] == 0 and len(records) == len(workload["commands"]) and not problems,
        "problems": problems,
        "scores_sha256": sha256(scores) if scores.is_file() else None,
        "means": means,
        "pipeline_s": sum(r["cpu_s"] for r in records),
        "pipeline_wall_s": sum(r["wall_s"] for r in records),
        "output_bytes": tree_bytes(run_dir),
        "artifact_bytes": {k: tree_bytes(run_dir, pats) for k, pats in ARTIFACTS.items()},
    }


def end_to_end(passes, setup_walls) -> dict:
    """Medians over passes of every user-visible metric."""
    def med(fn):
        return statistics.median(fn(p) for p in passes)

    def kind_s(kind):
        return lambda p: sum(r["cpu_s"] for r in p["records"] if r["command"] == kind)

    metrics = {
        "pipeline_s": (med(lambda p: p["pipeline_s"]), "s"),
        "setup_s": (statistics.median(setup_walls), "s"),
    }
    for kind in KINDS:
        metrics[f"{kind}_s"] = (med(kind_s(kind)), "s")
    metrics["peak_rss_mb"] = (med(lambda p: max(r["max_rss_mb"] for r in p["records"])), "MB")
    metrics["output_mb"] = (med(lambda p: p["output_bytes"] / 1e6), "MB")
    for name, key in (("crps.memos", "memos.crps"), ("crps.local", "local.crps"),
                      ("es.memos_ecc", "memos_ecc.es")):
        metrics[name] = (med(lambda p: p["means"][key]), "score")
    return metrics


def load_spans(path: Path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def per_layer(spans, traced, untraced) -> dict:
    """Busy time and call counts per layer from the spans of one traced
    pass, plus command self times and artifact bytes."""
    def dur(s):
        return s["end"] - s["start"]

    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    children = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["pid"], s["parent"])
            children[key] = children.get(key, 0.0) + dur(s)

    def self_s(s):
        return dur(s) - children.get((s["pid"], s["id"]), 0.0)

    metrics = {"cli.import_s": (statistics.mean(dur(s) for s in by_name["cli.import"]), "s")}
    for cmd in CLI_SELF:
        metrics[f"cli.{cmd}.self_s"] = (sum(self_s(s) for s in by_name.get(f"cli.{cmd}", [])), "s")
    for family, size in untraced["artifact_bytes"].items():
        metrics[f"cli.bytes.{family}"] = (size, "bytes")
    for name in SUMMED_LAYERS:
        group = by_name.get(name, [])
        metrics[f"{name}.s"] = (sum(dur(s) for s in group), "s")
        metrics[f"{name}.calls"] = (len(group), "count")
    metrics["mesh.n_vertices"] = (max(
        (s["attrs"]["n_vertices"] for s in by_name.get("mesh.build_mesh", [])), default=0), "count")
    chains = by_name.get("memos.sample_posterior", [])
    evals = sum(s["attrs"]["evals"] for s in chains)
    metrics["memos.target_eval_ms"] = (
        1000.0 * sum(dur(s) for s in chains) / evals if evals else 0.0, "ms")
    metrics["memos.acceptance"] = (
        statistics.mean(s["attrs"]["acceptance"] for s in chains) if chains else 0.0, "ratio")
    def median_call(name):
        return statistics.median(dur(s) for s in by_name[name])

    metrics["spde.assemble_fem.s"] = (median_call("spde.assemble_fem"), "s")
    metrics["spde.factor_ms"] = (1000.0 * median_call("spde.factor"), "ms")
    metrics["spde.sample_gmrf.s"] = (median_call("spde.sample_gmrf"), "s")
    metrics["trace.pipeline_s"] = (traced["pipeline_s"], "s")
    metrics["trace.overhead_s"] = (traced["pipeline_s"] - untraced["pipeline_s"], "s")
    metrics["wall.pipeline_s"] = (untraced["pipeline_wall_s"], "s")
    commands = [{"args": s["attrs"]["args"], "span_s": dur(s), "self_s": self_s(s)}
                for s in spans if s["name"].startswith("cli.") and s["name"] != "cli.import"]
    return metrics, commands


def environment() -> dict:
    """Machine, library and code identity recorded next to every result."""
    import ctypes
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            threads = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_()
        except (OSError, AttributeError):
            pass
    commit = None
    if shutil.which("git"):
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = git.stdout.strip() if git.returncode == 0 else None
    src = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        src.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": threads,
                 "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads)}",
              file=sys.stderr)
        return 2
    if not (SRC / "enspost" / "cli.py").is_file():
        print(f"error: no enspost sources under {SRC}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]

    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    (out / "logs").mkdir(parents=True)
    config = dict(workload["config"], seed=args.seed)
    config_path = out / "run.cfg"
    config_path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    data_dir, run_dir = out / "data", out / "run"
    runner = CommandRunner(out / "logs", started + DEADLINE_S)
    trace_id = f"{args.workload}-{args.seed}"

    # set-up: simulate several times into the same directory, timing each
    simulate = cli_args(config_path, data_dir, ["--seed", str(workload["data_seed"]), "simulate"])
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        if args.trace:
            setups.append(runner.run(TRACED + [str(out / "spans.jsonl"), trace_id, "--"]
                                     + simulate, "simulate"))
        else:
            setups.append(runner.run(CLI + simulate, "simulate"))
        setups[-1]["cases_sha256"] = (sha256(data_dir / "cases.csv")
                                      if (data_dir / "cases.csv").is_file() else None)
        if setups[-1]["exit"] != 0:
            break
    problems = []
    if len({s["cases_sha256"] for s in setups}) != 1 or setups[-1]["exit"] != 0:
        problems.append("simulate failed or was not deterministic")

    passes = []
    if not problems:
        expected = expected_scores(config, workload, data_dir / "cases.csv")
        t0 = time.perf_counter()
        while True:
            passes.append(run_pipeline(runner, workload, config_path, data_dir, run_dir, expected))
            elapsed = time.perf_counter() - t0
            if (args.trace or not passes[-1]["ok"]
                    or elapsed + passes[-1]["pipeline_wall_s"] > args.seconds):
                break
        if args.trace and passes[-1]["ok"]:
            passes.append(run_pipeline(runner, workload, config_path, data_dir, run_dir,
                                       expected, trace_id))
            if passes[-1]["ok"]:
                rec = runner.run(TRACED + ["--spde", str(out / "spans.jsonl"), trace_id,
                                           str(run_dir), str(config_path)], "spde")
                if rec["exit"] != 0:
                    problems.append("standalone spde calls failed")
        for p in passes:
            problems += p["problems"]
        if len({p["scores_sha256"] for p in passes}) > 1:
            problems.append("scores.csv differs between passes of one seed")
            runner.fail()
        if passes[-1]["ok"]:
            shutil.copy(run_dir / "scores.csv", out / "scores.csv")
    correct = not problems and bool(passes) and all(p["ok"] for p in passes)

    metrics, commands = {}, []
    if correct:
        if args.trace:
            metrics, commands = per_layer(load_spans(out / "spans.jsonl"), passes[1], passes[0])
            for c in commands:
                print(f"{' '.join(c['args']):60s} span {c['span_s']:8.3f} s  self {c['self_s']:8.3f} s")
            for name, (value, unit) in metrics.items():
                print(f"{name:36s} {value:14.6g} {unit}")
        else:
            metrics = end_to_end(passes, [s["cpu_s"] for s in setups])
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  config=config, commands=workload["commands"], data_seed=workload["data_seed"],
                  failed_ops=runner.failed / max(runner.attempted, 1), problems=problems,
                  scores_sha256=passes[-1]["scores_sha256"] if passes else None,
                  setups=setups, passes=passes, traced_commands=commands,
                  environment=environment(),
                  wall_s=time.monotonic() - started)
    (out / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(run_dir, ignore_errors=True)
    shutil.rmtree(data_dir, ignore_errors=True)
    if problems:
        print("problems: " + "; ".join(problems[:5]), file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
