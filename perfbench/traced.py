"""Run one enspost CLI command with a span around each layer call it makes.

    python3 perfbench/traced.py SPANS TRACE_ID -- CLI_ARGS...
    python3 perfbench/traced.py --spde SPANS TRACE_ID RUN_DIR CONFIG

The first form wraps the public layer functions that ``enspost.cli`` reaches
through module attributes, runs ``enspost.cli.main(CLI_ARGS)`` and exits with
its code.  The second form times standalone ``spde`` calls on the mesh and
config of a finished run, since the CLI never calls that module directly.
Either form appends one JSON object per span to SPANS: name, start, end
(``time.monotonic`` seconds, comparable across processes), id, parent id,
trace id, pid and optional attributes.  Nothing under ``src/`` is changed.
"""

import time

T_START = time.monotonic()

import datetime as dt  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


class Tracer:
    """In-memory spans of one process, written out once at exit."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans = []
        self._stack = []

    def record(self, name, start, end, parent=None, attrs=None):
        span = {"id": len(self.spans) + 1, "parent": parent, "name": name,
                "start": start, "end": end, "trace": self.trace_id, "pid": os.getpid()}
        if attrs:
            span["attrs"] = attrs
        self.spans.append(span)
        return span

    def call(self, name, fn, args, kwargs, attrs_of=None):
        parent = self._stack[-1]["id"] if self._stack else None
        span = self.record(name, time.monotonic(), None, parent)
        self._stack.append(span)
        try:
            out = fn(*args, **kwargs)
            if attrs_of is not None:
                span["attrs"] = attrs_of(args, kwargs, out)
            return out
        finally:
            span["end"] = time.monotonic()
            self._stack.pop()

    def wrap(self, owner, attr, name, attrs_of=None):
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs_of)

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def write(self, path):
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _chain_attrs(args, kwargs, draws):
    config = kwargs["config"]
    return {"evals": config.burn_in + kwargs["n"] * config.thin + 1,
            "acceptance": float(draws.acceptance)}


def instrument(tracer: Tracer) -> None:
    """Wrap every layer function the CLI calls, at the attribute it uses."""
    from enspost import data, ecc, emos, memos, mesh, verify

    tracer.wrap(data, "simulate", "data.simulate")
    tracer.wrap(data, "write_cases", "data.write_cases")
    tracer.wrap(data, "load_cases", "data.load_cases")
    # emos binds rolling_window by name, so both bindings are wrapped
    tracer.wrap(data, "rolling_window", "data.rolling_window")
    tracer.wrap(emos, "rolling_window", "data.rolling_window")
    tracer.wrap(mesh, "build_mesh", "mesh.build_mesh",
                lambda a, k, out: {"n_vertices": out.n_vertices})
    tracer.wrap(emos, "fit_global", "emos.fit_global")
    tracer.wrap(emos, "fit_local", "emos.fit_local")
    tracer.wrap(memos, "sample_posterior", "memos.sample_posterior", _chain_attrs)
    tracer.wrap(memos, "predictive_sample", "memos.predictive_sample")
    tracer.wrap(memos.PosteriorDraws, "to_csv", "memos.PosteriorDraws.to_csv")
    tracer.wrap(memos.PosteriorDraws, "from_csv", "memos.PosteriorDraws.from_csv")
    tracer.wrap(ecc, "ecc_memos", "ecc.ecc_memos")
    tracer.wrap(ecc, "ecc_q", "ecc.ecc_q")
    tracer.wrap(ecc, "independence_shuffle", "ecc.independence_shuffle")
    tracer.wrap(verify, "crps_empirical", "verify.crps_empirical")
    tracer.wrap(verify, "energy_score", "verify.energy_score")
    tracer.wrap(verify, "multivariate_rank", "verify.multivariate_rank")


def run_cli(tracer: Tracer, argv) -> int:
    import enspost.cli as cli

    tracer.record("cli.import", T_START, time.monotonic())
    instrument(tracer)
    command = next(a for a in argv if a in ("simulate", "mesh", "fit", "predict", "ecc", "verify"))
    args = argv[argv.index(command):]
    return tracer.call(f"cli.{command}", cli.main, (argv,), {},
                       lambda a, k, code: {"args": args, "exit": code})


def run_spde(tracer: Tracer, run_dir: Path, config: Path) -> int:
    """Median standalone spde calls on the run's mesh at the run's alpha,
    with a posterior-shaped precision built from public functions."""
    import numpy as np
    import scipy.sparse as sp

    from enspost import cli, data, memos, spde
    from enspost.mesh import Mesh

    cfg = cli.RunConfig.load(config)
    alpha = cfg.mcmc().alpha
    priors = cfg.priors()
    msh = Mesh.from_json((run_dir / "mesh.json").read_text())
    table = data.load_cases(run_dir / cfg.get("cases", "cases.csv"))
    window = cfg.get("window", 25, int)
    day = cfg.date("eval_start", table.dates[0] + dt.timedelta(days=window))
    training = data.rolling_window(table, day, length=window, mode="global",
                                   min_cases=cfg.get("min_train", 10, int))
    X = memos.build_design(training, msh).X
    kappa = math.exp(priors.logkappa_mean)
    tau = math.exp(priors.logtau_mean)
    noise_prec = cfg.get("sim_sigma", 1.5, float) ** -2

    def timed(name, fn, repeats):
        # one span per call; the report takes the median call
        for _ in range(repeats):
            t0 = time.monotonic()
            out = fn()
            tracer.record(name, t0, time.monotonic(), attrs={"alpha": alpha, "K": msh.n_vertices})
        return out

    ops = timed("spde.assemble_fem", lambda: spde.assemble_fem(msh), 5)
    prior = spde.precision(ops, kappa, tau, alpha=alpha)
    fixed = sp.diags([1.0 / priors.v_fix, 1.0 / priors.v_fix])
    q_post = sp.csc_matrix(sp.block_diag([fixed, prior.Q, prior.Q]) + noise_prec * (X.T @ X))
    timed("spde.factor", lambda: spde.SparseCholesky(q_post, dense=(0, 1)), 20)
    rng = np.random.default_rng(0)
    timed("spde.sample_gmrf", lambda: spde.sample_gmrf(prior, 1, rng), 10)
    return 0


def main(argv) -> int:
    if argv[:1] == ["--spde"]:
        spans, trace_id, run_dir, config = argv[1:5]
        tracer = Tracer(trace_id)
        try:
            return run_spde(tracer, Path(run_dir), Path(config))
        finally:
            tracer.write(spans)
    spans, trace_id, sep, *cli_args = argv
    if sep != "--":
        print("usage: traced.py SPANS TRACE_ID -- CLI_ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer(trace_id)
    try:
        return run_cli(tracer, cli_args)
    finally:
        tracer.write(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
