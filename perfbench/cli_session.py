"""Workload `cli_session`: four CLI commands, each in a fresh interpreter.

Users pay interpreter start-up, CSV parsing and cold memo caches on every
command, so each command runs as `python -m surveykit.cli ...` and nothing
is warmed.  One unit (a session) runs, one after another:

    draw --design rejective     N=400, n=40   cold conditional_poisson_pips
    calibrate kullback_leibler  N=100k, 3 constraints   CSV parsing
    variance --method jackknife iid, n=5000   the n^2 replicate loop
    simulate --design srs       N=1000, n=50, 1000 replicates   select + kernel

The CSV frames are written during set-up from the seed.  In a traced run
each command runs under `cli_traced.py`, which installs the same tracer in
the child and hands its spans back through a file.
"""

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np

import surveykit as sk

from harness import WORK_DIR, Unit

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
COMMANDS = ("draw", "calibrate", "variance", "simulate")
TIMEOUT = 60   # a command takes about a second; a hung one is a failure
POLL_S = 0.1   # reference loop samples while a command runs
DRAW_N, DRAW_FRAME = 40, 400
Z_BAND = 6.0   # simulate's MC mean against the population total


def _write_csv(path, header, columns):
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(",".join(map(str, row)) + "\n" for row in rows)


def _ids(N):
    return [f"u{i}" for i in range(N)]


def launch(cmd, env, sample):
    """`subprocess.run(cmd, capture_output=True, timeout=TIMEOUT)`, calling
    `sample()` every POLL_S while the child runs, so that the host's speed
    is measured during the command and not only around it."""
    env["PERFBENCH_T0"] = repr(time.perf_counter())
    deadline = time.perf_counter() + TIMEOUT
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            while True:
                try:
                    out, err = proc.communicate(timeout=POLL_S)
                    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)
                except subprocess.TimeoutExpired:
                    if time.perf_counter() > deadline:
                        raise
                    sample()
        except BaseException:
            proc.kill()
            proc.communicate()
            raise


class CliSession:
    name = "cli_session"
    unit = "session"
    work_name = "CLI commands that passed their gate per second of a session"
    why = "draw/calibrate/variance/simulate in fresh interpreters: start-up, CSV parsing, cold caches"
    in_process = False

    def setup(self, seed):
        gen = np.random.default_rng([seed, 4])
        work = os.path.join(WORK_DIR, f"cli-{os.getpid()}")
        os.makedirs(work, exist_ok=True)
        paths = {c: os.path.join(work, f"{c}.csv") for c in COMMANDS}

        mos = np.round(gen.uniform(1.0, 4.0, DRAW_FRAME), 3)
        _write_csv(paths["draw"], ("id", "mos", "y"),
                   (_ids(DRAW_FRAME), mos, np.round(gen.normal(8, 3, DRAW_FRAME), 3)))

        N = 100_000
        mos = np.round(gen.uniform(1.0, 4.0, N), 3)
        X = np.round(gen.uniform(0.5, 2.0, (N, 3)), 3)
        _write_csv(paths["calibrate"], ("id", "mos", "x1", "x2", "x3"),
                   (_ids(N), mos, X[:, 0], X[:, 1], X[:, 2]))
        targets = [repr(float(t)) for t in
                   (mos @ X) * (1 + gen.uniform(-0.03, 0.03, 3))]

        w = np.round(gen.uniform(1.0, 10.0, 5000), 3)
        _write_csv(paths["variance"], ("id", "mos", "y"),
                   (_ids(5000), w, np.round(gen.normal(8, 3, 5000), 3)))
        # the library call the CLI's answer must equal: `variance` reads the
        # mos column as the unit weight, pi = 1/w
        frame = sk.read_frame_csv(paths["variance"])
        sample = sk.Sample(frame, np.arange(frame.n_units),
                           np.clip(1.0 / frame.mos, None, 1.0))
        y = frame.y_column()
        jackknife = sk.jackknife_variance(
            sample.weights, lambda wts: float(np.sum(wts * y)),
            structure="iid", strata=frame.stratum).value

        y_sim = np.round(gen.normal(8, 3, 1000), 3)
        _write_csv(paths["simulate"], ("id", "mos", "y"),
                   (_ids(1000), np.round(gen.uniform(1.0, 4.0, 1000), 3), y_sim))

        return {
            "seed": seed, "work": work,
            "args": {
                "draw": ["draw", "--frame", paths["draw"], "--design", "rejective",
                         "--n", str(DRAW_N)],
                "calibrate": ["calibrate", "--frame", paths["calibrate"],
                              "--entropy", "kullback_leibler",
                              "--targets", ",".join(targets)],
                "variance": ["variance", "--frame", paths["variance"],
                             "--method", "jackknife"],
                "simulate": ["simulate", "--frame", paths["simulate"], "--design",
                             "srs", "--n", "50", "--replicates", "1000"],
            },
            "draw_ids": set(_ids(DRAW_FRAME)),
            "X": X, "targets": [float(t) for t in targets],
            "jackknife": jackknife,
            "sim_total": math.fsum(y_sim.tolist()),
        }

    def cleanup(self, state):
        shutil.rmtree(state["work"], ignore_errors=True)

    def run_unit(self, state, k, tracer=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p)
        unit = Unit()
        outs = {}
        for command in COMMANDS:
            argv = state["args"][command]
            if command in ("draw", "simulate"):
                argv = argv + ["--seed", str(state["seed"] * 1000 + k % 1000)]
            if tracer is None:
                cmd = [sys.executable, "-m", "surveykit.cli", *argv]
            else:
                spans = os.path.join(state["work"], f"spans-{command}.json")
                cmd = [sys.executable, os.path.join(HERE, "cli_traced.py"),
                       spans, "--", *argv]
            parent = len(tracer.spans) if tracer is not None else -1
            # on a timeout the child is killed and TimeoutExpired returned
            proc = unit.timed(lambda: launch(cmd, env, unit.sample_reference))
            t0 = float(env["PERFBENCH_T0"])
            wall = time.perf_counter() - t0
            outs[command] = proc
            unit.extra[f"cli_{command}_s"] = (wall, "s")
            if tracer is not None:
                tracer.spans.append([f"bench.cli.{command}", t0, t0 + wall, -1, None])
                if os.path.exists(spans):  # absent when the child crashed
                    with open(spans, encoding="utf-8") as handle:
                        child = json.load(handle)
                    os.remove(spans)
                    tracer.extend(child["spans"], parent)
                    unit.startup.append(child["startup"])
        unit.wall = unit.work_wall
        for command in COMMANDS:
            proc = outs[command]
            if isinstance(proc, Exception):
                outcome = proc
            elif proc.returncode != 0:
                outcome = RuntimeError(f"exit {proc.returncode}: "
                                       f"{proc.stderr.strip()[-300:]}")
            else:
                try:
                    outcome = getattr(self, f"_check_{command}")(state, proc)
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    outcome = f"unreadable output: {type(exc).__name__}: {exc}"
            if unit.record(f"session {k} {command}", outcome):
                unit.work += 1
        return unit

    @staticmethod
    def _payload(text):
        payload = json.loads(text.strip().splitlines()[-1])
        if payload.get("schema") != 1:
            raise ValueError(f"schema {payload.get('schema')!r}")
        return payload

    def _check_draw(self, state, proc):
        out = self._payload(proc.stdout)
        ids, pi = out["ids"], out["pi"]
        if (len(ids) != DRAW_N or len(set(ids)) != DRAW_N
                or not set(ids) <= state["draw_ids"]):
            return f"drew {len(ids)} ids, {len(set(ids))} distinct"
        if not all(0 < p <= 1 for p in pi):
            return "inclusion probability outside (0, 1]"
        return None

    def _check_calibrate(self, state, proc):
        self._payload(proc.stderr)
        rows = list(csv.reader(io.StringIO(proc.stdout)))
        if rows[0] != ["id", "weight"] or len(rows) != state["X"].shape[0] + 1:
            return f"weights table has {len(rows) - 1} rows"
        w = np.array([float(r[1]) for r in rows[1:]])
        totals = w @ state["X"]
        for got, want in zip(totals, state["targets"]):
            if not abs(got - want) <= 1e-6 * abs(want):
                return f"calibrated total {got!r} vs target {want!r}"
        return None

    def _check_variance(self, state, proc):
        value = self._payload(proc.stdout)["value"]
        if value != state["jackknife"]:
            return f"jackknife {value!r} vs library {state['jackknife']!r}"
        return None

    def _check_simulate(self, state, proc):
        out = self._payload(proc.stdout)
        if not abs(out["mean"] - state["sim_total"]) <= Z_BAND * out["se_of_mean"]:
            return f"MC mean {out['mean']!r} vs total {state['sim_total']!r}"
        return None
