"""abmink benchmark: three closed-loop workloads through abmink's public API.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; abmink is imported from ``src/`` there.
Workloads (see ``workloads.py`` and README.md): ``mirror-sweep``, ``check``
and ``scenario-mix``.  Every request's output goes through the
gate in ``gate.py``; a request fails if it raises, exits with a code other
than the expected one, or fails the gate.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced requests and reports the
per-layer metrics from ``tracing.py``.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

MIN_SENDS = 3  # sends of every distinct request per end-to-end run
SETUP_REPS = 3  # cold processes per run, spread over it; setup_s is their median
IMPORT_REPS = 3  # `python -X importtime` children per traced run
MIN_TRACED = 10  # untraced/traced request pairs per traced run
MAX_LOOP_S = 120.0  # hard stop, so that a slow host still ends in time

TIMED = ("runner.parse_config", "scenarios.mirror_pressure_flux",
         "scenarios.mirror_pressure_lorentz", "scenarios.mirror_pressure_divergence",
         "core.momentum_density", "core.mechanical_momentum_density",
         "core.poynting", "core.FieldPoint.from_EH", "core.Medium.from_index",
         "core.PlaneWave.field_at", "covariant.divergence_residual",
         "covariant.minkowski_tensor4", "covariant.excitation_from_constitutive")
SELF_MS = ("cli.main", "runner.run", "runner.check_suite")
EMIT_FORMATS = ("table", "csv", "json")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def environment() -> dict:
    """Interpreter, library versions, CPU model and cache sizes."""
    import numpy
    import scipy
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0))}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    env["caches"] = caches
    return env


class Bench:
    """One workload run: sends requests, gates them and keeps the counts."""

    def __init__(self, name: str, seed: int, workdir: Path):
        import numpy as np
        from abmink import cli, runner
        self.cli, self.runner = cli, runner
        make_pool, self.kind = workloads.WORKLOADS[name]
        self.pool = make_pool(np.random.default_rng(seed))
        self._order_rng = np.random.default_rng([seed, 1])
        self.texts = [r.config_text() for r in self.pool]
        self.paths = []
        for i, text in enumerate(self.texts):
            path = workdir / f"request-{i}.cfg"
            path.write_text(text, encoding="utf-8")
            self.paths.append(path)
        self.out = workdir / "report.out"
        self.memo: dict[int, tuple[str, bool, int]] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def order(self):
        """Pool indices without end, each pass over the pool in a new order.

        A fresh order per pass keeps periodic host activity from hitting the
        same requests on every pass.
        """
        while True:
            yield from self._order_rng.permutation(len(self.pool)).tolist()

    def expected_code(self, req) -> int:
        return 1 if req.out_of_regime else 0

    def cli_args(self, i: int) -> list[str]:
        if self.kind == "check":
            return ["check"]
        return ["run", str(self.paths[i]), "--format", self.pool[i].fmt,
                "--out", str(self.out)]

    def serve(self, i: int):
        """Send request i; returns (latency ns, payload, exit code, report)."""
        req, clock = self.pool[i], time.perf_counter_ns
        report = None
        if self.kind == "api":
            text = self.texts[i]
            t0 = clock()
            report = self.runner.run(self.runner.parse_config(text))
            payload = self.runner.emit(report, req.fmt)
            t1 = clock()
            code = self.expected_code(req)  # no process, so no exit code
        elif self.kind == "check":
            buf = io.StringIO()
            t0 = clock()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(["check"])
            t1 = clock()
            payload = buf.getvalue().encode()
        else:
            self.out.unlink(missing_ok=True)
            with contextlib.redirect_stderr(io.StringIO()):
                t0 = clock()
                code = self.cli.main(self.cli_args(i))
                t1 = clock()
            payload = self.out.read_bytes()
        return t1 - t0, payload, code, report

    def _reference(self, i: int, report) -> bytes:
        """abmink's JSON emission of request i's report, for the gate."""
        if report is None:
            report = self.runner.run(self.runner.parse_config(self.texts[i]))
        return self.runner.emit(report, "json")

    def _full_gate(self, i: int, payload: bytes, report) -> tuple[list[str], int]:
        req = self.pool[i]
        if self.kind == "check":
            problems = gate.check_check_output(payload.decode("utf-8", "replace"))
            return problems, 0 if problems else 1
        try:
            reference = self._reference(i, report)
        except Exception as exc:  # the gate must count, not crash
            return [f"reference run raised {exc!r}"], 0
        problems = gate.check_output(req, payload, reference)
        useful = req.points - len(req.out_of_regime)
        return problems, 0 if problems else useful

    def record(self, i: int, payload: bytes | None, code: int | None, report,
               exc: BaseException | None = None) -> int:
        """Gate one response; returns its useful points (0 if it failed)."""
        req = self.pool[i]
        self.attempted += 1
        if exc is not None:
            problems, useful = [f"raised {exc!r}"], 0
        elif code != self.expected_code(req):
            problems, useful = [f"exit code {code}, expected {self.expected_code(req)}"], 0
        else:
            digest = hashlib.sha256(payload).hexdigest()
            if i not in self.memo:
                problems, useful = self._full_gate(i, payload, report)
                self.memo[i] = (digest, not problems, useful)
            else:
                first, ok, useful = self.memo[i]
                problems = [] if ok and digest == first else [
                    "output differs from the first response to the same request"
                    if ok else "repeat of a request that failed the gate"]
        if problems:
            self.failed += 1
            if len(self.problems) < 10:  # the first few are printed
                self.problems.append(f"request {i} ({req.scenario}): {problems[0]}")
            return 0
        return useful

    def request(self, i: int, tracer: Tracer | None = None) -> tuple[int, int]:
        """Serve and gate request i; returns (latency ns, useful points).

        ``tracer`` is installed while abmink serves the request, not while
        the gate checks the answer.
        """
        t_start = time.perf_counter_ns()
        try:
            with tracer or contextlib.nullcontext():
                latency, payload, code, report = self.serve(i)
        except Exception as exc:  # a failed request still counts, with its time
            latency = time.perf_counter_ns() - t_start
            return latency, self.record(i, None, None, None, exc)
        return latency, self.record(i, payload, code, report)

    def cold(self) -> float:
        """Serve request 0 in a fresh ``python -m abmink``; returns seconds.

        The answer must equal the first in-process answer to request 0.
        """
        self.out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "abmink", *self.cli_args(0)],
                              cwd=ROOT, env=_child_env(), capture_output=True,
                              timeout=120)
        elapsed = time.perf_counter() - t0
        payload = proc.stdout if self.kind == "check" else (
            self.out.read_bytes() if self.out.exists() else b"")
        self.record(0, payload, proc.returncode, None)
        return elapsed


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(bench: Bench, seconds: float, min_sends: int, setup_reps: int) -> dict:
    """Send the pool pass after pass for ``seconds``, then report per request.

    Every distinct request is sent at least ``min_sends`` times, spread over
    the run, and its latency is the best of its sends: on the host this was
    written on, all code flips between full speed and about half speed every
    few seconds.  A pass over the pool takes about a second, so one spell at
    full speed gives every request its best send; a run spent wholly in a
    slow spell, which can last minutes, still reads slow.  The latency quantiles are taken
    over the distinct requests, and ``points_per_s`` is their points over
    the sum of their latencies.  The ``setup_reps`` cold processes are
    spread over the same ``seconds``.
    """
    bench.request(0)  # warm-up; the cold processes must give the same answer
    setup = []
    sends = [[] for _ in bench.pool]
    start = time.perf_counter()
    for i, k in enumerate(bench.order()):
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_LOOP_S or (elapsed >= seconds and len(setup) >= setup_reps
                                     and i >= min_sends * len(bench.pool)):
            break
        if len(setup) < setup_reps and elapsed >= len(setup) * seconds / setup_reps:
            setup.append(bench.cold())
        latency, _ = bench.request(k)
        sends[k].append(latency / 1e9)
    best = [min(s) for s in sends if s]
    points = sum(req.points for req, s in zip(bench.pool, sends) if s)
    p90 = statistics.quantiles(best, n=10)[8] if len(best) > 1 else best[0]
    return {
        "points_per_s": points / sum(best),
        "latency_p50_ms": statistics.median(best) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "setup_s": _median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def import_breakdown(reps: int) -> dict:
    """Cumulative import times of abmink and scipy.integrate, in a child."""
    found = {"abmink": [], "scipy.integrate": []}
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import abmink"],
                              cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=120)
        seen = set()
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) != 3 or not line.startswith("import time:"):
                continue
            name = fields[2].strip()
            if name in found and name not in seen and fields[1].strip().isdigit():
                found[name].append(int(fields[1]) / 1e3)
                seen.add(name)
    return {f"import.{name.replace('.', '_')}_ms": _median(v)
            for name, v in found.items()}


def per_layer(bench: Bench, seconds: float, min_pairs: int, import_reps: int) -> dict:
    metrics = import_breakdown(import_reps)
    tracer = Tracer()
    plain_ns = traced_ns = 0
    requests = points = useful = 0
    start = time.perf_counter()
    for i, k in enumerate(bench.order()):
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_LOOP_S or (elapsed >= seconds and i >= min_pairs):
            break
        if i % 2:  # alternate which of the pair runs first
            plain_ns += bench.request(k)[0]
        latency, ok_points = bench.request(k, tracer)
        traced_ns += latency
        if not i % 2:
            plain_ns += bench.request(k)[0]
        requests += 1
        points += bench.pool[k].points
        useful += ok_points

    def per_call(name, scale):
        st = tracer.stats.get(name)
        return st.incl_ns / st.calls / scale if st and st.calls else 0.0

    for name in TIMED:
        metrics[f"{name}.us_per_call"] = per_call(name, 1e3)
    for name in SELF_MS:
        st = tracer.stats.get(name)
        metrics[f"{name}.self_ms"] = st.self_ns / st.calls / 1e6 if st and st.calls else 0.0
    for fmt in EMIT_FORMATS:
        st = tracer.stats.get(f"runner.emit.{fmt}")
        metrics[f"runner.emit.{fmt}.us_per_row"] = (
            st.incl_ns / st.rows / 1e3 if st and st.rows else 0.0)
    metrics["runner.useful_point_ratio"] = useful / points
    lorentz = tracer.stats.get("scenarios.mirror_pressure_lorentz")
    fields = tracer.stats.get("scenarios.metal_fields")
    metrics["scenarios.metal_fields.calls_per_lorentz"] = (
        fields.calls / lorentz.calls if lorentz and lorentz.calls else 0.0)
    for module, (calls, self_ns) in tracer.module_totals().items():
        metrics[f"{module}.self_share"] = self_ns / traced_ns
        metrics[f"{module}.calls_per_request"] = calls / requests
    metrics["trace.overhead_ratio"] = traced_ns / plain_ns
    return metrics


def _units(benchmark: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in benchmark[key]}


def main(argv=None, *, min_sends: int = MIN_SENDS, setup_reps: int = SETUP_REPS,
         import_reps: int = IMPORT_REPS, min_pairs: int = MIN_TRACED) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "abmink" / "__init__.py").is_file():
        print(f"error: no abmink package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import abmink
    if Path(abmink.__file__).resolve().parent != SRC / "abmink":
        print(f"error: abmink imported from {abmink.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())

    work_parent = HERE / ".work"
    work_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_parent))
    try:
        bench = Bench(args.workload, args.seed, workdir)
        if args.trace:
            metrics = per_layer(bench, args.seconds, min_pairs, import_reps)
            units = _units(benchmark, "per_layer")
        else:
            metrics = end_to_end(bench, args.seconds, min_sends, setup_reps)
            units = _units(benchmark, "end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_parent.rmdir()

    print("env: " + json.dumps(environment()))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{bench.attempted} requests over a pool of {len(bench.pool)}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_ratio = {bench.failed / bench.attempted:.6g} 1 "
          f"({bench.failed} of {bench.attempted} requests)")
    for problem in bench.problems:
        print(f"failed: {problem}", file=sys.stderr)
    missing = set(units) - set(metrics)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
