"""The mackeybox benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-manifest

Run from the repository root (or any checkout of it); it needs only the
standard library and puts ``src`` on the path itself.  Workloads are
described in design.json.  With ``--trace 0`` it runs whole decks of ops
until S seconds have passed, checks every op's output, and prints the
end-to-end metrics, scaled to a reference host speed (see REF_BURST_MS);
with ``--trace 1`` it runs a fixed number of decks, each
once untraced and once with spans around every layer, and prints the
per-layer metrics and the tracing overhead.  The last line of standard output
is always one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import tracer as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DESIGN = json.loads((HERE / "design.json").read_text(encoding="utf-8"))
SETUP_REPS = 5
# A burst is a fixed pure-Python loop timed before every op.  On a shared
# 2-vCPU VM (Xeon, 2.1 GHz) the speed of Python changes by up to 40 % from one
# second to the next and from minute to minute, in CPU time too, so every
# timing metric is reported at a reference host speed: each op's wall
# time * REF_BURST_MS / (median of the 5 bursts nearest the op, the last one
# before it and the first after it among them); set-up uses the median of
# its own bursts.  Nearest bursts follow the swings that move single ops,
# and so the percentiles; the median of a whole run follows only its mean.
# REF_BURST_MS is the burst's typical median on that VM with Python 3.11, so
# reported values stay close to wall time there; the raw wall values are in
# the report line.
REF_BURST_MS = 1.5
NEAREST = 2  # bursts on each side of an op's own
IMPORT_PROBE = "import time; t = time.perf_counter(); import mackeybox; print(time.perf_counter() - t)"


def _quantile(values, q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def burst_ms() -> float:
    """Milliseconds taken by a fixed pure-Python loop that shares no code
    with the program: how fast the host runs Python right now."""
    t0 = perf_counter()
    sum(i * i % 7 for i in range(15_000))
    return 1000 * (perf_counter() - t0)


def speed_factor(bursts) -> float:
    """Wall time times this is time at the reference host speed."""
    return REF_BURST_MS / statistics.median(bursts)


def ref_latencies_ms(tally) -> list[float]:
    """Each op's latency at the reference host speed."""
    b = tally.bursts
    return [1000 * row[1] * speed_factor(b[max(0, i - NEAREST):i + NEAREST + 1])
            for i, row in enumerate(tally.rows)]


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def write_manifest() -> None:
    keep = ("name", "unit", "better", "bound")
    manifest = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 30,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in DESIGN["workloads"]],
        "end_to_end": [{k: m[k] for k in keep} for m in DESIGN["end_to_end"]],
        "per_layer": [{k: m[k] for k in keep if k in m} for m in DESIGN["per_layer"]],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


class Bench:
    """One run of one workload: inputs, timed ops and checks."""

    def __init__(self, mb, workload: str, seed: int, workdir: Path):
        self.mb, self.name, self.seed, self.workdir = mb, workload, seed, workdir
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        # every process-wide cache the program keeps, emptied before each op
        seen = {}
        for modname, mod in list(sys.modules.items()):
            if mod is not None and (modname == "mackeybox" or modname.startswith("mackeybox.")):
                for value in vars(mod).values():
                    if callable(getattr(value, "cache_clear", None)):
                        seen[id(value)] = value.cache_clear
        self.clear_caches = list(seen.values())
        self.deadline = float(DESIGN["cli_deadline_s"])

    def generate(self, ndecks: int):
        if self.name == "box_perm":
            return wl.box_perm_decks(self.mb, self.seed, ndecks)
        if self.name == "invert_large_p":
            return wl.invert_decks(self.mb, self.seed, ndecks)
        return wl.cli_docs_decks(self.mb, self.seed, ndecks, self.workdir / "docs")

    def expectations(self):
        if self.name == "box_perm":
            return wl.box_perm_expect(self.mb)
        if self.name == "cli_docs":
            return wl.cli_docs_expect(self.mb)
        return {}

    def setup(self, ndecks: int):
        """Generate the inputs SETUP_REPS times; returns the decks, the median
        wall time of (import in a fresh interpreter + generation) and the
        bursts timed between the repetitions."""
        times, bursts = [], []
        decks = None
        for _ in range(SETUP_REPS):
            bursts += [burst_ms() for _ in range(3)]
            probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                                   text=True, env=self.env, check=True)
            for clear in self.clear_caches:
                clear()
            t0 = perf_counter()
            decks = self.generate(ndecks)
            times.append(float(probe.stdout) + perf_counter() - t0)
        return decks, statistics.median(times), bursts

    # -- one op -----------------------------------------------------------------

    def run_op(self, op, expect, tracer=None, cli_totals=None):
        """Time one op; returns (latency, problems, size_out, missed_deadline)."""
        for clear in self.clear_caches:
            clear()
        if self.name == "cli_docs":
            return self._run_cli(op, expect, tracer is not None, cli_totals)
        run = wl.run_box if self.name == "box_perm" else wl.run_invert
        check = wl.check_box if self.name == "box_perm" else wl.check_invert
        t0 = perf_counter()
        try:
            out = run(self.mb, op)
            error = None
        except Exception as exc:  # a failed op is counted, and the run goes on
            error = f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        if error:
            return latency, [error], (0, 0, 0), False
        problems, size = check(op, out, expect)
        return latency, problems, size, False

    def _run_cli(self, op, expect, traced: bool, cli_totals):
        stats = [self.workdir / f"stage{i}.json" for i in range(len(op.args))]
        if traced:
            def prefix(i):
                return [sys.executable, str(HERE / "launcher.py"), str(stats[i]), str(SRC), "--"]
        else:
            def prefix(_):
                return [sys.executable, "-m", "mackeybox"]
        t0 = perf_counter()
        out = wl.run_pipeline(prefix, op.args, self.env, self.deadline, perf_counter)
        latency = perf_counter() - t0
        if traced:
            for i, stage in enumerate(out):
                if not stats[i].is_file():
                    continue
                child = json.loads(stats[i].read_text(encoding="utf-8"))
                stats[i].unlink()
                tr.merge(cli_totals, child["totals"])
                tr.merge(cli_totals, {"cli.stage_s": stage.seconds, "cli.import_s": child["import_s"],
                                      "cli.startup_s": stage.seconds - child["run_s"]})
        missed = any(r.code is None for r in out)
        problems, size = wl.check_cli(self.mb, op, out, expect)
        return latency, problems, size, missed


class Tally:
    """Latencies, failures and sizes of the ops of one pass."""

    def __init__(self):
        self.rows = []
        self.bursts = []  # one before every op

    def add(self, op, latency, problems, size_out, missed):
        self.rows.append((op, latency, problems, size_out, missed))

    @property
    def attempted(self):
        return len(self.rows)

    @property
    def failed(self):
        return sum(1 for r in self.rows if r[2])

    @property
    def wrong(self):
        return sum(1 for r in self.rows if r[2] and not r[4])

    @property
    def busy_s(self):
        return sum(r[1] for r in self.rows)

    def by_kind(self):
        kinds = defaultdict(list)
        for op, latency, problems, size_out, missed in self.rows:
            kinds[op.kind].append((latency, op.size_in, size_out, bool(problems)))
        out = {}
        for kind, items in sorted(kinds.items()):
            out[kind] = {
                "ops": len(items),
                "failed": sum(1 for i in items if i[3]),
                "latency_p50_ms": 1000 * statistics.median(i[0] for i in items),
                "max_in": {"gens": max(i[1][0] for i in items), "rels": max(i[1][1] for i in items),
                           "bits": max(i[1][2] for i in items)},
                "max_out": {"gens": max(i[2][0] for i in items), "rels": max(i[2][1] for i in items),
                            "bits": max(i[2][2] for i in items)},
            }
        return out

    def problems(self, limit=5):
        return [f"{op.kind} [{op.label}]: {'; '.join(p)}" for op, _, p, _, _ in self.rows if p][:limit]


def run_pass(bench, decks, expect, tally, seconds=None, tracer=None, cli_totals=None) -> Tally:
    """Run whole decks; with ``seconds``, stop at the first deck boundary after it."""
    start = perf_counter()
    for deck in decks:
        if seconds is not None and perf_counter() - start >= seconds:
            break
        for op in deck:
            tally.bursts.append(burst_ms())
            tally.add(op, *bench.run_op(op, expect, tracer, cli_totals))
    return tally


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in DESIGN["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true", help="write BENCHMARK.json and exit")
    args = ap.parse_args(argv)
    if args.write_manifest:
        write_manifest()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (SRC / "mackeybox" / "__init__.py").is_file():
        print(f"perfbench: no mackeybox sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mackeybox as mb

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return _run(mb, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is using it
            pass


def _run(mb, args, workdir: Path) -> int:
    bench = Bench(mb, args.workload, args.seed, workdir)
    # untraced runs stop on time, so generate more decks than any run can use:
    # at the seed a deck takes 3 to 5 s, or 6 s on cli_docs, whose stages are
    # mostly interpreter start-up; one deck per second (per two on cli_docs,
    # where each deck is written to files) leaves room for a faster program.
    # Traced runs use a fixed count, so their counts repeat exactly.
    if args.trace:
        ndecks = max(2, args.seconds // 15)
    else:
        ndecks = max(4, args.seconds // (2 if args.workload == "cli_docs" else 1))
    decks, setup_wall_s, setup_bursts = bench.setup(ndecks)
    t0 = perf_counter()
    expect = bench.expectations()
    oracle_prep_s = perf_counter() - t0
    host = {"setup_burst_ms": statistics.median(setup_bursts), "ref_burst_ms": REF_BURST_MS}

    if args.trace:
        # each deck runs untraced, then traced, so slow drift of the machine
        # cancels out of the overhead
        base, tally = Tally(), Tally()
        tracer = tr.Tracer()
        cli_totals = {}
        for deck in decks:
            run_pass(bench, [deck], expect, base)
            if args.workload != "cli_docs":  # CLI children trace themselves
                tracer.install()
            try:
                run_pass(bench, [deck], expect, tally, tracer=tracer, cli_totals=cli_totals)
            finally:
                tracer.restore()
        tr.merge(tracer.totals, cli_totals)
        values = tr.layer_metrics(tracer.totals)
        values["trace.overhead_share"] = tally.busy_s / base.busy_s - 1
        units = {m["name"]: m["unit"] for m in DESIGN["per_layer"]}
        metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}
        wrong = base.wrong + tally.wrong
    else:
        tally = run_pass(bench, decks, expect, Tally(), seconds=args.seconds)
        lat = [r[1] * 1000 for r in tally.rows]
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli_docs" else resource.RUSAGE_SELF)
        wall = {
            "ops_per_s": (tally.attempted - tally.failed) / tally.busy_s,
            "latency_p50_ms": statistics.median(lat),
            "latency_p90_ms": _quantile(lat, 90),
            "setup_s": setup_wall_s,
        }
        ref = ref_latencies_ms(tally)
        values = {
            "ops_per_s": 1000 * (tally.attempted - tally.failed) / sum(ref),
            "latency_p50_ms": statistics.median(ref),
            "latency_p90_ms": _quantile(ref, 90),
            "setup_s": setup_wall_s * speed_factor(setup_bursts),
            "peak_rss_mb": usage.ru_maxrss / 1024,
        }
        host.update(run_burst_ms=statistics.median(tally.bursts), wall=wall)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in DESIGN["end_to_end"]}
        wrong = tally.wrong
        print(f"# {args.workload} seed={args.seed}: {tally.attempted} ops, {tally.failed} failed "
              f"(error_rate {tally.failed / tally.attempted:.4f} fraction)")
        for name, m in metrics.items():
            print(f"# {name} = {m['value']:.6g} {m['unit']}")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": DESIGN["heldout_seed"],
        "trace": args.trace,
        "label": "cold",
        "cold_because": DESIGN["cold"],
        "load": DESIGN["load"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
        "host_speed": host,
        "cli_deadline_s": bench.deadline if args.workload == "cli_docs" else None,
        "ops": tally.attempted,
        "error_rate": tally.failed / tally.attempted,
        "oracle_prep_s": oracle_prep_s,
        "by_kind": tally.by_kind(),
        "first_failures": tally.problems(),
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": wrong == 0, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
