"""The standing wall-clock benchmark: one command, every metric by name.

    python benchmarks/spine/run.py [--workload NAME]... [--seed N] [--traced]
                                   [--repeat N] [--out DIR]

drives ``QueryService`` on a resident ``GraphSession`` exactly as a client
would, prints every metric as ``workload metric value unit n=samples``,
checks answers against an independent BFS, and exits non-zero on any failure.
Each (workload, mode) runs in a fresh child process in its own session, and
nothing a run starts or creates outlives it (see ``Leftovers``).

With ``--trace 0|1`` (the driver's form: one workload, ``--seconds``) the last
line of standard output is one JSON object with the run's metrics.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".spine_tmp"  # run-private scratch, inside the checkout
BASELINE = HERE / "baseline.json"

# Kept in step with workloads.py by test_spine_smoke.py; repeated here so the
# parent never imports the program (numpy and repro load only in children).
WORKLOADS = ("khop_small", "khop_large_pool", "point_hybrid", "mixed_dynamic")
#: One child (a workload's end-to-end run, or its traced run) must end within
#: this, or its whole session is killed.
RUN_TIMEOUT_S = 160

E2E_UNITS = {
    "setup_s": "s",
    "qps": "1/s",
    "wave_p50_ms": "ms",
    "wave_p90_ms": "ms",
    "mutation_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "host_speed": "ratio",
}


def unit_of(per_layer_metric: str) -> str:
    leaf = per_layer_metric.rsplit(".", 1)[1]
    if leaf == "bytes_per_edge":
        return "B/edge"
    if leaf == "edges_per_s":
        return "1/s"
    if leaf.startswith("virtual_"):
        return "virt_s"  # seconds on the cost model's clock, exact per seed
    if leaf.endswith("_s"):
        return "s"
    if leaf.endswith("bytes"):
        return "B"
    if leaf.endswith(("ratio", "coverage")) or leaf in (
        "batch_fill", "speedup_vs_inproc", "wall_over_virtual"
    ):
        return "ratio"
    return "count"


class ChildFailed(RuntimeError):
    pass


# --------------------------------------------------------------------------- #
# leave nothing behind
# --------------------------------------------------------------------------- #


def _proc_table() -> dict:
    """``pid -> (ppid, session, state)`` for every process in ``/proc``."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while we were listing
        fields = stat[stat.rindex(")") + 2:].split()  # comm may hold spaces
        table[int(entry)] = (int(fields[1]), int(fields[3]), fields[0])
    return table


class Leftovers:
    """Everything a run could leave behind, and the sweep that removes it.

    Children are started as session leaders, so a straggler (a pool worker,
    multiprocessing's resource tracker) is found by its session id even
    after its parent died and it was re-parented to init.
    """

    SHM = Path("/dev/shm")
    SHM_PREFIX = "cgp"  # every segment the pool backend creates

    def __init__(self):
        self.sessions: list[int] = []
        self.tmpdirs: list[Path] = []
        self.shm_before = self._shm()

    def _shm(self) -> set:
        if not self.SHM.is_dir():
            return set()
        return {n for n in os.listdir(self.SHM) if n.startswith(self.SHM_PREFIX)}

    def _mapped_shm(self) -> set:
        mapped = set()
        marker = f"{self.SHM}/"
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                maps = Path("/proc", entry, "maps").read_text()
            except OSError:
                continue
            for line in maps.splitlines():
                if marker in line:
                    mapped.add(line.split(marker, 1)[1].split()[0])
        return mapped

    def alive(self, sessions=None) -> list[int]:
        """Live (non-zombie) processes in our children's sessions, or
        descended from this process."""
        sessions = set(self.sessions if sessions is None else sessions)
        table = _proc_table()
        me = os.getpid()
        found = []
        for pid, (ppid, session, state) in table.items():
            if state == "Z" or pid == me:
                continue
            ancestor = ppid
            while ancestor not in (0, 1, me) and ancestor in table:
                ancestor = table[ancestor][0]
            if session in sessions or ancestor == me:
                found.append(pid)
        return sorted(found)

    def drain_session(self, session: int, grace_s: float) -> list[int]:
        """Wait up to ``grace_s`` for a child's session to empty on its own
        (the resource tracker exits a moment after its parent); kill what is
        left.  Returns the pids that had to be killed."""
        deadline = time.monotonic() + grace_s
        while self.alive([session]) and time.monotonic() < deadline:
            time.sleep(0.02)
        killed = self.alive([session])
        if killed:
            try:
                os.killpg(session, signal.SIGKILL)
            except ProcessLookupError:
                pass
            for pid in killed:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 10
            while self.alive([session]) and time.monotonic() < deadline:
                time.sleep(0.02)
        return killed

    def sweep(self) -> list[str]:
        """Remove anything still around; returns what was found."""
        found = []
        for session in self.sessions:
            for pid in self.drain_session(session, grace_s=0):
                found.append(f"process {pid} (session {session})")
        for pid in self.alive():
            found.append(f"process {pid}")
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        new_segments = self._shm() - self.shm_before
        if new_segments:
            # a segment some live process still maps belongs to a program
            # that is running beside us, not to a run of ours that ended
            new_segments -= self._mapped_shm()
        for name in sorted(new_segments):
            found.append(f"shared-memory segment /dev/shm/{name}")
            (self.SHM / name).unlink(missing_ok=True)
        for path in self.tmpdirs:
            if path.exists():
                found.append(f"temp dir {path}")
                shutil.rmtree(path, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # absent, or another run's scratch is in it
        return found


# --------------------------------------------------------------------------- #
# children
# --------------------------------------------------------------------------- #


def run_child(leftovers, workload, mode, seed, extra=()) -> dict:
    """One fresh process in its own session; returns its JSON result."""
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-{mode}-", dir=TMP_ROOT))
    leftovers.tmpdirs.append(tmp)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in (os.environ.get("PYTHONPATH"),) if p]
        ),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        PYTHONHASHSEED="0",  # dict/set order is part of the program's speed
        TMPDIR=str(tmp),
    )
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--mode", mode, "--seed", str(seed),
        "--tmp", str(tmp), "--spawned-at", repr(time.time()), *extra,
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    leftovers.sessions.append(proc.pid)
    clean = False
    try:
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise ChildFailed(
                f"{workload}/{mode} did not finish in {RUN_TIMEOUT_S} s"
            ) from None
        if proc.returncode != 0:
            raise ChildFailed(f"{workload}/{mode} exited with {proc.returncode}")
        clean = True
    finally:
        # on a clean exit stragglers get a moment to finish by themselves and
        # any that do not are a defect; on timeout or error the whole
        # session is killed at once
        killed = leftovers.drain_session(proc.pid, grace_s=5.0 if clean else 0.0)
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
        if clean and killed:
            raise ChildFailed(
                f"{workload}/{mode} left processes running: {killed}"
            )
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise ChildFailed(f"{workload}/{mode} printed no result") from None


def measure_traced(leftovers, workload, seed, extra, out_dir) -> dict:
    if out_dir is not None:
        extra += ("--trace-out", str(out_dir / f"trace-{workload}-seed{seed}.json"))
    result = run_child(leftovers, workload, "traced", seed, extra)
    waves = result["samples"]["traced_waves"]
    expected = known_digest(workload, seed, waves)
    result["digest_ok"] = expected is None or expected == result["digest"]
    if not result["digest_ok"]:
        print(
            f"{workload}: answer digest {result['digest']} differs from the "
            f"recorded {expected} (seed {seed}, {waves} waves)",
            file=sys.stderr,
        )
    return result


def known_digest(workload, seed, waves):
    if not BASELINE.is_file():
        return None
    digests = json.loads(BASELINE.read_text()).get("digests", {})
    return digests.get(workload, {}).get(f"seed={seed},waves={waves}")


# --------------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------------- #


def provenance(seed, runs) -> dict:
    def git(*args):
        try:
            return subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    last = runs[-1]
    return {
        "commit": commit or "unknown",
        "dirty": bool(status) if status is not None else None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": next(iter(last.values()))["numpy"],
        "seed": seed,
        "waves": {w: dict(r["samples"]) for w, r in last.items()},
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def print_metrics(workload, result) -> None:
    samples = result["samples"]
    for name, value in result.get("end_to_end", {}).items():
        n = {"setup_s": 1, "mutation_p50_ms": samples["mutations"]}.get(
            name, samples["waves"]
        )
        note = f" n={n}"
        if name == "failed_frac":
            note = f" failed={result['failed']} attempted={result['attempted']}"
        if name in result.get("raw", {}):  # before host-speed compensation
            note += f" raw={result['raw'][name]:.6g}"
        print(f"{workload} {name} {value:.6g} {E2E_UNITS[name]}{note}")
    for name, value in result.get("per_layer", {}).items():
        print(
            f"{workload} {name} {value:.6g} {unit_of(name)} "
            f"n={samples['traced_waves']}"
        )
    if "digest" in result:
        print(f"{workload} answer_digest {result['digest']}")


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(runs: list) -> dict:
    """Per workload and metric: median, quartiles and spread over the sets."""
    out: dict = {}
    for workload in runs[0]:
        rows = out.setdefault(workload, {})
        for group in ("end_to_end", "per_layer"):
            for name in runs[0][workload].get(group, {}):
                values = [r[workload][group][name] for r in runs]
                q1, median, q3 = quartiles(values)
                rows[name] = {
                    "median": median, "q1": q1, "q3": q3,
                    "spread": (q3 - q1) / median if median else 0.0,
                    "unit": E2E_UNITS[name] if group == "end_to_end" else unit_of(name),
                    "n": len(values),
                }
    return out


def driver_line(result, trace: int) -> str:
    """The contract's last line: every ``per_layer`` (``--trace 1``) or
    ``end_to_end`` (``--trace 0``) metric of ``BENCHMARK.json``.  That list
    holds the metrics every workload has and that are never 0, so
    ``failed_frac`` is carried by ``attempted``/``failed`` and
    ``mutation_p50_ms`` (``mixed_dynamic`` only) is left to the printed lines."""
    group = "per_layer" if trace else "end_to_end"
    metrics = {
        m["name"]: {"value": result[group][m["name"]], "unit": m["unit"]}
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())[group]
    }
    return json.dumps({
        "correct": result["failed"] == 0 and result.get("digest_ok", True),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="scales the fixed wave counts (sized for "
                        "BENCHMARK.json's run_seconds)")
    parser.add_argument("--traced", action="store_true",
                        help="also make the per-layer (traced) run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: 0 = end-to-end run only, 1 = traced "
                        "run only; ends with one JSON line")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run N full sets; print median, quartiles, spread")
    parser.add_argument("--out", type=Path,
                        help="write results.json (and Chrome traces) here")
    parser.add_argument("--update-baseline", action="store_true",
                        help="record this run's numbers and digests in baseline.json")
    parser.add_argument("--fail-at-wave", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    selected = args.workload or list(WORKLOADS)
    if args.trace is not None and len(selected) != 1:
        parser.error("--trace takes exactly one --workload")
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    want_e2e = args.trace in (None, 0)
    want_traced = args.traced or args.trace == 1
    extra = ()
    if args.seconds is not None:
        extra += ("--seconds", repr(args.seconds))
    if args.fail_at_wave is not None:
        extra += ("--fail-at-wave", str(args.fail_at_wave))

    leftovers = Leftovers()
    # children are session leaders, so a signal to our group does not reach
    # them: turn a polite kill into an exit that still runs the sweep below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runs, status = [], 0
    try:
        for _ in range(args.repeat):
            one_set = {}
            for workload in selected:
                result = {"samples": {}, "attempted": 0, "failed": 0}
                if want_e2e:
                    result = run_child(leftovers, workload, "e2e", args.seed, extra)
                if want_traced:
                    traced = measure_traced(
                        leftovers, workload, args.seed, extra, args.out
                    )
                    result["attempted"] += traced["attempted"]
                    result["failed"] += traced["failed"]
                    result["samples"].update(traced["samples"])
                    for key in ("per_layer", "digest", "digest_ok", "shares", "numpy"):
                        result[key] = traced[key]
                print_metrics(workload, result)
                if result["failed"] or not result.get("digest_ok", True):
                    status = 1
                one_set[workload] = result
            runs.append(one_set)
    except ChildFailed as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        status = 1
    finally:
        found = leftovers.sweep()
    if found:
        print("FAILED: the run left behind:", *found, sep="\n  ", file=sys.stderr)
        return 3
    if len(runs) < args.repeat:
        return 1

    summary = summarise(runs)
    if args.repeat > 1:
        for workload, rows in summary.items():
            for name, row in rows.items():
                print(
                    f"{workload} {name} median={row['median']:.6g} "
                    f"q1={row['q1']:.6g} q3={row['q3']:.6g} "
                    f"spread={row['spread']:.2%} {row['unit']} n={row['n']}"
                )
    if args.out is not None or args.update_baseline:
        document = {
            "provenance": provenance(args.seed, runs),
            "summary": summary,
            "runs": runs,
        }
        if args.out is not None:
            (args.out / "results.json").write_text(json.dumps(document, indent=1))
        if args.update_baseline:
            update_baseline(document, args.seed)
    if args.trace is not None:
        # the driver's form reports wrong answers in the line, not the status
        print(driver_line(runs[-1][selected[0]], args.trace))
        return 0
    return status


def update_baseline(document, seed) -> None:
    """Latest numbers + provenance, and the answer digest per (seed, waves)
    — digests of other seeds are kept."""
    old = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
    digests = old.get("digests", {})
    for workload, result in document["runs"][-1].items():
        if "digest" in result:
            key = f"seed={seed},waves={result['samples']['traced_waves']}"
            digests.setdefault(workload, {})[key] = result["digest"]
    shares = {
        w: r["shares"] for w, r in document["runs"][-1].items() if "shares" in r
    }
    BASELINE.write_text(json.dumps({
        "provenance": document["provenance"],
        "summary": document["summary"],
        "shares": shares,
        "digests": digests,
    }, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
