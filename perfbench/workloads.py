"""The benchmark workloads: inputs, one op, output checks and fingerprints.

Every op gets a fresh seed drawn from the workload seed, and the library
receives only those generated inputs. ``check`` returns the names of the
failed output checks (empty when the op is correct); ``corruptions`` gives
deliberately broken copies of a good result, each of which ``check`` must
reject.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BENCH_DIR = Path(__file__).resolve().parent

HENON = {"a": 1.4, "b": 0.3}
HENON_GUESS = (0.6, 0.2)
PERTURBED = {"lambda_s": 0.5, "lambda_u": 2.0, "c": 0.05}
GRONWALL_SLACK = 1.05


def op_seeds(label: str, seed: int):
    """Endless per-op seeds, the same for the same (label, seed)."""
    rng = random.Random(f"{label}/{seed}")
    while True:
        yield rng.randrange(1, 2 ** 31)


def run_child(cmd, timeout: float, **kwargs) -> tuple[int, str | None]:
    """Run cmd to its end; (exit code, captured stdout if asked for).

    The wait blocks, and a timer kills a child that overruns. subprocess.run
    with a timeout polls with sleeps of up to 50 ms instead, which would round
    the op times it measures.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(cmd, cwd=str(ROOT), env=env, stdin=subprocess.DEVNULL, **kwargs)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out, _ = proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out


def import_library():
    """Import stableleaf from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import stableleaf

    where = Path(stableleaf.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"stableleaf imported from {where}, not from {SRC}")
    return stableleaf


class TheoremHenon:
    name = "theorem-henon"
    kind = "theorem"
    ETA, KMAX, N = 0.05, 12, 2000

    def setup(self):
        self.sl = import_library()
        self.map = self.sl.make_map("henon", **HENON)

    def run(self, seed, m=None):
        sl = self.sl
        m = self.map if m is None else m
        fp = sl.eigen_split(m, sl.Point2(*HENON_GUESS))
        return sl.verify_fixed_point_theorem(m, fp, eta=self.ETA, kmax=self.KMAX, seed=seed, n=self.N)

    def check(self, r) -> list[str]:
        conv = r.convergence
        failed = []
        if not r.converged:
            failed.append("converged")
        if not r.full_length:
            failed.append("full_length")
        if not r.tangency_error <= 1e-4:
            failed.append("tangency")
        if not r.rate_deviation <= 0.05:
            failed.append("rate_deviation")
        if not r.minidistortion_ok:
            failed.append("minidistortion_ok")
        if not r.k0_ok:
            failed.append("k0_ok")
        if not all(d <= GRONWALL_SLACK * g for d, g in zip(conv.d_k, conv.gronwall_bound)):
            failed.append("gronwall")
        return failed

    def corruptions(self, r):
        conv = r.convergence
        return [
            dataclasses.replace(r, converged=False),
            dataclasses.replace(r, tangency_error=1e-3),
            dataclasses.replace(r, rate_deviation=0.5),
            dataclasses.replace(r, convergence=dataclasses.replace(conv, d_k=conv.gronwall_bound * 2.0)),
        ]

    def fingerprint(self, r) -> dict:
        return {"eps": r.eps, "d_k_final": float(r.convergence.d_k[-1]), "tangency": r.tangency_error}


class BudgetWide:
    name = "budget-wide"
    kind = "budget"
    ETA, KMAX, N = 0.05, 14, 20000

    def setup(self):
        self.sl = import_library()
        self.map = self.sl.make_map("perturbed", **PERTURBED)
        self.sched = self.sl.EpsilonSchedule.constant(self.ETA)

    def run(self, seed, m=None):
        sl = self.sl
        m = self.map if m is None else m
        b = sl.estimate_budget(m, sl.Point2(0.0, 0.0), self.sched, self.KMAX, n=self.N, seed=seed)
        return b, sl.check_condition_star(b), sl.check_condition_double_star(b, self.sched)

    def check(self, r) -> list[str]:
        b = r[0]
        failed = []
        if b.k0 is None:
            failed.append("k0")
        counts = [b.accepted_counts[k] for k in sorted(b.accepted_counts)]
        if any(later > earlier for earlier, later in zip(counts, counts[1:])):
            failed.append("accepted_monotone")
        return failed

    def corruptions(self, r):
        b = r[0]
        grown = dict(b.accepted_counts)
        grown[b.kmax] = grown[1] + 1
        return [
            (dataclasses.replace(b, k0=None),) + r[1:],
            (dataclasses.replace(b, accepted_counts=grown),) + r[1:],
        ]

    def fingerprint(self, r) -> dict:
        b, _, dstar = r
        return {"k0": b.k0, "gamma_required": dstar.gamma_required,
                "accepted_kmax": b.accepted_counts[b.kmax]}


@dataclasses.dataclass
class CliResult:
    returncode: int
    files: dict      # artifact name -> bytes
    spans: list = dataclasses.field(default_factory=list)


class CliCold:
    name = "cli-cold"
    kind = "cli"
    ARTIFACTS = ("convergence.json", "leaf.csv")

    def setup(self):
        (OUT / "tmp").mkdir(parents=True, exist_ok=True)

    def argv(self, seed, out_dir) -> list[str]:
        return ["converge", "--map", "perturbed", "--lambda-s", "0.5", "--lambda-u", "2",
                "--c", "0.05", "--eps0", "0.05", "--kmax", "8", "--samples", "500",
                "--seed", str(seed), "--out-dir", str(out_dir)]

    def run(self, seed, traced=False):
        """One fresh CLI process; with traced, the spans it recorded come back too."""
        work = Path(tempfile.mkdtemp(dir=OUT / "tmp"))
        try:
            out_dir = work / "out"
            spans_path = work / "spans.json"
            if traced:
                cmd = [sys.executable, str(BENCH_DIR / "tracecli.py"), str(spans_path)]
            else:
                cmd = [sys.executable, "-m", "stableleaf"]
            code, _ = run_child(cmd + self.argv(seed, out_dir), 120.0, stdout=subprocess.DEVNULL)
            files = {name: (out_dir / name).read_bytes()
                     for name in self.ARTIFACTS if (out_dir / name).exists()}
            spans = json.loads(spans_path.read_text()) if traced and spans_path.exists() else []
            return CliResult(code, files, spans)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def check(self, r) -> list[str]:
        failed = []
        if r.returncode != 0:
            failed.append("exit_code")
        try:
            conv = json.loads(r.files["convergence.json"])
        except (KeyError, ValueError):
            return failed + ["convergence_json"]
        if conv.get("converged") is not True:
            failed.append("converged")
        return failed

    def corruptions(self, r):
        flipped = r.files["convergence.json"].replace(b'"converged":true', b'"converged":false')
        return [
            dataclasses.replace(r, returncode=3),
            dataclasses.replace(r, files={**r.files, "convergence.json": flipped}),
            dataclasses.replace(r, files={}),
        ]

    def fingerprint(self, r) -> dict:
        return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(r.files.items())}


WORKLOADS = {cls.name: cls for cls in (TheoremHenon, BudgetWide, CliCold)}
