"""The benchmark's workloads: one closed loop each, one operation at a time.

Each workload has ``setup`` (import, warm-up), ``prepare`` (the input of
operation ``i``, made from the run's seed outside the operation's timer),
``run`` (the timed operation), ``check`` (output checks; any problem fails
the operation) and ``fingerprint`` (result values compared with the stored
references in ``reference.json`` to 1e-9 relative).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
REL_TOL = 1e-9


def child_env() -> dict[str, str]:
    """Environment for every interpreter the benchmark starts: the checkout's
    sources first on the path, thread caps inherited from this process."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def close(value: float, reference: float, scale: float = 0.0) -> bool:
    return abs(value - reference) <= REL_TOL * max(abs(value), abs(reference), scale)


class AnalyzeSyn5:
    """``analyze(random_system(default_rng(seed + i), 5))`` with default options."""

    name = "analyze-syn5"
    n_spatial = 5

    def setup(self, seed: int, traced: bool) -> None:
        import numpy as np
        import trotterr

        self.np, self.trotterr, self.seed = np, trotterr, seed
        # warm-up: one report on a 4-spin-orbital system loads the solver
        # paths numpy and scipy import lazily
        trotterr.analyze(trotterr.random_system(np.random.default_rng(seed), 2))

    def prepare(self, i: int):
        rng = self.np.random.default_rng(self.seed + i)
        return self.seed + i, self.trotterr.random_system(rng, self.n_spatial)

    def run(self, inp, tracer=None):
        return self.trotterr.analyze(inp[1])

    def check(self, inp, report) -> list[str]:
        problems = []
        if not 0.0 <= report.ratio <= 1.0:
            problems.append(f"ratio {report.ratio} outside [0, 1]")
        exact = report.ground_state_energy
        tol = REL_TOL * max(1.0, abs(exact))
        energies = [level.energy for level in report.ci_results]
        if any(b > a + tol for a, b in zip(energies, energies[1:])):
            problems.append(f"CI energies increase with level: {energies}")
        if any(e < exact - tol for e in energies):
            problems.append(f"CI energy below the exact ground state {exact}: {energies}")
        text = report.to_json()
        again = json.dumps(json.loads(text), sort_keys=True, indent=2, allow_nan=False) + "\n"
        if again != text:
            problems.append("report JSON does not round-trip byte-identically")
        return problems

    def fingerprint(self, inp, report) -> dict:
        return {
            str(inp[0]): {
                "ratio": report.ratio,
                "ground_state_error": report.ground_state_error,
                "error_term_count": report.error_term_count,
                "error_l1": report.error_l1,
            }
        }

    def compare(self, key: str, values: dict, reference: dict) -> list[str]:
        return [
            f"{key} {field} {values[field]!r} != reference {ref!r}"
            for field, ref in reference.items()
            if not close(values[field], ref)
        ]


class HaarH4Full:
    """In-process ``trotterr haar --full-fock --samples 1000000 --seed S`` on
    the H4 chain: parse, build V, full spectrum at dim 256, sample."""

    name = "haar-h4-full"
    fixture = FIXTURES / "h4_sto6g_local.fcidump"
    n_samples = 1_000_000

    def setup(self, seed: int, traced: bool) -> None:
        import trotterr

        self.trotterr, self.seed = trotterr, seed
        # warm-up: the same pipeline on the 4-spin-orbital H2 fixture
        self._haar(FIXTURES / "h2_sto6g_local.fcidump", 1000, seed)

    def _haar(self, path, n_samples: int, seed: int):
        t = self.trotterr
        system = t.load_fcidump(path, orbital_kind="local")
        error = t.build_error_operator(t.build_trotter_sequence(system, "lexicographic"), 1.0)
        basis = t.SectorBasis.full(system.n_spin_orbitals)
        return t.haar_error_distribution(error, basis, n_samples, seed)

    def prepare(self, i: int):
        return self.seed + i

    def run(self, sample_seed, tracer=None):
        return self._haar(self.fixture, self.n_samples, sample_seed)

    @staticmethod
    def _scale(report) -> float:
        # root-mean-square eigenvalue, a lower bound on ||V||
        return math.sqrt(report.dim) * report.concentration_bound

    def check(self, sample_seed, report) -> list[str]:
        problems = []
        if not report.mean_is_unbiased():
            problems.append(
                f"empirical mean {report.empirical_mean} is more than 3 standard errors "
                f"from the closed form {report.closed_form_mean}"
            )
        # V is traceless on the full Fock space
        if abs(report.closed_form_mean) > 1e-10 * self._scale(report):
            problems.append(f"closed-form mean {report.closed_form_mean} is not ~0")
        return problems

    def fingerprint(self, sample_seed, report) -> dict:
        scale = self._scale(report)
        return {
            "closed_form": {
                "mean": report.closed_form_mean,
                "variance": report.closed_form_variance,
                "scale": scale,
            },
            f"seed={sample_seed}": {"empirical_mean": report.empirical_mean, "scale": scale},
        }

    def compare(self, key: str, values: dict, reference: dict) -> list[str]:
        # means near zero are compared on the scale of the spectrum
        scale = reference["scale"]
        return [
            f"{key} {field} {values[field]!r} != reference {ref!r}"
            for field, ref in reference.items()
            if not close(values[field], ref, scale if "mean" in field else 0.0)
        ]


class CliH2:
    """``python -m trotterr.cli`` as one subprocess at a time, rotating over
    five subcommands and the three H2 fixtures."""

    name = "cli-h2"
    subcommands = (
        ("analyze", ()),
        ("spectrum", ()),
        ("haar", ("--samples", "10000")),
        ("marginals", ()),
        ("prep-cost", ("--delta", "1e-3")),
    )
    kinds = ("local", "canonical", "natural")
    local_ratio = 0.2037707572

    def setup(self, seed: int, traced: bool) -> None:
        self.seed = seed
        self.env = child_env()
        self.peak_rss_kb = 0
        # warm-up: one interpreter importing the CLI compiles and caches
        # the package's bytecode
        subprocess.run(
            [sys.executable, "-m", "trotterr.cli", "--version"],
            env=self.env, check=True, stdout=subprocess.DEVNULL,
        )
        if traced:
            import trotterr.cli

            self.cli = trotterr.cli

    def prepare(self, i: int):
        combos = [(sub, kind) for sub, _ in self.subcommands for kind in self.kinds]
        sub, kind = combos[(self.seed + i) % len(combos)]
        argv = [sub, "--fcidump", str(FIXTURES / f"h2_sto6g_{kind}.fcidump"), "--basis-kind", kind]
        argv += dict(self.subcommands)[sub]
        if sub == "haar":
            argv += ["--seed", str(self.seed)]
        return sub, kind, argv

    def run(self, inp, tracer=None):
        if tracer is not None:
            return self._run_traced(inp, tracer)
        proc = subprocess.Popen(
            [sys.executable, "-m", "trotterr.cli", *inp[2]],
            env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        out = proc.stdout.read()
        err = proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out, err

    def _run_traced(self, inp, tracer):
        # the import a shell user pays, in a fresh interpreter; then the
        # handler in this process, where the layer spans can see it
        with tracer.span("cli.import"):
            subprocess.run(
                [sys.executable, "-c", "import trotterr.cli"], env=self.env, check=True
            )
        out, err = io.StringIO(), io.StringIO()
        with tracer.span("cli.handler"), redirect_stdout(out), redirect_stderr(err):
            code = self.cli.main(inp[2])
        return code, out.getvalue().encode(), err.getvalue().encode()

    def check(self, inp, result) -> list[str]:
        sub, kind, _ = inp
        code, out, err = result
        if code != 0:
            return [f"{sub} {kind} exited {code}: {err.decode(errors='replace').strip()}"]
        text = out.decode()
        if sub in ("spectrum", "marginals"):
            lines = text.splitlines()
            if not lines or not lines[0].startswith("#") or any(
                line.startswith("#") for line in lines[1:]
            ):
                return [f"{sub} {kind} CSV lacks its single '#' header line"]
            return []
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"{sub} {kind} output is not JSON: {exc}"]
        if sub == "analyze" and kind == "local" and not close(payload["ratio"], self.local_ratio):
            return [f"h2_sto6g_local ratio {payload['ratio']!r} != {self.local_ratio}"]
        return []

    def fingerprint(self, inp, result) -> dict:
        sub, kind, _ = inp
        key = f"{sub}/{kind}" + (f"/seed={self.seed}" if sub == "haar" else "")
        return {key: {"stdout_sha256": hashlib.sha256(result[1]).hexdigest()}}

    def compare(self, key: str, values: dict, reference: dict) -> list[str]:
        if values != reference:
            return [f"{key} stdout hash {values['stdout_sha256']} != reference"]
        return []


WORKLOADS = {w.name: w for w in (AnalyzeSyn5, HaarH4Full, CliH2)}


def peak_rss_mb(workload) -> float:
    """Peak resident memory of the process doing the work: this one for the
    in-process workloads, the largest CLI child for ``cli-h2``."""
    import resource

    if isinstance(workload, CliH2):
        kb = workload.peak_rss_kb
    else:
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0
