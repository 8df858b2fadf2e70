"""The benchmark's workloads: inputs made from the seed, commands, checks.

Each workload turns a seed into input files, names the child commands of
one pass at one and at two workers, and checks every output against
references captured from the seed commit (``data/``) or against
definitions re-implemented in ``checks.py``.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
DATA = BENCH / "data"
PY = sys.executable
ZFDOM = [PY, "-m", "zfdom.cli"]
CHILD = [PY, str(BENCH / "child.py")]


@dataclass
class Finished:
    """One child process after it exited."""

    argv: list
    out: Path
    err: Path
    wall_s: float
    rss_mb: float
    code: int

    def stdout(self) -> str:
        return self.out.read_text(encoding="ascii")


@dataclass
class Tally:
    """Operations checked and the ones whose output was wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, attempted: int, failed: int, problem: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.problems) < 20:
            self.problems.append(problem)

    def check(self, ok: bool, problem: str) -> None:
        self.add(1, 0 if ok else 1, problem)


class Workload:
    name = ""
    graphs = 0  # graphs completed by one pass

    def prepare(self, rng: random.Random, work: Path) -> None:
        """Write the seed's inputs into ``work``."""

    def setup_argv(self, work: Path) -> list:
        raise NotImplementedError

    def plan(self, jobs: int, work: Path) -> tuple[list, int]:
        """Child commands of one pass and how many may run at once."""
        raise NotImplementedError

    def traced_plan(self, work: Path, spans: Path) -> list:
        """The jobs-1 commands, each under the call tracer."""
        raise NotImplementedError

    def check(self, runs: list, tally: Tally, work: Path) -> None:
        """Count the operations of one pass's finished commands."""
        raise NotImplementedError


class CorpusRun(Workload):
    """``zfdom run`` over graph6 lines, checked line by line."""

    def input_path(self, work: Path) -> Path:
        return work / f"{self.name}.g6"

    def plan(self, jobs, work):
        return [ZFDOM + ["run", "--jobs", str(jobs), str(self.input_path(work))]], 1

    def traced_plan(self, work, spans):
        return [CHILD + ["traced", str(spans) + ".0", "cli", "run", "--jobs", "1",
                         str(self.input_path(work))]]

    def expected(self, work: Path) -> list:
        """(graph6, digest of its reference report line) in input order."""
        raise NotImplementedError

    def check(self, runs, tally, work):
        (run,) = runs
        expected = self.expected(work)
        lines = run.stdout().splitlines()
        tally.check(len(lines) == len(expected),
                    f"{self.name}: {len(lines)} report lines for {len(expected)} graphs")
        for (graph6, want), line in zip(expected, lines):
            tally.check(checks.digest(line) == want, f"{self.name}: report for {graph6} differs")
        summary_lines = run.err.read_text(encoding="ascii").splitlines()
        try:
            summary = json.loads(summary_lines[-1]) if summary_lines else None
        except json.JSONDecodeError:
            summary = None
        tally.check(run.code == 0 and summary == checks.corpus_summary(lines),
                    f"{self.name}: exit {run.code} or stderr summary differs")


class CorpusN8(CorpusRun):
    """A seeded stratified 1/20 sample of the connected n = 8 catalogue."""

    name = "corpus-n8"
    stride = 20

    def __init__(self) -> None:
        rows = (DATA / "connected_n8.tsv").read_text(encoding="ascii").split("\n")
        self.catalogue = [tuple(row.split("\t")) for row in rows if row]
        self.graphs = -(-len(self.catalogue) // self.stride)
        self.sample: list = []

    def prepare(self, rng, work):
        blocks = range(0, len(self.catalogue), self.stride)
        self.sample = [rng.choice(self.catalogue[i:i + self.stride]) for i in blocks]
        rng.shuffle(self.sample)
        self.input_path(work).write_text("".join(g + "\n" for g, _ in self.sample),
                                         encoding="ascii")

    def setup_argv(self, work):
        return CHILD + ["setup", "corpus", str(self.input_path(work))]

    def expected(self, work):
        return self.sample


class StressSparse(CorpusRun):
    """Sparse family graphs on which the 2^n subset searches dominate."""

    name = "stress-sparse"
    specs = ("cycle:16", "path:16", "windmill:3,7")
    graphs = len(specs)

    def __init__(self) -> None:
        self.order = list(self.specs)
        lines = (DATA / "stress_sparse.jsonl").read_text(encoding="ascii").splitlines()
        self.reference = {json.loads(line)["graph6"]: checks.digest(line) for line in lines}

    def prepare(self, rng, work):
        rng.shuffle(self.order)

    def setup_argv(self, work):
        return CHILD + ["setup", "family", str(self.input_path(work)), *self.order]

    def expected(self, work):
        # the set-up child expanded the specs; a wrong expansion has no reference
        graph6s = self.input_path(work).read_text(encoding="ascii").split()
        return [(g, self.reference.get(g, "missing")) for g in graph6s]


class HuntN5(Workload):
    """``zfdom hunt --n 5`` for three predicates, each over 1,024 labeled graphs."""

    name = "hunt-n5"
    predicates = ("uppertotal-eq-2zgrundy", "zgrundy-eq-gammat", "z-eq-delta")
    graphs = 3 * 2 ** 10

    def __init__(self) -> None:
        self.reference = json.loads((DATA / "hunt_n5.json").read_text(encoding="ascii"))
        self.validated: dict = {}

    def _args(self, predicate):
        return ["hunt", "--predicate", predicate, "--n", "5"]

    def setup_argv(self, work):
        return CHILD + ["setup", "import"]

    def plan(self, jobs, work):
        return [ZFDOM + self._args(p) for p in self.predicates], jobs

    def traced_plan(self, work, spans):
        return [CHILD + ["traced", f"{spans}.{i}", "cli", *self._args(p)]
                for i, p in enumerate(self.predicates)]

    def check(self, runs, tally, work):
        for predicate, run in zip(self.predicates, runs):
            text = run.stdout()
            hits = [json.loads(line) for line in text.splitlines()]
            graph6s = sorted(hit["graph6"] for hit in hits)
            want = self.reference[predicate]
            tally.check(run.code == 0 and len(graph6s) == want["hits"]
                        and checks.sha256("\n".join(graph6s)) == want["sha256"],
                        f"{self.name}: {predicate} found {len(graph6s)} graphs, "
                        f"not the {want['hits']} of the reference")
            key = checks.sha256(text)
            if key not in self.validated:
                self.validated[key] = sum(
                    not checks.hunt_certificate_ok(predicate, hit) for hit in hits)
            bad = self.validated[key]
            tally.add(len(hits), bad, f"{self.name}: {bad} invalid {predicate} certificates")


class CatalogueN7(Workload):
    """All graphs and all connected graphs on 7 vertices up to isomorphism."""

    name = "catalogue-n7"
    order = 7
    counts = {"all": 1044, "connected": 853}  # OEIS A000088(7), A001349(7)
    graphs = sum(counts.values())

    def __init__(self) -> None:
        self.validated: dict = {}

    def setup_argv(self, work):
        return CHILD + ["setup", "import"]

    def plan(self, jobs, work):
        args = [str(self.order)]
        if jobs == 1:
            return [CHILD + ["catalogue", *args, *self.counts]], 1
        return [CHILD + ["catalogue", *args, which] for which in self.counts], jobs

    def traced_plan(self, work, spans):
        return [CHILD + ["traced", str(spans) + ".0", "catalogue", str(self.order),
                         *self.counts]]

    def check(self, runs, tally, work):
        text = "".join(run.stdout() for run in runs)
        key = checks.sha256(text)
        if key not in self.validated:
            self.validated[key] = self._problems(text)
        for which, count in self.counts.items():
            problem = self.validated[key].get(which)
            if any(run.code != 0 for run in runs):
                problem = "a catalogue child failed"
            tally.add(count, count if problem else 0, f"{self.name}: {which}: {problem}")

    def _problems(self, text: str) -> dict:
        """Per catalogue, what makes it other than the complete catalogue.

        Exactly ``count`` pairwise non-isomorphic graphs of the right order
        are every isomorphism class, so no reference list is needed.
        """
        sections: dict = {}
        rows: list = []
        for line in text.splitlines():
            if line.startswith("#"):
                rows = sections.setdefault(line.split()[1], [])
            else:
                rows.append([int(x) for x in line.split()])
        problems = {}
        for which, count in self.counts.items():
            graphs = sections.get(which, [])
            if len(graphs) != count:
                problems[which] = f"{len(graphs)} graphs, not {count}"
            elif not all(len(adj) == self.order and checks.is_simple(adj) for adj in graphs):
                problems[which] = f"a graph that is not simple on {self.order} vertices"
            elif which == "connected" and not all(map(checks.is_connected, graphs)):
                problems[which] = "a disconnected graph"
            elif not checks.pairwise_non_isomorphic(graphs):
                problems[which] = "an isomorphism class twice"
        return problems


WORKLOADS = {w.name: w for w in (CorpusN8, StressSparse, HuntN5, CatalogueN7)}
