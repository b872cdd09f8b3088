"""Seeded workload inputs.

Every input the program sees comes from here, from the ``--seed``
and ``--seconds`` arguments alone: the same arguments give
byte-identical inputs (``inputs_digest`` checks that).  The program
never sees the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Point universe for plan traffic (model, arch, seq, batch, causal).
#: An assumption, not recorded traffic (the repository holds none):
#: every model and architecture the CLI names, sequence lengths over
#: the paper's range up to 256 K, batches 1 to 64.
MODELS = ("bert", "t5", "llama3", "xlm", "trxl", "llama3-gqa")
ARCHS = ("cloud", "edge", "edge32", "edge64")
SEQS = (512, 1024, 2048, 4096, 8192, 16384, 65536, 262144)
BATCHES = (1, 4, 16, 64)

#: The golden corpus grid (``repro.validate.golden``): batch 4,
#: transfusion, not causal; two of its points also run at budget 16.
GOLDEN_MODELS = ("bert", "t5", "llama3")
GOLDEN_ARCHS = ("cloud", "edge")
GOLDEN_SEQS = (512, 1024)
GOLDEN_BUDGET = 16
GOLDEN_DEGRADED = (("t5", "cloud", 512), ("llama3", "edge", 1024))

#: The paper grid ``run_grid`` sweeps are drawn from.
PAPER_EXECUTORS = ("unfused", "flat", "fusemax", "fusemax+lf", "transfusion")
PAPER_MODELS = ("bert", "trxl", "t5", "xlm", "llama3")
PAPER_ARCHS = ("cloud", "edge")
PAPER_SEQS = (1024, 4096, 16384, 65536, 262144, 1048576)

#: Nominal seconds one unit of work takes; they turn ``--seconds``
#: into a fixed amount of work, so sample counts (and therefore the
#: tail percentile) depend on the arguments only, never on the host.
CLI_POINT_SECONDS = 1.0
SWEEP_GRID_SECONDS = 0.9
#: Shortest serve_mix schedule: enough for LRU hits on the first rung.
SERVE_MIN_SECONDS = 10.0

#: serve_mix offered-rate ladder (requests/s), each rung's share of
#: the run, and the latency limit.  With the assumed shares below
#: about 64 % of arrivals search and, after the warm-up, one worker
#: serves ~20 misses/s on a 2-core host, so the mix saturates near 30
#: requests/s: the first rung keeps the worker about a third busy,
#: the others climb past saturation.
SERVE_LADDER = (9.0, 16.0, 24.0, 32.0)
SERVE_RUNG_SHARES = (0.7, 0.1, 0.1, 0.1)
#: miss_s / hit_s come from the first rung.  Nearer saturation a
#: request waits behind another miss or not, and which side of that
#: gap the median falls on swings with host speed from run to run;
#: the upper rungs count toward max_rate_rps only.
SERVE_LATENCY_RUNGS = 1
SERVE_LIMIT_S = 0.25

#: serve_mix request classes and their shares of arrival events (a
#: pair is one event, two requests).  The shares and the Zipf
#: parameters are assumptions: there is no recorded traffic to take
#: them from.  Each share is sized for the path it exercises, so that
#: the first rung alone gives each timed class enough samples:
SERVE_SHARES = (
    ("zipf", 0.30),      # LRU hits -> serve.app, transport, serialize
    ("fresh", 0.50),     # misses -> pool, executor, tileseek, dpipe
    ("pair", 0.10),      # identical pairs sent together -> coalescer
    ("deadline", 0.10),  # fresh points with deadline_s -> budget path
)
#: The hot set: 4 golden points plus fresh draws; it enters the LRU in
#: the warm-up, so Zipf requests are all hits and the skew only picks
#: which cached bodies they return.  s = 1.1 is a common web-cache
#: skew, again assumed.
ZIPF_POINTS = 24
ZIPF_S = 1.1
#: deadline_s is drawn log-uniformly from this range (seconds).
DEADLINE_RANGE = (0.005, 0.5)


@dataclass(frozen=True)
class Point:
    """One plan request's grid point and optional budget."""

    model: str
    arch: str
    seq_len: int
    batch: int
    causal: bool = False
    executor: str = "transfusion"
    budget: Optional[int] = None

    def wire(self) -> Dict[str, Any]:
        """The request's ``point`` object."""
        document = asdict(self)
        document.pop("budget")
        return document

    def cli_args(self) -> List[str]:
        args = [
            "--model", self.model, "--arch", self.arch,
            "--seq", str(self.seq_len), "--batch", str(self.batch),
            "--executor", self.executor,
        ]
        if self.causal:
            args.append("--causal")
        if self.budget is not None:
            args += ["--budget", str(self.budget)]
        return args

    def golden(self) -> bool:
        return (
            self.model in GOLDEN_MODELS and self.arch in GOLDEN_ARCHS
            and self.seq_len in GOLDEN_SEQS and self.batch == 4
            and not self.causal and self.executor == "transfusion"
            and (
                self.budget is None
                or (
                    self.budget == GOLDEN_BUDGET
                    and (self.model, self.arch, self.seq_len)
                    in GOLDEN_DEGRADED
                )
            )
        )


def golden_points() -> List[Point]:
    healthy = [
        Point(model, arch, seq, 4)
        for model in GOLDEN_MODELS
        for arch in GOLDEN_ARCHS
        for seq in GOLDEN_SEQS
    ]
    degraded = [
        Point(model, arch, seq, 4, budget=GOLDEN_BUDGET)
        for model, arch, seq in GOLDEN_DEGRADED
    ]
    return healthy + degraded


def _rng(seed: int, stream: str) -> random.Random:
    digest = hashlib.sha256(f"{stream}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _distinct_draw(
    rng: random.Random, count: int, exclude: set
) -> List[Point]:
    """``count`` distinct points, stratified over (model, arch) and seq.

    Each block of draws covers every (model, arch) pair once, in a
    seeded order, with sequence lengths cycling through a seeded
    permutation; batch and causality are drawn freely.  The mix of
    costly and cheap points is therefore nearly the same for every
    seed, which keeps run-to-run spread down without narrowing the
    inputs.
    """
    pairs = [(m, a) for m in MODELS for a in ARCHS]
    taken = set(exclude)
    drawn: List[Point] = []
    while len(drawn) < count:
        order = rng.sample(pairs, len(pairs))
        seqs = rng.sample(SEQS, len(SEQS))
        for index, (model, arch) in enumerate(order):
            if len(drawn) == count:
                break
            seq = seqs[index % len(seqs)]
            options = [
                Point(model, arch, seq, batch, causal)
                for batch in BATCHES for causal in (False, True)
            ]
            options = [p for p in options if p not in taken]
            if not options:
                continue
            point = rng.choice(options)
            taken.add(point)
            drawn.append(point)
    return drawn


# ----------------------------------------------------------------------
# cli_plan
# ----------------------------------------------------------------------
def cli_points(seed: int, seconds: float) -> List[Point]:
    """Distinct points, each planned cold then warm by the CLI.

    Both budget-16 golden points and two healthy golden points are
    always included, at seeded positions.
    """
    rng = _rng(seed, "cli_plan")
    count = max(12, int(round(seconds / CLI_POINT_SECONDS)))
    golden = golden_points()
    healthy = [p for p in golden if p.budget is None]
    chosen = rng.sample(healthy, 2) + [
        p for p in golden if p.budget is not None
    ]
    chosen += _distinct_draw(
        rng, count - len(chosen), set(golden)
    )
    rng.shuffle(chosen)
    return chosen


# ----------------------------------------------------------------------
# serve_mix
# ----------------------------------------------------------------------
@dataclass
class Arrival:
    """One scheduled request of the open loop."""

    index: int
    due: float
    rung: int
    kind: str
    point: Point
    deadline_s: Optional[float] = None

    def document(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "op": "plan", "id": f"r{self.index}",
            "point": self.point.wire(),
        }
        if self.point.budget is not None:
            document["budget"] = self.point.budget
        if self.deadline_s is not None:
            document["deadline_s"] = self.deadline_s
        return document

    def identity(self) -> Tuple[Point, Optional[float]]:
        """What the server's fingerprint distinguishes (no id)."""
        return self.point, self.deadline_s


@dataclass
class ServeSchedule:
    """Untimed warm-up requests, then the timed arrivals."""

    arrivals: List[Arrival] = field(default_factory=list)
    warmup: List[Arrival] = field(default_factory=list)


def _deck(rng: random.Random, count: int) -> List[str]:
    """``count`` request kinds in exact ``SERVE_SHARES`` proportions
    (largest remainder), shuffled."""
    quotas = [(share * count, kind) for kind, share in SERVE_SHARES]
    sizes = {kind: int(quota) for quota, kind in quotas}
    spare = count - sum(sizes.values())
    for quota, kind in sorted(
        quotas, key=lambda item: item[0] - int(item[0]), reverse=True
    )[:spare]:
        sizes[kind] += 1
    deck = [kind for kind, _ in SERVE_SHARES for _ in range(sizes[kind])]
    rng.shuffle(deck)
    return deck


def serve_schedule(seed: int, seconds: float) -> ServeSchedule:
    """A seeded Poisson schedule climbing the rate ladder.

    Each rung lasts its ``SERVE_RUNG_SHARES`` share of ``seconds`` and
    holds exactly ``rate x duration`` arrival events at uniform instants --
    a Poisson process conditioned on its count -- whose kinds follow
    ``SERVE_SHARES`` exactly.  Fixing the counts keeps the sample
    sizes, and so the spread of the figures, the same for every seed.
    Fresh, pair and deadline points never repeat within a run; Zipf
    points repeat from a hot set that also holds golden points.
    """
    rng = _rng(seed, "serve_mix")
    seconds = max(seconds, SERVE_MIN_SECONDS)
    durations = [share * seconds for share in SERVE_RUNG_SHARES]
    golden = [p for p in golden_points() if p.budget is None]
    warm = _distinct_draw(rng, len(MODELS) * len(ARCHS), set(golden))
    hot = rng.sample(golden, 4)
    hot += _distinct_draw(
        rng, ZIPF_POINTS - len(hot), set(golden) | set(warm)
    )
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(hot))]
    counts = [
        round(rate * duration)
        for rate, duration in zip(SERVE_LADDER, durations)
    ]
    fresh = _distinct_draw(
        rng, sum(counts), set(hot) | set(golden) | set(warm)
    )
    schedule = ServeSchedule()
    # Untimed warm-up, as a long-running server would have had: the
    # budget-16 golden points spawn the worker pool (sharing no cache
    # entry with the timed, unbudgeted plans), then one plan per
    # (model, arch) pair fills the worker's in-process memos, without
    # which misses get cheaper all through the run.  Last, the hot set
    # enters the LRU, so every timed Zipf request is a hit whatever
    # the timing (a first visit would be a miss, or coalesced if its
    # repeat came while it searched).
    schedule.warmup = [
        Arrival(-1 - index, 0.0, -1, "warmup", point)
        for index, point in enumerate(
            [p for p in golden_points() if p.budget is not None]
            + warm + hot
        )
    ]
    arrivals = schedule.arrivals
    low, high = DEADLINE_RANGE
    begin = 0.0
    for rung, (count, duration) in enumerate(zip(counts, durations)):
        instants = sorted(
            begin + rng.random() * duration for _ in range(count)
        )
        begin += duration
        for due, kind in zip(instants, _deck(rng, count)):
            if kind == "zipf":
                point = rng.choices(hot, weights)[0]
            else:
                point = fresh.pop()
            deadline = None
            if kind == "deadline":
                deadline = round(
                    math.exp(rng.uniform(math.log(low), math.log(high))),
                    4,
                )
            arrivals.append(Arrival(
                len(arrivals), due, rung, kind, point, deadline
            ))
            if kind == "pair":
                arrivals.append(Arrival(
                    len(arrivals), due, rung, "pair", point
                ))
    return schedule


# ----------------------------------------------------------------------
# sweep_grid
# ----------------------------------------------------------------------
def sweep_grids(seed: int, seconds: float) -> List[List[Point]]:
    """Seeded draws from the paper grid, all five executors each.

    Every grid is 2 models x 2 architectures x 3 sequence lengths x
    5 executors = 60 points in 20 chains, batch 64, plus two golden
    points (batch 4) whose reports are checked against the corpus.
    """
    rng = _rng(seed, "sweep_grid")
    count = max(4, int(round(seconds / SWEEP_GRID_SECONDS)))
    grids = []
    for _ in range(count):
        models = rng.sample(PAPER_MODELS, 2)
        seqs = sorted(rng.sample(PAPER_SEQS, 3))
        grid = [
            Point(model, arch, seq, 64, executor=executor)
            for executor in PAPER_EXECUTORS
            for model in models
            for arch in PAPER_ARCHS
            for seq in seqs
        ]
        grid += rng.sample(
            [p for p in golden_points() if p.budget is None], 2
        )
        grids.append(grid)
    return grids


def inputs_digest(workload: str, seed: int, seconds: float) -> str:
    """SHA-256 over the canonical rendering of a workload's inputs."""
    if workload == "cli_plan":
        data: Any = [asdict(p) for p in cli_points(seed, seconds)]
    elif workload == "serve_mix":
        schedule = serve_schedule(seed, seconds)
        data = [
            [round(a.due, 9), a.rung, a.kind, a.document()]
            for a in schedule.warmup + schedule.arrivals
        ]
    elif workload == "sweep_grid":
        data = [
            [asdict(p) for p in grid]
            for grid in sweep_grids(seed, seconds)
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rendered = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(rendered.encode()).hexdigest()
