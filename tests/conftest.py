import errno
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from coaodv_sim import cli
from coaodv_sim.model import (
    DistanceMetric,
    MobilityRecord,
    NodeState,
    Position,
    ScenarioConfig,
    load_scenario,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
PAPER_SCENARIO = REPO_ROOT / "scenarios" / "paper_table123.json"

# Every Hypothesis test draws the same examples on each run and replays no
# failure stored by an earlier run, so Tier-1 passes or fails the same way.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


# The most bytes a raised message, or a CLI `error:` line less the argv text
# it quotes, may take.
MESSAGE_BYTES = 200


def error_line_bytes(line: str, argv) -> int:
    """The UTF-8 length of a CLI `error:` line less each argument of `argv` that
    it quotes, as written, as its repr or as the CLI shows a path."""
    for arg in sorted(argv, key=len, reverse=True):
        for text in (arg, repr(arg), cli._one_line(cli._shown(arg))):
            line = line.replace(text, "")
    return len(line.encode("utf-8"))


class FailingStream(io.StringIO):
    """A text stream whose `write` or `flush`, as `where` names, raises `error`."""

    def __init__(self, where, error):
        super().__init__()
        self.where, self.error = where, error

    def write(self, text):
        if self.where == "write":
            raise self.error
        return super().write(text)

    def flush(self):
        if self.where == "flush":
            raise self.error
        super().flush()


def package_process(args, env=None, **kw) -> subprocess.CompletedProcess:
    """A fresh `python ARGS…` with the package first on its path and `env` over the
    environment (a None value unsets its variable); `kw` goes to subprocess.run,
    which by default captures both streams as text and times out after 120 s."""
    path = os.pathsep.join([str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, **(env or {}), "PYTHONPATH": path}
    kw = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True, "timeout": 120, **kw}
    return subprocess.run([sys.executable, *args],
                          env={k: v for k, v in env.items() if v is not None}, **kw)


def dev_process(
    args, stdout=subprocess.PIPE, text=True, cwd=None, **env
) -> subprocess.CompletedProcess:
    """A fresh `python -X dev -W error ARGS…` (development mode, warnings as errors) run in
    `cwd`, its stderr captured, with default buffering, the package on its path and `env`
    over the environment (a None value unsets its variable)."""
    return package_process(["-X", "dev", "-W", "error", *args], {**env, "PYTHONUNBUFFERED": None},
                           stdout=stdout, text=text, cwd=cwd)


# what a stdout or stderr write may raise: its reader gone, or its device full
STREAM_ERRORS = {
    "closed-pipe": BrokenPipeError(errno.EPIPE, "Broken pipe"),
    "full": OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
}


@pytest.fixture(scope="session")
def paper_scenario() -> ScenarioConfig:
    return load_scenario(PAPER_SCENARIO)


def scenario_to_json(config: ScenarioConfig) -> str:
    """The scenario document of `config`, whose nodes share one elapsed time."""
    (elapsed,) = {n.mobility_record.elapsed for n in config.nodes} or {1.0}
    doc = {
        "nodes": [
            {
                "id": n.id,
                "pos_t1": [n.mobility_record.pos_t1.x, n.mobility_record.pos_t1.y],
                "pos_t2": [n.mobility_record.pos_t2.x, n.mobility_record.pos_t2.y],
                "energy": n.energy,
            }
            for n in config.nodes
        ],
        "area": list(config.area),
        "transmission_range": config.transmission_range,
        "energy_threshold": config.energy_threshold,
        "distance_metric": config.distance_metric.value,
        "mobility_metric": config.mobility_metric.value,
        "threshold_strict": config.threshold_strict,
        "non_coop_drop_prob": config.non_coop_drop_prob,
        "seed": config.rng_seed,
        "elapsed_time": elapsed,
    }
    return json.dumps(doc, indent=2) + "\n"


def run_document(tmp_path, doc, command, *options) -> int:
    """`main([command, PATH, *options])`, PATH a file in `tmp_path` holding `doc` as
    JSON, in which an infinite or NaN float is written as Infinity or NaN."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return cli.main([command, str(path), *options])


def make_node(node_id, x1, y1, x2=None, y2=None, energy=1000.0, elapsed=1.0) -> NodeState:
    x2 = x1 if x2 is None else x2
    y2 = y1 if y2 is None else y2
    return NodeState(
        id=node_id,
        mobility_record=MobilityRecord(Position(x1, y1), Position(x2, y2), elapsed),
        energy=energy,
    )


def make_scenario(nodes, transmission_range=20.0, energy_threshold=500.0, **kwargs):
    return ScenarioConfig(
        nodes=tuple(nodes),
        area=kwargs.pop("area", (100.0, 100.0)),
        transmission_range=transmission_range,
        energy_threshold=energy_threshold,
        **kwargs,
    )


def random_scenario(rng: random.Random, n_nodes: int | None = None) -> ScenarioConfig:
    """Random scenario in the acceptance sweep's shape: 4-12 nodes placed
    uniformly in 100x100 (both epochs), energies uniform in [0, 2000], r=20."""
    n = n_nodes if n_nodes is not None else rng.randint(4, 12)
    nodes = [
        make_node(
            i,
            rng.uniform(0, 100),
            rng.uniform(0, 100),
            rng.uniform(0, 100),
            rng.uniform(0, 100),
            energy=rng.uniform(0, 2000),
        )
        for i in range(n)
    ]
    return make_scenario(nodes)


def dense_random_scenario(rng: random.Random) -> ScenarioConfig:
    """Like random_scenario but nodes cluster in a random 30-55 unit patch of
    the area, so multi-hop routes and cooperative detours actually occur."""
    n = rng.randint(4, 12)
    side = rng.uniform(30, 55)
    x0 = rng.uniform(0, 100 - side)
    y0 = rng.uniform(0, 100 - side)
    nodes = [
        make_node(
            i,
            rng.uniform(x0, x0 + side),
            rng.uniform(y0, y0 + side),
            rng.uniform(x0, x0 + side),
            rng.uniform(y0, y0 + side),
            energy=rng.uniform(0, 2000),
        )
        for i in range(n)
    ]
    return make_scenario(nodes)


def seeded_scenario(
    n: int,
    seed: int,
    distance_metric: DistanceMetric = DistanceMetric.MANHATTAN,
    per_unit: int = 1000,
) -> ScenarioConfig:
    """n nodes at whole-thousandth coordinates on a square sized for a mean
    Manhattan degree near 9 at r=20. About 40% are stationary relays above
    the energy threshold, so some flows have cooperative routes and some are
    refused; the rest move up to 3 units and may have any energy.

    `per_unit` is how many coordinate steps make one unit: at 1 every length
    (coordinates, area and range) is counted in thousandths, so the
    coordinates are integers and differences of them are exact."""
    rng = random.Random(f"seeded-{n}-{seed}")
    side = max(20, round((n * 800 / 9) ** 0.5))
    top = side * 1000
    nodes = []
    for i in range(n):
        x, y = rng.randint(0, top), rng.randint(0, top)
        if rng.random() < 0.4:
            energy, x2, y2 = rng.randint(501, 2000), x, y
        else:
            energy = rng.randint(100, 2000)
            x2 = min(max(x + rng.randint(-3000, 3000), 0), top)
            y2 = min(max(y + rng.randint(-3000, 3000), 0), top)
        nodes.append(
            make_node(i, x / per_unit, y / per_unit, x2 / per_unit, y2 / per_unit, energy=energy)
        )
    unit = 1000 / per_unit
    return make_scenario(
        nodes,
        transmission_range=20 * unit,
        area=(side * unit, side * unit),
        distance_metric=distance_metric,
    )
