"""The benchmark's tracer still finds the functions it rebinds.

``bench/tracer.py`` wraps bellfield functions by name; a renamed or removed
one would leave its per-layer metrics silently at zero.  The tracer is
loaded read-only from its file and every experiment runs once under it.
"""

import importlib.util
from pathlib import Path

import pytest

from bellfield import cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

EXPERIMENTS = [
    ["bell-sweep", "--angles", "30", "--mode", "both"],
    ["special-cases"],
    ["limit-study", "--sigmas", "0.02,0.01"],
    ["malus-chain", "--angles", "0,45"],
    ["triphoton-compare", "--angles", "10,25,40"],
]


@pytest.fixture(scope="module")
def spans(tmp_path_factory):
    spec = importlib.util.spec_from_file_location("bellfield_bench_tracer", TRACER_PATH)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    codes = []
    with tracer.installed():
        for argv in EXPERIMENTS:
            codes.append(cli.main([*argv, "--output", str(tmp_path_factory.mktemp("rows") / "rows.csv")]))
    return codes, set(tracer.names)


def test_every_experiment_exits_0(spans):
    codes, _ = spans
    assert codes == [0] * len(EXPERIMENTS)


@pytest.mark.parametrize(
    "name",
    [
        "graded.mul",
        "graded.add",
        "quantum.bell_coincidence_qm",
        "quantum.dephase",
        "bell.triple_coincidence",
        "bell.brute_force_oracle",
        "bell.coincidence_probability",
        "quantum.triphoton_M",
        "quantum.triphoton_Mstar",
        "quantum.triphoton_MRF",
        "cli.run",
    ],
)
def test_span_recorded(spans, name):
    _, names = spans
    assert name in names
