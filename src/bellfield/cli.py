"""Batch experiment runner: sweeps, limit studies, model comparisons.

``bellfield <experiment> [--key value | --key=value ...] [--config FILE]``
emits one machine-readable table (CSV or JSON).  The command line is read
like a config file (:func:`read_argv`): the bare word is ``experiment``, a
flag is its key with ``-`` for ``_`` (``--grid-n``), never abbreviated, and
its value is the next word even if it starts with ``-`` (``--angles -10,20``).
A key given twice on the command line, or twice in the file, is refused;
flags override the file's keys.
``-h`` lists the experiments and keys.  Exit codes: 0 success, 2
configuration error (every malformed command line too; the message names
its ``config key``), 3 numerical failure.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

from .angles import PolAngle, reduce_degrees
from .bell import Mrf3Params, ParameterError, brute_force_oracle, checked_probability, coincidence_probability
from .dist import SigmaTooCoarse
from .quantum import bell_coincidence_qm, malus_chain, triphoton_compare

#: Exit 2: a key out of its range, refused by the model's own checks or by
#: :meth:`ExperimentConfig.validate`; ``key`` names it.
ConfigError = ParameterError

#: Exit 3: every model failure, arithmetic or a kernel too wide for its atoms.
NUMERICAL_ERRORS = (ArithmeticError, SigmaTooCoarse)

DEFAULT_SWEEP = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0]
TRIPHOTON_SCAN_DEGREES = [0.0, 36.0, 72.0, 108.0, 144.0]


#: A key's reader: the function from its text and what that text must be.
_TEXT = (str, "text")
_NUMBER = (float, "a number")
_INTEGER = (int, "an integer")


def _read_number_list(raw: str) -> list[float]:
    """The numbers between the commas, once no item is empty: a list key
    given empty, or with an empty item, is refused, where leaving it out
    gives the experiment's default."""
    items = raw.split(",")
    if any(not x.strip() for x in items):
        raise ValueError(raw)
    return [float(x) for x in items]


_NUMBER_LIST = (_read_number_list, "a comma-separated list of one or more numbers, none empty")


def _read_initial(raw: str) -> str:
    """The text itself, once it is 'unpolarized' or a finite number of degrees."""
    if raw != "unpolarized" and not math.isfinite(float(raw)):
        raise ValueError(raw)
    return raw


_INITIAL = (_read_initial, "finite degrees or 'unpolarized'")


def _key(read: tuple, help: str, **default):
    """A configuration key: a field carrying its reader and help text."""
    return field(metadata={"read": read, "help": help}, **default)


@dataclass
class ExperimentConfig:
    """One experiment's settings; each field is one configuration key.

    A field's ``metadata`` holds its reader (the function from the key's text
    and what that text must be) and its help.  The flags (``--grid-n`` for
    ``grid_n``, ``experiment`` the bare word), the config-file keys, the
    ``-h`` listing and :func:`build_config` all come from the fields: a key
    is declared here only.
    """

    experiment: str = _key(_TEXT, "the experiment to run, the bare word of a command line")
    angles: list[float] = _key(_NUMBER_LIST, "comma-separated degrees", default_factory=list)
    beta: float = _key(_NUMBER, "conversion cost beta (numeric routes)", default=1e-3)
    sigma: float | None = _key(_NUMBER, "kernel width in radians; per-experiment default when omitted", default=None)
    grid_n: int | None = _key(_INTEGER, "oracle grid points on [0, pi); sized from sigma when omitted", default=None)
    mode: str = _key(_TEXT, "bell-sweep route: exact, regularized or both", default="both")
    output: str = _key(_TEXT, "output path, '-' for stdout", default="-")
    format: str = _key(_TEXT, "csv or json", default="csv")
    initial: str = _key(_INITIAL, "malus-chain entry polarization (degrees or 'unpolarized')", default="0")
    sigmas: list[float] = _key(
        _NUMBER_LIST, "comma-separated kernel widths (limit-study)", default_factory=lambda: [0.04, 0.02, 0.01]
    )
    betas: list[float] = _key(_NUMBER_LIST, "comma-separated betas (limit-study)", default_factory=lambda: [1e-3])

    def resolved_sigma(self) -> float:
        if self.sigma is not None:
            return self.sigma
        return {"special-cases": 0.005, "triphoton-compare": 1e-3}.get(self.experiment, 0.01)

    def validate(self):
        if self.experiment not in RUNNERS:
            raise ConfigError("experiment", f"unknown experiment {self.experiment!r}")
        if self.mode not in ("exact", "regularized", "both"):
            raise ConfigError("mode", f"must be exact, regularized or both, got {self.mode!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError("format", f"must be csv or json, got {self.format!r}")
        for key, vals in (("angles", self.angles), ("sigmas", self.sigmas), ("betas", self.betas)):
            if not all(math.isfinite(v) for v in vals):
                raise ConfigError(key, "values must be finite numbers")
        # The model checks its knobs, under their own keys, on every experiment.
        _mrf_params(self, 0.0)
        # The angles the exact route evaluates: limit-study's target is exact too.
        exact_angles = []
        if self.experiment == "bell-sweep" and self.mode in ("exact", "both"):
            exact_angles = self.angles or DEFAULT_SWEEP
        if self.experiment == "limit-study":
            if len(self.angles) > 1:
                raise ConfigError("angles", f"limit-study takes one setting difference, got {len(self.angles)}")
            exact_angles = self.angles
        for d in exact_angles:
            if _mrf_params(self, d).degenerate:
                raise ConfigError(
                    "angles",
                    f"delta={d} deg is degenerate (equal/orthogonal settings); "
                    "exact mode cannot separate the point masses"
                    + (" -- use mode=regularized" if self.experiment == "bell-sweep" else ""),
                )
        if self.experiment == "limit-study":
            for key, vals in (("sigmas", self.sigmas), ("betas", self.betas)):
                if not vals:
                    raise ConfigError(key, "limit study needs at least one value")
                if len(set(vals)) != len(vals):
                    raise ConfigError(key, "values must be distinct")
            if len(self.sigmas) < 2 and len(self.betas) < 2:
                raise ConfigError("sigmas", "limit study needs at least two sigma or two beta values")
        if self.experiment == "malus-chain" and not self.angles:
            raise ConfigError("angles", "malus-chain needs at least one polarizer setting")
        if self.experiment == "triphoton-compare" and self.angles and len(self.angles) != 3:
            raise ConfigError("angles", "triphoton-compare takes exactly three settings (or none to scan)")


@dataclass
class ResultRow:
    experiment: str
    model: str  # MRF3-exact | MRF3-oracle | QM | Mstar
    params: dict
    value: float
    target: float | None
    runtime_ms: float

    def __post_init__(self):
        self.value = checked_probability(self.value)

    @property
    def abs_error(self) -> float | None:
        return None if self.target is None else abs(self.value - self.target)


def _fmt(x: float | None) -> str:
    return "" if x is None else format(x, ".12g")


def _timed(fn):
    # A runner that reaches numpy imports it before its first call, so no runtime_ms holds the import.
    t0 = time.perf_counter()
    value = fn()
    return value, (time.perf_counter() - t0) * 1e3


def _mrf_params(config: ExperimentConfig, delta_deg: float) -> Mrf3Params:
    return Mrf3Params(
        theta_a=PolAngle.from_degrees(delta_deg),
        theta_b=PolAngle.from_degrees(0.0),
        beta=config.beta,
        sigma=config.resolved_sigma(),
        grid_n=config.grid_n,
    )


def _run_bell_sweep(config: ExperimentConfig) -> list[ResultRow]:
    rows = []
    deltas = config.angles or DEFAULT_SWEEP
    if config.mode in ("regularized", "both"):
        import numpy  # noqa: F401
    for d in deltas:
        target = 0.5 * math.cos(math.radians(reduce_degrees(d))) ** 2
        params = _mrf_params(config, d)
        if config.mode in ("exact", "both"):
            value, ms = _timed(lambda: coincidence_probability(params, "exact").probability)
            rows.append(ResultRow(config.experiment, "MRF3-exact", {"delta_deg": d}, value, target, ms))
        if config.mode in ("regularized", "both"):
            value, ms = _timed(lambda: brute_force_oracle(params).probability)
            rows.append(ResultRow(config.experiment, "MRF3-oracle", {"delta_deg": d}, value, target, ms))
        value, ms = _timed(
            lambda: bell_coincidence_qm(PolAngle.from_degrees(d), PolAngle.from_degrees(0.0))
        )
        rows.append(ResultRow(config.experiment, "QM", {"delta_deg": d}, value, target, ms))
    return rows


def _run_special_cases(config: ExperimentConfig) -> list[ResultRow]:
    import numpy  # noqa: F401
    rows = []
    for d, target in ((0.0, 0.5), (90.0, 0.0)):
        params = _mrf_params(config, d)
        value, ms = _timed(lambda: brute_force_oracle(params).probability)
        rows.append(ResultRow(config.experiment, "MRF3-oracle", {"delta_deg": d}, value, target, ms))
        value, ms = _timed(
            lambda: bell_coincidence_qm(PolAngle.from_degrees(d), PolAngle.from_degrees(0.0))
        )
        rows.append(ResultRow(config.experiment, "QM", {"delta_deg": d}, value, target, ms))
    return rows


def _run_limit_study(config: ExperimentConfig) -> list[ResultRow]:
    delta = config.angles[0] if config.angles else 30.0
    base = _mrf_params(config, delta)
    exact = coincidence_probability(base, "exact").probability
    import numpy  # noqa: F401
    rows = []
    for beta in sorted(config.betas):
        previous: tuple[float, float] | None = None  # (sigma, value)
        for sigma in sorted(config.sigmas, reverse=True):
            # Each value is checked as the knob it sets, and the oracle checks its grid.
            try:
                params = replace(base, beta=beta, sigma=sigma)
                value, ms = _timed(lambda: brute_force_oracle(params).probability)
            except ConfigError as exc:
                raise ConfigError({"beta": "betas", "sigma": "sigmas"}.get(exc.key, exc.key), exc.reason) from None
            p: dict = {"delta_deg": delta, "sigma": sigma, "beta": beta}
            if previous is not None:
                s1, f1 = previous
                # kernel-width error shrinks quadratically
                p["richardson"] = value + (value - f1) * sigma**2 / (s1**2 - sigma**2)
            previous = (sigma, value)
            rows.append(ResultRow(config.experiment, "MRF3-oracle", p, value, exact, ms))
    return rows


def _run_malus_chain(config: ExperimentConfig) -> list[ResultRow]:
    settings = [PolAngle.from_degrees(d) for d in config.angles]
    initial = "unpolarized" if config.initial == "unpolarized" else PolAngle.from_degrees(float(config.initial))
    import numpy  # noqa: F401
    value, ms = _timed(lambda: malus_chain(initial, settings))
    params = {
        "initial": config.initial,
        "settings": ",".join(format(d, "g") for d in config.angles),
    }
    return [ResultRow(config.experiment, "QM", params, value, None, ms)]


def _triphoton_rows(config: ExperimentConfig, degs: Sequence[float]) -> list[ResultRow]:
    settings = tuple(PolAngle.from_degrees(d) for d in degs)
    params = _mrf_params(config, 0.0)  # its two settings are unused here
    p = {"phi1_deg": degs[0], "phi2_deg": degs[1], "phi3_deg": degs[2]}
    qm, ms_qm = _timed(lambda: triphoton_compare(settings, "M"))
    rows = [ResultRow(config.experiment, "QM", p, qm, None, ms_qm)]
    mstar, ms = _timed(lambda: triphoton_compare(settings, "Mstar", params))
    rows.append(ResultRow(config.experiment, "Mstar", p, mstar, qm, ms))
    mrf, ms = _timed(lambda: triphoton_compare(settings, "MRF", params))
    rows.append(ResultRow(config.experiment, "MRF3-oracle", p, mrf, qm, ms))
    return rows


def _run_triphoton(config: ExperimentConfig) -> list[ResultRow]:
    scan = [config.angles] if config.angles else itertools.product(TRIPHOTON_SCAN_DEGREES, repeat=3)
    return [row for degs in scan for row in _triphoton_rows(config, degs)]


RUNNERS = {
    "bell-sweep": _run_bell_sweep,
    "special-cases": _run_special_cases,
    "limit-study": _run_limit_study,
    "malus-chain": _run_malus_chain,
    "triphoton-compare": _run_triphoton,
}


def render_rows(rows: list[ResultRow], fmt: str) -> str:
    param_keys = sorted({k for r in rows for k in r.params})
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["experiment", "model", *param_keys, "value", "target", "abs_error", "runtime_ms"])
        for r in rows:
            cells = [_fmt(v) if isinstance(v := r.params.get(k, ""), float) else str(v) for k in param_keys]
            numbers = [_fmt(r.value), _fmt(r.target), _fmt(r.abs_error), format(r.runtime_ms, ".3f")]
            writer.writerow([r.experiment, r.model, *cells, *numbers])
        return buf.getvalue()
    objs = []
    for r in rows:
        obj = {"experiment": r.experiment, "model": r.model}
        # Floats go out as computed; json writes their shortest round-trip repr.
        obj.update((k, r.params.get(k)) for k in param_keys)
        target, abs_error = r.target, r.abs_error
        obj["value"] = float(r.value)
        obj["target"] = None if target is None else float(target)
        obj["abs_error"] = None if abs_error is None else float(abs_error)
        obj["runtime_ms"] = round(r.runtime_ms, 3)
        objs.append(obj)
    # One row object a line: ``indent`` would force the pure-Python encoder.
    return "[\n" + ",\n".join(map(json.dumps, objs)) + "\n]\n"


def run(config: ExperimentConfig) -> list[ResultRow]:
    """Validate, execute and write the experiment's table; returns the rows.

    A file gets the table as UTF-8 bytes, in one binary write, and so does
    stdout, whatever its text encoding; a stdout with no byte buffer gets
    the text.
    """
    config.validate()
    rows = RUNNERS[config.experiment](config)
    text = render_rows(rows, config.format)
    if config.output == "-":
        buffer = getattr(sys.stdout, "buffer", None)
        if buffer is None:
            sys.stdout.write(text)
        else:
            sys.stdout.flush()
            buffer.write(text.encode("utf-8"))
    else:
        try:
            with open(config.output, "wb") as out:
                out.write(text.encode("utf-8"))
        except OSError as exc:
            raise ConfigError("output", f"cannot write {config.output!r}: {exc}") from None
    return rows


# -- command line -----------------------------------------------------------------


def read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path!r}: {exc}") from None
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("config", f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise ConfigError(key, f"{path}:{lineno}: the key is given twice")
        values[key] = value.strip()
    return values


_READERS = {f.name: f.metadata["read"] for f in fields(ExperimentConfig)}


def build_config(file_values: dict[str, str], flag_values: dict[str, str]) -> ExperimentConfig:
    """The config of a file's key texts, then the flags' texts over them.

    Both go through the key's reader from :class:`ExperimentConfig`, so a
    flag and a file line with the same text give the same value, or the same
    :class:`ConfigError` naming the key.
    """
    merged: dict = {}
    for values in (file_values, flag_values):
        for key, raw in values.items():
            if key not in _READERS:
                raise ConfigError(key, "unknown configuration key")
            read, expected = _READERS[key]
            try:
                merged[key] = read(raw)
            except ValueError:
                raise ConfigError(key, f"cannot parse {raw!r} as {expected}") from None
    if "experiment" not in merged:
        raise ConfigError("experiment", "no experiment selected (bare word or config file)")
    return ExperimentConfig(**merged)


def read_argv(argv: Sequence[str]) -> dict[str, str] | None:
    """A command line's key texts, as :func:`read_config_file` gives a file's.

    A bare word is ``experiment``; ``--key value`` or ``--key=value`` is the
    key written with ``-`` for ``_`` and its text, the next word whatever it
    starts with, as a file line's value is whatever follows ``=``.  ``-h`` or
    ``--help`` in a flag's place gives None.  A key given twice is refused,
    as in a file; :func:`build_config` refuses unknown keys, so ``--ang``
    fails as a file line ``ang`` does.
    """
    values: dict[str, str] = {}
    words = iter(argv)
    for word in words:
        if word in ("-h", "--help"):
            return None
        flag = word.startswith("--")
        name, eq, text = word[2:].partition("=") if flag else ("experiment", "=", word)
        key = name.replace("-", "_")
        if "_" in name:
            raise ConfigError(key, f"unknown flag --{name}; a flag writes '-' for '_'")
        if key == "experiment" and (flag or key in values):
            raise ConfigError(key, f"{word!r}: one bare word names the experiment")
        if key in values:
            raise ConfigError(key, f"{word!r}: the key is given twice")
        if not eq and (text := next(words, None)) is None:
            raise ConfigError(key, f"the flag --{name} has no value")
        values[key] = text
    return values


def _help_text() -> str:
    """The ``-h`` listing: the experiments, then every key's flag and help."""
    lines = [
        "usage: bellfield <experiment> [--key value | --key=value ...] [--config FILE]",
        "",
        "experiments: " + ", ".join(RUNNERS),
        "",
        "keys, each a flag or a config-file line 'key = value' (the flag writes '-' for '_'):",
    ]
    for f in fields(ExperimentConfig):
        flag = "<experiment>" if f.name == "experiment" else "--" + f.name.replace("_", "-")
        lines.append(f"  {flag:<14} {f.metadata['help']}")
    lines.append(f"  {'--config FILE':<14} key = value config file; flags override its keys")
    return "\n".join(lines) + "\n"


def main(argv: Sequence[str] | None = None) -> int:
    try:
        flags = read_argv(sys.argv[1:] if argv is None else argv)
        if flags is None:
            sys.stdout.write(_help_text())
            return 0
        path = flags.pop("config", None)
        run(build_config(read_config_file(path) if path else {}, flags))
    except ConfigError as exc:
        print(f"configuration error: config key '{exc.key}': {exc.reason}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
