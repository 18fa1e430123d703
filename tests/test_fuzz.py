"""A seeded fuzz of the trial input contract.

Each case changes one file of the stride preset's trial (``markers.csv``,
``grf.csv`` or ``meta.json``) and runs ``sandgait analyze`` in process.  It
must end in exactly one of three ways:

- exit 0, with nothing on stderr but sandgait's own log lines and no
  Python warning;
- exit 1, with one ``ERROR`` line naming a path or a config key;
- exit 2, with one ``ERROR`` line holding a ``GaitError`` message, never
  an internal error.

A row dropped from the inside of a file, duplicated or swapped with
another is never exit 0.
"""
import contextlib
import dataclasses
import io
import json
import logging
import warnings

import numpy as np
import pytest

from sandgait.cli import main
from sandgait.pipeline import RunConfig

#: cases run of each kind of mutation
CASES = 25

_TABLES = ("markers.csv", "grf.csv")
_CONFIG_KEYS = [f.name for f in dataclasses.fields(RunConfig)]
#: a value of each JSON type: null, bool, number, string, array, object
_JSON_VALUES = [None, True, 0.5, "text", [1], {"k": 1}]


@pytest.fixture(scope="module")
def trial(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "trial"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--preset", "stride", "--out", str(out)]) == 0
    return {name: (out / name).read_text()
            for name in (*_TABLES, "meta.json")}


def _rows(text):
    lines = text.split("\n")
    return lines[0], [line.split(",") for line in lines[1:-1]]


def _join(header, rows):
    return "\n".join([header] + [",".join(r) for r in rows] + [""])


def _truncate(rng, trial):
    name = rng.choice([*_TABLES, "meta.json"])
    text = trial[name]
    return name, text[:int(rng.integers(1, len(text)))]


def _drop(rng, trial):
    name = rng.choice(_TABLES)
    header, rows = _rows(trial[name])
    k = int(rng.integers(1, 41))
    start = int(rng.integers(1, len(rows) - k))
    return name, _join(header, rows[:start] + rows[start + k:])


def _duplicate(rng, trial):
    name = rng.choice(_TABLES)
    header, rows = _rows(trial[name])
    i = int(rng.integers(len(rows)))
    return name, _join(header, rows[:i + 1] + rows[i:])


def _swap(rng, trial):
    name = rng.choice(_TABLES)
    header, rows = _rows(trial[name])
    i, j = rng.choice(len(rows), size=2, replace=False)
    rows[i], rows[j] = rows[j], rows[i]
    return name, _join(header, rows)


def _blank(rng, trial):
    name = rng.choice(_TABLES)
    header, rows = _rows(trial[name])
    col = int(rng.integers(len(rows[0])))
    k = int(rng.integers(1, 301))
    start = int(rng.integers(0, max(1, len(rows) - k)))
    for row in rows[start:start + k]:
        row[col] = ""
    return name, _join(header, rows)


def _constant(rng, trial):
    name = rng.choice(_TABLES)
    header, rows = _rows(trial[name])
    col = int(rng.integers(len(rows[0])))
    for row in rows:
        row[col] = rows[0][col]
    return name, _join(header, rows)


def _scale(rng, trial):
    name = rng.choice(_TABLES)
    header, rows = _rows(trial[name])
    col = int(rng.integers(len(rows[0])))
    factor = float(rng.choice([-1.0, 0.0, 1e-6, 1e3, 1e6]))
    for row in rows:
        row[col] = repr(float(row[col]) * factor)  # plain float text
    return name, _join(header, rows)


def _meta_type(rng, trial):
    meta = json.loads(trial["meta.json"])
    keys = [(meta, k) for k in meta] + [(meta["participant"], k)
                                        for k in meta["participant"]]
    doc, key = keys[int(rng.integers(len(keys)))]
    others = [v for v in _JSON_VALUES
              if type(v) is not type(doc[key])
              and not (isinstance(v, float) and type(doc[key]) is int)]
    doc[key] = others[int(rng.integers(len(others)))]
    return "meta.json", json.dumps(meta)


MUTATIONS = {"truncate": _truncate, "drop": _drop, "duplicate": _duplicate,
             "swap": _swap, "blank": _blank, "constant": _constant,
             "scale": _scale, "meta_type": _meta_type}
#: the kinds that leave a file off its time grid or out of order
_NEVER_OK = {"drop", "duplicate", "swap"}


class _Records(logging.Handler):
    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        self.records.append(record)


def _run(tmp_path, trial, name, text):
    """``sandgait analyze`` on the trial with ``name`` replaced by
    ``text``: the exit code, sandgait's ERROR lines, the Python warnings
    and the paths of the three trial files."""
    paths = {}
    for file, original in trial.items():
        paths[file] = tmp_path / file
        paths[file].write_text(text if file == name else original)
    log = logging.getLogger("sandgait")
    handler = _Records()
    log.addHandler(handler)
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["analyze", "--markers", str(paths["markers.csv"]),
                         "--grf", str(paths["grf.csv"]),
                         "--meta", str(paths["meta.json"]),
                         "--out", str(tmp_path / "bundle")])
    finally:
        log.removeHandler(handler)
    errors = [r.getMessage() for r in handler.records
              if r.levelno >= logging.ERROR]
    return code, errors, [str(w.message) for w in caught], paths.values()


@pytest.mark.parametrize("kind", MUTATIONS)
def test_mutation_keeps_the_exit_contract(tmp_path, capsys, trial, kind):
    rng = np.random.default_rng(list(MUTATIONS).index(kind))
    faults = []
    for case in range(CASES):
        name, text = MUTATIONS[kind](rng, trial)
        case_dir = tmp_path / str(case)
        case_dir.mkdir()
        code, errors, caught, paths = _run(case_dir, trial, name, text)
        # sandgait's own lines reach stderr where logging has no handler
        stderr = [line for line in capsys.readouterr().err.splitlines()
                  if not line.partition(" ")[2].startswith("sandgait: ")]
        if code == 0:
            ok = not errors and not caught and not stderr
            ok = ok and kind not in _NEVER_OK
        elif code == 1:
            ok = len(errors) == 1 and any(
                named in errors[0] for named in [*map(str, paths),
                                                 *_CONFIG_KEYS])
        else:
            ok = (code == 2 and len(errors) == 1
                  and not errors[0].startswith("internal error"))
        if not ok:
            faults.append(f"case {case} ({name}): exit {code}, errors "
                          f"{errors}, warnings {caught}, stderr {stderr}")
    assert not faults, "\n".join(faults)
