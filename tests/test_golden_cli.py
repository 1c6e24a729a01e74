"""Golden output of the README commands.

Runs the twelve commands from the README's "Command line" section, in README
order, against one fresh catalog, each in --format json and in text, and
compares stdout byte for byte with the files under tests/golden/.  The
README's boxdim command writes CSV to --out; three more cases cover the other
CSV branches (density, boxdim --set, boxdim --spec) on stdout.

Regenerate the golden files after an intended output change with
``PYTHONPATH=src python tests/test_golden_cli.py`` and review the diff.
"""

import contextlib
import io
import os
import shlex
import tempfile
from pathlib import Path

import pytest

from complement_forge.catalog import PAPER_BLOCKS, Catalog
from complement_forge.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"

README_COMMANDS = [
    ("complement-k3-exact", ["complement", "--k", "3", "--method", "exact"]),
    ("complement-k6-greedy", ["complement", "--k", "6", "--method", "greedy"]),
    ("verify-k3-ternary", ["verify", "--k", "3", "--values", "000,002,021,110,112", "--ternary"]),
    ("gamma-k4", ["gamma", "--k", "4"]),
    ("spec-build-uniform-k3", ["spec-build", "--kind", "uniform", "--k", "3"]),
    ("spec-build-quadratic", ["spec-build", "--kind", "quadratic", "--alpha", "0.8", "--stages", "4"]),
    ("decompose-uniform-k3", ["decompose", "--x", "0.020", "--spec", "uniform-k3", "--depth", "3"]),
    ("density-a08", ["density", "--alpha", "0.8", "--n", "10000"]),
    ("boxdim-a08", ["boxdim", "--alpha", "0.8", "--depth", "10000"]),
    ("netcheck", ["netcheck", "--trials", "200", "--max-level", "8", "--seed", "0"]),
    ("massratio-a08", ["massratio", "--alpha", "0.8", "--levels", "5:15", "--samples", "50"]),
    ("report-all", ["report", "--all"]),
]

CSV_STDOUT_COMMANDS = [
    ("density-a08-n200", ["density", "--alpha", "0.8", "--n", "200"]),
    ("boxdim-cantor", ["boxdim", "--set", "cantor", "--depth", "12"]),
    ("boxdim-uniform-k3", ["boxdim", "--spec", "uniform-k3", "--depth", "30"]),
]


def _run_all(tmp_path, read_stdout):
    """(golden file name, exit code, output) for every case, in run order."""
    results = []

    def run(name, argv):
        code = main(argv)
        results.append((name, code, read_stdout()))

    for name, argv in README_COMMANDS:
        run(f"{name}.json", argv + ["--format", "json"])
        run(f"{name}.txt", argv)
        if name == "boxdim-a08":
            out = tmp_path / "ca.csv"
            code = main(argv + ["--format", "csv", "--out", str(out)])
            assert read_stdout() == ""
            results.append((f"{name}.csv", code, out.read_text()))
    for name, argv in CSV_STDOUT_COMMANDS:
        run(f"{name}.csv", argv + ["--format", "csv"])
    return results


@pytest.fixture()
def catalog_env(tmp_path, monkeypatch):
    monkeypatch.setenv("COMPLEMENT_FORGE_CATALOG", str(tmp_path / "cat"))


def test_readme_commands_match_golden(catalog_env, tmp_path, capsys):
    for name, code, out in _run_all(tmp_path, lambda: capsys.readouterr().out):
        assert code == 0, name
        assert out == (GOLDEN / name).read_text(), name
    # every entry the session stored re-verifies in a catalog that has not seen it
    fresh = Catalog.default()
    assert len(fresh.list_ids()) > len(PAPER_BLOCKS)
    for entry_id in fresh.list_ids():
        fresh.load_entry(entry_id)


def test_readme_command_lines_parse():
    # README_COMMANDS above is copied by hand; this keeps the README itself
    # from drifting away from the parser.
    block = README.read_text().split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("complement-forge ")]
    assert len(lines) == len(README_COMMANDS)
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def _regenerate() -> None:
    buf = io.StringIO()

    def read_stdout():
        out = buf.getvalue()
        buf.seek(0)
        buf.truncate()
        return out

    with tempfile.TemporaryDirectory() as tmp:
        os.environ["COMPLEMENT_FORGE_CATALOG"] = str(Path(tmp) / "cat")
        with contextlib.redirect_stdout(buf):
            results = _run_all(Path(tmp), read_stdout)
    GOLDEN.mkdir(exist_ok=True)
    for name, code, out in results:
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        (GOLDEN / name).write_text(out)
    print(f"wrote {len(results)} golden files to {GOLDEN}")


if __name__ == "__main__":
    _regenerate()
