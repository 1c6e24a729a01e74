import argparse
import collections
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import complement_forge.catalog as catalog_module
from complement_forge.catalog import Catalog, CatalogError, CatalogIntegrityError, PAPER_BLOCKS
from complement_forge.cli import build_parser, main
from complement_forge.density import DensityParams, description_length
from complement_forge.fractal import build_density_spec
from complement_forge.solver import CoverInstance, CoverVerificationError, exact_min_complement, verify_complement
from complement_forge.ternary import BlockCode, PatternSet, enumerate_pattern, zero_one_pattern


@pytest.fixture()
def catalog(tmp_path, monkeypatch):
    monkeypatch.setenv("COMPLEMENT_FORGE_CATALOG", str(tmp_path / "cat"))
    return Catalog.default()


def test_seed_entries_verify(catalog):
    ids = catalog.ensure_seeded()
    assert len(ids) == 5
    for k in range(1, 6):
        entry, cert = catalog.best_complement(k)
        assert cert.verify()
        assert len(entry["values"]) == len(PAPER_BLOCKS[k])
        assert entry["provenance"]["source"] == "paper"
        assert entry["optimal"] == "unknown"  # no proof artifact shipped


def test_round_trip_and_tamper_detection(catalog):
    inst = CoverInstance(2, enumerate_pattern(zero_one_pattern(2)))
    cert = exact_min_complement(inst)
    entry_id = catalog.add_complement(cert, source="solver")
    loaded = catalog.load_entry(entry_id)
    assert loaded["optimal"] == "proven-optimal"
    # tamper with the stored code
    path = catalog._path(entry_id)
    data = json.loads(path.read_text())
    data["values"] = [0, 1, 2]
    path.write_text(json.dumps(data))
    with pytest.raises(CatalogIntegrityError):
        catalog.load_entry(entry_id)


def test_add_complement_rejects_thinned_base(catalog):
    # a code solved over a thinner base would re-verify against the {0,1}
    # pattern on load and keep that run's optimality flag, so it is refused
    thinned = PatternSet(3, (frozenset((0, 1)), frozenset((0, 1)), frozenset((0,))))
    cert = exact_min_complement(CoverInstance(3, enumerate_pattern(thinned)))
    with pytest.raises(CatalogError):
        catalog.add_complement(cert, source="solver")
    assert catalog.list_ids() == []


def test_ensure_seeded_leaves_stored_entries_untouched(catalog, monkeypatch):
    catalog.ensure_seeded()
    before = {p.name: p.read_bytes() for p in catalog.entries_dir.iterdir()}
    later = time.gmtime(time.time() + 86_400)
    monkeypatch.setattr(catalog_module.time, "gmtime", lambda *_: later)
    catalog.ensure_seeded()
    assert {p.name: p.read_bytes() for p in catalog.entries_dir.iterdir()} == before


def _forge(catalog, entry_id, edit):
    """Rewrite a stored entry through ``edit`` under the id its new content
    hashes to, as a careful forger would; returns that id."""
    data = json.loads(catalog._path(entry_id).read_text())
    edit(data)
    data["id"] = catalog_module._hash(catalog_module._core_fields(data))[:16]
    catalog._path(data["id"]).write_text(json.dumps(data))
    return data["id"]


def test_load_reverifies_an_entry_with_a_consistent_id(catalog):
    entry_id = catalog.ensure_seeded()[2]  # B3
    forged = _forge(catalog, entry_id, lambda d: d.update(values=[0, 2, 7, 12]))
    with pytest.raises(CoverVerificationError):
        catalog.load_entry(forged)


# The k=1 seed entry exactly as an earlier version wrote it, digest field included.
EARLIER_K1_ENTRY = {
    "digest": "63add19b40f170a4d7f869da6f78c01bfae4903a53256f970e83ea8d951a61b8",
    "gamma": {"card": 2, "k": 1, "value": 0.6309297535714574},
    "id": "a2af69a0aef6f2dd",
    "k": 1,
    "kind": "complement",
    "method": "external",
    "optimal": "unknown",
    "provenance": {"budget": None, "solver_version": "0.1.0", "source": "paper", "timestamp": "2026-10-18T05:28:13Z"},
    "range": [0, 3],
    "schema_version": 1,
    "values": [0, 1],
}


def test_entry_written_with_a_digest_keeps_its_id(catalog):
    catalog.entries_dir.mkdir(parents=True)
    catalog._path("a2af69a0aef6f2dd").write_text(json.dumps(EARLIER_K1_ENTRY))
    assert catalog.load_entry("a2af69a0aef6f2dd") == EARLIER_K1_ENTRY
    assert catalog.ensure_seeded()[0] == "a2af69a0aef6f2dd"
    assert json.loads(catalog._path("a2af69a0aef6f2dd").read_text()) == EARLIER_K1_ENTRY


def test_load_rederives_stored_gammas(catalog, capsys):
    entry_id = catalog.ensure_seeded()[3]  # B4
    forged = _forge(catalog, entry_id, lambda d: d["gamma"].update(value=0.123))
    with pytest.raises(CatalogIntegrityError):
        catalog.load_entry(forged)
    assert run_cli("gamma", "--id", forged) == 2
    assert "0.123" not in capsys.readouterr().out
    catalog._path(forged).unlink()
    run_cli("spec-build", "--kind", "uniform", "--k", "3")
    spec_id = catalog.find_spec("uniform-k3")["id"]
    forged = _forge(catalog, spec_id, lambda d: d["stages"][0]["gamma"].update(card=4))
    with pytest.raises(CatalogIntegrityError):
        catalog.load_entry(forged)


def test_scans_skip_an_entry_that_fails_reverification(catalog, capsys):
    entry_id = catalog.ensure_seeded()[3]  # B4
    forged = _forge(catalog, entry_id, lambda d: d["gamma"].update(value=0.123))
    assert run_cli("spec-build", "--kind", "uniform", "--k", "3") == 0
    err = capsys.readouterr().err
    assert err.count("warning") == 1 and forged in err
    assert run_cli("gamma", "--k", "4") == 0
    assert "0.123" not in capsys.readouterr().out
    for cmd in (("gamma", "--id", forged), ("verify", "--id", forged)):
        assert run_cli(*cmd) == 2
    with pytest.raises(CatalogIntegrityError):
        catalog.load_entry(forged)


def test_density_results_rederive_on_save_and_load(catalog):
    params = DensityParams.from_alpha("4/5")
    with pytest.raises(CatalogIntegrityError):
        catalog.add_density(params, n=1000, r=1, s=1, length=7)
    assert catalog.list_ids() == []
    dl = description_length(params, 1000)
    entry_id = catalog.add_density(params, 1000, dl.r, dl.s, dl.length)
    assert catalog.load_entry(entry_id)["r"] == dl.r
    for edit in (lambda d: d.update(r=d["r"] - 1), lambda d: d.update(encoding_length=7)):
        with pytest.raises(CatalogIntegrityError):
            catalog.load_entry(_forge(catalog, entry_id, edit))
    half = DensityParams.from_density("1/2")
    dl = description_length(half, 50)
    assert catalog.load_entry(catalog.add_density(half, 50, dl.r, dl.s, dl.length))["params"].startswith("D=1/2 ")


def test_report_loads_each_entry_at_most_once(catalog, monkeypatch, capsys):
    catalog.ensure_seeded()
    for k in (3, 4):
        inst = CoverInstance(k, enumerate_pattern(zero_one_pattern(k)))
        catalog.add_complement(exact_min_complement(inst), source="solver")
        for extra in range(1, 4):
            code = BlockCode.from_iterable(k, PAPER_BLOCKS[k] + (extra,))
            catalog.add_complement(verify_complement(inst, code), source="test")
    run_cli("spec-build", "--kind", "uniform", "--k", "3")
    run_cli("density", "--alpha", "0.8", "--n", "100")
    stored = catalog.list_ids()
    loads = collections.Counter()
    load_entry = Catalog.load_entry

    def counting_load(self, entry_id):
        loads[entry_id] += 1
        return load_entry(self, entry_id)

    monkeypatch.setattr(Catalog, "load_entry", counting_load)
    assert run_cli("report", "--all") == 0
    assert set(loads) <= set(stored) and max(loads.values()) == 1
    assert "B2 x B3: size 15 vs best 14" in capsys.readouterr().out


def test_spec_round_trip(catalog):
    params = DensityParams.from_alpha("0.8")
    spec = build_density_spec(params, 3)
    catalog.add_spec(spec, "quadratic-a4-5-s3", params=params.describe())
    entry = catalog.find_spec("quadratic-a4-5-s3")
    rebuilt = catalog.spec_from_entry(entry)
    assert [st.n for st in rebuilt.stages] == [1, 3, 5]
    assert [st.code.values for st in rebuilt.stages] == [st.code.values for st in spec.stages]


def test_best_complement_prefers_proofs(catalog):
    catalog.ensure_seeded()
    inst = CoverInstance(3, enumerate_pattern(zero_one_pattern(3)))
    catalog.add_complement(exact_min_complement(inst), source="solver")
    entry, _ = catalog.best_complement(3)
    assert entry["optimal"] == "proven-optimal"


def test_product_probe_via_catalog(catalog):
    catalog.ensure_seeded()
    rep = catalog.product_probe(2, 3)
    assert rep.product_size == 15 and rep.reference_size == 14
    assert rep.verdict == "suboptimal" and rep.covers


@pytest.mark.parametrize(
    "argv", [("gamma", "--k", "4"), ("report",), ("report", "--all")], ids=lambda argv: " ".join(argv)
)
def test_each_entry_is_verified_once_per_command(catalog, monkeypatch, capsys, argv):
    catalog.ensure_seeded()
    calls = []

    def counting_verify(*args, **kwargs):
        calls.append(args[1].k)
        return verify_complement(*args, **kwargs)

    monkeypatch.setattr(catalog_module, "verify_complement", counting_verify)
    assert run_cli(*argv) == 0
    assert sorted(calls) == [1, 2, 3, 4, 5]


# -- CLI ------------------------------------------------------------------------


def run_cli(*argv):
    return main(list(argv))


def test_cli_complement_and_verify(catalog, capsys):
    assert run_cli("complement", "--k", "3", "--method", "exact") == 0
    out = capsys.readouterr().out
    assert "size=5" in out and "proven-optimal" in out
    assert run_cli("verify", "--k", "3", "--values", "0,2,7,12,14") == 0
    assert run_cli("verify", "--k", "3", "--values", "000,002,021,110,112", "--ternary") == 0
    assert run_cli("verify", "--k", "3", "--values", "0,2,7,12") == 3
    out = capsys.readouterr().out
    assert "uncovered" in out


def test_cli_verify_id_checks_the_stored_range(catalog, capsys):
    assert run_cli("complement", "--k", "3", "--range", "signed", "--format", "json") == 0
    made = json.loads(capsys.readouterr().out)
    assert min(made["values"]) < 0  # outside the default range [0, 27)
    assert run_cli("verify", "--id", made["catalog_id"], "--format", "json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["ok"], doc["k"], doc["size"]) == (True, 3, made["size"])
    # --range belongs to --values; an entry carries its own range
    assert run_cli("verify", "--id", made["catalog_id"], "--range", "signed") == 2
    assert "--range" in capsys.readouterr().err
    values = "--values=" + ",".join(map(str, made["values"]))
    assert run_cli("verify", "--k", "3", values) == 2
    assert run_cli("verify", "--k", "3", values, "--range", "signed") == 0


def test_cli_verify_reads_values_that_start_with_a_minus(catalog, capsys):
    assert run_cli("complement", "--k", "3", "--range", "signed", "--format", "json") == 0
    values = ",".join(map(str, json.loads(capsys.readouterr().out)["values"]))
    assert values.startswith("-")
    assert run_cli("verify", "--k", "3", "--values", values, "--range", "signed") == 0
    assert run_cli("verify", "--k", "3", "--values", values) == 2  # outside the default range


@pytest.mark.parametrize(
    "argv, extra",
    [
        (("gamma", "--k", "5"), "--k"),
        (("verify", "--k", "5"), "--k"),
        (("verify", "--values", "1,2"), "--values"),
        (("verify", "--ternary"), "--ternary"),
        (("verify", "--k", "5", "--values", "1,2", "--ternary"), "--k, --values, --ternary"),
    ],
)
def test_cli_id_rejects_the_flags_of_an_inline_code(catalog, capsys, argv, extra):
    entry_id = catalog.ensure_seeded()[2]  # B3
    assert run_cli(argv[0], "--id", entry_id, *argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"drop {extra}" in captured.err


def test_cli_gamma_and_verify_by_id(catalog, capsys):
    entry_id = catalog.ensure_seeded()[3]  # B4
    assert run_cli("gamma", "--id", entry_id, "--format", "json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"] == 4
    assert doc["gamma"] == catalog.load_entry(entry_id)["gamma"]
    assert doc["gamma"] == {"card": 9, "k": 4, "value": math.log(9) / (4 * math.log(3))}
    assert run_cli("verify", "--id", entry_id, "--format", "json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["ok"], doc["k"], doc["size"]) == (True, 4, 9)
    assert run_cli("spec-build", "--kind", "uniform", "--k", "3") == 0
    spec_id = catalog.find_spec("uniform-k3")["id"]
    capsys.readouterr()
    for cmd in ("gamma", "verify"):
        assert run_cli(cmd, "--id", spec_id) == 2
        assert f"entry {spec_id} is a spec entry, not a complement" in capsys.readouterr().err


def test_cli_exit_codes(catalog, capsys):
    assert run_cli("complement", "--k", "0") == 2  # invalid input
    assert (
        run_cli("complement", "--k", "4", "--method", "exact", "--budget-nodes", "10") == 4
    )  # budget exhausted
    with pytest.raises(SystemExit) as ei:
        run_cli("no-such-command")
    assert ei.value.code == 2


def test_cli_decompose_paper_example(catalog, capsys):
    assert run_cli("decompose", "--x", "0.020", "--spec", "uniform-k3", "--depth", "3") == 0
    out = capsys.readouterr().out
    assert "a=011 b=002" in out
    assert "exact: True" in out


def test_cli_density_json_deterministic(catalog, capsys):
    args = ("density", "--alpha", "0.8", "--n", "500", "--format", "json")
    assert run_cli(*args) == 0
    first = capsys.readouterr().out
    assert run_cli(*args) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-identical for identical args
    doc = json.loads(first)
    assert doc["schema"] == "complement-forge/1"
    assert doc["prefix_match"] is True


def test_cli_gamma_and_report(catalog, capsys):
    assert run_cli("gamma", "--k", "3") == 0
    out = capsys.readouterr().out
    assert "0.488325" in out
    assert run_cli("report", "--all") == 0
    out = capsys.readouterr().out
    for fragment in ("1     2", "2     3", "3     5", "4     9", "5    14"):
        assert fragment in out
    assert "B2 x B3: size 15 vs best 14" in out


def test_cli_boxdim_csv(catalog, capsys, tmp_path):
    target = tmp_path / "est.csv"
    assert run_cli("boxdim", "--set", "cantor", "--depth", "12", "--format", "csv", "--out", str(target)) == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "scale,count,estimate"
    assert len(lines) == 13


def test_cli_netcheck_and_massratio(catalog, capsys):
    assert run_cli("netcheck", "--trials", "30", "--max-level", "6", "--seed", "5") == 0
    out = capsys.readouterr().out
    assert "violations: 0" in out
    assert run_cli("massratio", "--alpha", "0.8", "--levels", "5:9", "--samples", "5", "--seed", "3") == 0
    out = capsys.readouterr().out
    assert "bound violations: 0" in out


def test_cli_spec_build_quadratic(catalog, capsys):
    assert run_cli("spec-build", "--kind", "quadratic", "--alpha", "0.8", "--stages", "3") == 0
    out = capsys.readouterr().out
    assert "quadratic-a4-5-s3" in out
    assert run_cli("decompose", "--x", "0.2", "--spec", "quadratic-a4-5-s3", "--depth", "2") == 0


def test_cli_netcheck_rejects_zero_denominator(catalog, capsys):
    assert run_cli("netcheck", "--s", "1/0", "--trials", "1") == 2
    assert "--s" in capsys.readouterr().err


def test_cli_netcheck_rejects_empty_inputs(catalog, capsys):
    assert run_cli("netcheck", "--trials", "0") == 2
    assert "--trials" in capsys.readouterr().err
    for level in ("0", "1"):
        assert run_cli("netcheck", "--max-level", level, "--trials", "1") == 2
        assert "max_level" in capsys.readouterr().err


def test_cli_spec_build_rejects_flags_of_the_other_kind(catalog, capsys):
    assert run_cli("spec-build", "--kind", "uniform", "--k", "3", "--alpha", "0.8") == 2
    assert run_cli("spec-build", "--kind", "uniform", "--k", "3", "--stages", "9") == 2
    assert run_cli("spec-build", "--kind", "quadratic", "--alpha", "0.8", "--stages", "3", "--k", "3") == 2
    assert "not --k" in capsys.readouterr().err


def test_cli_massratio_rejects_empty_inputs(catalog, capsys):
    assert run_cli("massratio", "--alpha", "0.8", "--samples", "0") == 2
    assert "--samples" in capsys.readouterr().err
    assert run_cli("massratio", "--alpha", "0.8", "--levels", "5:4") == 2
    assert "--levels" in capsys.readouterr().err


def test_cli_import_leaves_numpy_and_mpmath_unloaded():
    # only the solvers and density's rare fallback need them, so every command
    # pays for them only when it runs that code; the exact solver's dual
    # weights come from numpy alone, so scipy is never loaded
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, complement_forge.cli as cli; print(sorted({'numpy', 'mpmath'} & set(sys.modules)));"
        "from complement_forge import solver, ternary;"
        "cert = solver.exact_min_complement(solver.CoverInstance(4, ternary.zero_one_base(4)));"
        "print(cert.optimal, 'scipy' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "proven-optimal False"]


# -- parser surface: every flag a subcommand accepts is one it reads -------------

SUBCOMMAND_FLAGS = {
    "complement": {"--k", "--method", "--range", "--budget-nodes", "--budget-secs", "--out", "--format"},
    "verify": {"--id", "--k", "--values", "--ternary", "--range", "--out", "--format"},
    "gamma": {"--k", "--id", "--out", "--format"},
    "spec-build": {"--kind", "--k", "--alpha", "--stages", "--out", "--format"},
    "decompose": {"--x", "--spec", "--depth", "--out", "--format"},
    "density": {"--alpha", "--n", "--out", "--format"},
    "boxdim": {"--set", "--spec", "--alpha", "--depth", "--out", "--format"},
    "netcheck": {"--trials", "--max-level", "--s", "--seed", "--out", "--format"},
    "massratio": {"--alpha", "--levels", "--samples", "--seed", "--out", "--format"},
    "report": {"--all", "--out", "--format"},
}


def test_cli_flags_per_subcommand():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert flags == SUBCOMMAND_FLAGS
    assert sum(map(len, flags.values())) == 54
    formats = {name: p._option_string_actions["--format"].choices for name, p in sub.choices.items()}
    for name, choices in formats.items():
        csv = ("csv",) if name in ("density", "boxdim") else ()
        assert tuple(choices) == ("text", "json", *csv), name


def test_readme_lists_the_flags_each_subcommand_accepts():
    # the README's per-command bullets leave out the --out and --format every command takes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    bullets = re.findall(r"^- `([a-z-]+)`: (.*?)\n(?=- |\n)", readme, re.M | re.S)
    documented = {name: set(re.findall(r"--[a-z][a-z-]*", text)) for name, text in bullets}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help", "--out", "--format"}
        for name, p in sub.choices.items()
    }
    assert len(bullets) == len(accepted) == 10
    assert documented == accepted


@pytest.mark.parametrize(
    "argv",
    [
        ("gamma", "--k", "3", "--seed", "1"),
        ("report", "--format", "csv"),
        ("verify", "--k", "3", "--values", "0", "--budget-nodes", "5"),
        ("complement", "--k", "3", "--enumeration-cap", "9"),
        ("boxdim", "--set", "cantor", "--alpha", "0.8", "--depth", "5"),
        ("boxdim", "--spec", "uniform-k3", "--alpha", "0.8", "--depth", "5"),
        ("boxdim", "--set", "cantor", "--spec", "uniform-k3", "--depth", "5"),
    ],
)
def test_cli_rejects_flags_the_command_does_not_read(catalog, argv):
    with pytest.raises(SystemExit) as ei:
        run_cli(*argv)
    assert ei.value.code == 2
