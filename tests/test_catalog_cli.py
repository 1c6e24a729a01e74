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
import complement_forge.density as density_module
import complement_forge.fractal as fractal_module
from complement_forge.catalog import Catalog, CatalogError, CatalogIntegrityError, PAPER_BLOCKS
from complement_forge.cli import build_parser, main
from complement_forge.density import DensityParams, description_length
from complement_forge.fractal import build_density_spec, build_uniform_spec
from complement_forge.solver import CoverInstance, CoverVerificationError, exact_min_complement, verify_complement
from complement_forge.ternary import BlockCode, PatternSet, concat_codes, enumerate_pattern, zero_one_base, zero_one_pattern


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


def test_cli_verify_id_of_a_forged_entry_exits_3(catalog, capsys):
    # the entry's id matches its content, so only the re-check refuses it
    entry_id = catalog.ensure_seeded()[2]  # B3
    forged = _forge(catalog, entry_id, lambda d: d.update(values=[0, 2, 7, 12]))
    assert run_cli("verify", "--id", forged) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "verification failed: 3 uncovered target values: 18, 23, 26" in captured.err


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
    spec_id = catalog.find_spec("uniform-k3")[0]["id"]
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
    entry, rebuilt = catalog.find_spec("quadratic-a4-5-s3")
    assert entry["name"] == "quadratic-a4-5-s3"
    assert [st.n for st in rebuilt.stages] == [1, 3, 5]
    assert [st.code.values for st in rebuilt.stages] == [st.code.values for st in spec.stages]


def _all_translates_over_zero(stage):
    """Rewrite a stored stage to the pattern {0} everywhere with every
    translate as its code, a cover of that pattern with a matching gamma."""
    n = stage["n"]
    stage.update(pattern=[[0]] * n, values=list(range(3**n)), gamma=catalog_module._gamma_json(3**n, n))


def _uniform_k3(catalog):
    assert run_cli("spec-build", "--kind", "uniform", "--k", "3") == 0
    return catalog.find_spec("uniform-k3")[0]["id"]


def _quadratic_s3(catalog):
    params = DensityParams.from_alpha("0.8")
    return catalog.add_spec(build_density_spec(params, 3), "quadratic-a4-5-s3", params=params.describe())


def _density_a45(catalog):
    params = DensityParams.from_alpha("4/5")
    dl = description_length(params, 1000)
    return catalog.add_density(params, 1000, dl.r, dl.s, dl.length)


@pytest.mark.parametrize(
    "store, edit",
    [
        (_uniform_k3, lambda d: _all_translates_over_zero(d["stages"][0])),
        (_quadratic_s3, lambda d: _all_translates_over_zero(d["stages"][1])),
        (lambda catalog: catalog.ensure_seeded()[2], lambda d: d.update(note="checked by hand")),
        (_density_a45, lambda d: d.update(params="alpha=4/5 (D=0.999999)")),
    ],
    ids=["uniform-stage-pattern", "quadratic-stage-pattern", "complement-extra-core-field", "density-float-view"],
)
def test_load_refuses_an_id_consistent_forgery(catalog, store, edit):
    forged = _forge(catalog, store(catalog), edit)
    with pytest.raises(CatalogIntegrityError):
        Catalog.default().load_entry(forged)


def _quadratic_s8(data):
    data["stages"] += [data["stages"][-1]] * 5


@pytest.mark.parametrize(
    "store, edit",
    [
        (lambda catalog: catalog.ensure_seeded()[2], lambda d: d.update(k=40)),
        (lambda catalog: catalog.ensure_seeded()[2], lambda d: d.update(k=14)),
        (_uniform_k3, lambda d: d["stages"][0].update(n=40)),
        (_quadratic_s3, _quadratic_s8),
    ],
    ids=["complement-k40", "complement-k14", "uniform-stage-n40", "quadratic-8-stages"],
)
def test_load_refuses_a_block_length_past_the_cap_before_enumerating(catalog, monkeypatch, capsys, store, edit):
    # an id-consistent entry with k = 40 would list 2^40 base values; the
    # stored length is refused first, so no enumerator sees more than 13 digits
    forged = _forge(catalog, store(catalog), edit)
    seen = []

    def capped(real, length):
        def enumerate_at_most_13(arg, *rest):
            seen.append(length(arg, *rest))
            assert seen[-1] <= 13, f"enumerator reached with block length {seen[-1]}"
            return real(arg, *rest)

        return enumerate_at_most_13

    for module, name, length in (
        (catalog_module, "zero_one_base", lambda k: k),
        (catalog_module, "zero_one_pattern", lambda k: k),
        (catalog_module, "enumerate_pattern", lambda pattern: pattern.k),
        (fractal_module, "density_patterns", lambda params, stages: 2 * stages - 1),
    ):
        monkeypatch.setattr(module, name, capped(getattr(module, name), length))
    with pytest.raises(CatalogIntegrityError, match=r"outside \[1, 13\]"):
        Catalog.default().load_entry(forged)
    capsys.readouterr()
    assert run_cli("report") == 0
    assert forged in capsys.readouterr().err
    assert seen and max(seen) <= 13


def test_a_quadratic_spec_is_stored_with_its_params_and_a_uniform_one_without(catalog):
    params = DensityParams.from_alpha("0.8")
    with pytest.raises(CatalogError):
        catalog.add_spec(build_density_spec(params, 2), "quadratic-a4-5-s2")
    with pytest.raises(CatalogError):
        b2 = verify_complement(CoverInstance(2, zero_one_base(2)), BlockCode(2, PAPER_BLOCKS[2]))
        catalog.add_spec(build_uniform_spec(2, b2), "uniform-k2", params=params.describe())
    assert not catalog.entries("spec")


def test_scans_skip_entries_that_are_no_object_or_have_unreadable_params(catalog, capsys):
    seeds = catalog.ensure_seeded()
    unreadable = _forge(catalog, _density_a45(catalog), lambda d: d.update(params="alpha=1/0 (D=0.327)"))
    catalog._path("0000000000000000").write_text("[1, 2]")
    for bad in ("0000000000000000", unreadable):
        with pytest.raises(CatalogIntegrityError):
            Catalog.default().load_entry(bad)
        assert run_cli("gamma", "--id", bad) == 2
    capsys.readouterr()
    for argv in (("gamma", "--k", "3"), ("report",)):
        assert run_cli(*argv) == 0
        err = capsys.readouterr().err
        assert err.count("warning") == 2 and "0000000000000000" in err and unreadable in err
    assert run_cli("gamma", "--id", seeds[2]) == 0


def test_scans_skip_an_entry_file_that_cannot_be_read(catalog, capsys):
    # a directory where an entry file should be is one bad entry, not a
    # reason for every scan to stop; by id it is refused as damaged
    seeds = catalog.ensure_seeded()
    unreadable = "0123456789abcdef"
    catalog._path(unreadable).mkdir()
    with pytest.raises(CatalogIntegrityError, match=unreadable):
        Catalog.default().load_entry(unreadable)
    with pytest.raises(CatalogError, match="no catalog entry") as missing:
        Catalog.default().load_entry("fedcba9876543210")
    assert not isinstance(missing.value, CatalogIntegrityError)
    for argv in (("gamma", "--id", unreadable), ("verify", "--id", unreadable)):
        assert run_cli(*argv) == 2
    capsys.readouterr()
    for argv in (("gamma", "--k", "3"), ("report",)):
        assert run_cli(*argv) == 0
        err = capsys.readouterr().err
        assert err.count("warning") == 1 and unreadable in err
    assert run_cli("gamma", "--id", seeds[2]) == 0


def test_an_id_that_is_no_entry_id_is_refused_before_any_read(catalog, capsys, monkeypatch):
    # every stored id is 16 lowercase hex digits, so anything else is refused
    # before a path is built: "../" never reaches a file outside the catalog
    outside = catalog.root.parent / "outside"
    outside.mkdir()
    (outside / "x.json").write_text("{}")
    reads = []
    read_text = Path.read_text

    def spy(path, *args, **kwargs):
        reads.append(path)
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", spy)
    for bad in ("../../outside/x", "0123456789ABCDEF", "0123456789abcde", "0123456789abcdef0", "0123456789abcdeg"):
        with pytest.raises(CatalogError, match="not a catalog entry id"):
            catalog.load_entry(bad)
        for cmd in ("gamma", "verify"):
            assert run_cli(cmd, "--id", bad) == 2
            assert f"catalog error: not a catalog entry id: {bad!r}" in capsys.readouterr().err
    assert reads == []


def test_an_entry_file_that_is_not_utf8_json_is_named(catalog, capsys):
    # by id it is refused as damaged, naming the entry; a scan skips it
    seeds = catalog.ensure_seeded()
    not_utf8, not_json = "00000000000000ff", "0000000000000abc"
    catalog._path(not_utf8).write_bytes(b"\xff{}")
    catalog._path(not_json).write_text("{'id': 1}")
    for bad in (not_utf8, not_json):
        with pytest.raises(CatalogIntegrityError, match=f"entry {bad}: unreadable"):
            Catalog.default().load_entry(bad)
        assert run_cli("verify", "--id", bad) == 2
        assert f"catalog error: entry {bad}: unreadable: " in capsys.readouterr().err
    for argv in (("gamma", "--k", "3"), ("report",)):
        assert run_cli(*argv) == 0
        err = capsys.readouterr().err
        assert err.count("warning") == 2 and not_utf8 in err and not_json in err
    assert run_cli("gamma", "--id", seeds[2]) == 0


def test_a_seed_file_that_cannot_be_written_is_skipped(catalog, capsys):
    # a directory at a seed's path is one seed left out with one warning,
    # not a reason for every seeding command to stop; a failed write names
    # the entry and leaves no temp file
    seed = "a2af69a0aef6f2dd"  # k=1
    catalog._path(seed).mkdir(parents=True)
    cert = verify_complement(CoverInstance(1, zero_one_base(1)), BlockCode(1, PAPER_BLOCKS[1]))
    with pytest.raises(CatalogIntegrityError, match=f"entry {seed}: cannot be written"):
        catalog.add_complement(cert, source="paper")
    assert len(catalog.ensure_seeded()) == 4
    assert capsys.readouterr().err.count("warning") == 1
    assert run_cli("gamma", "--k", "3") == 0
    err = capsys.readouterr().err
    assert err.count("warning") == 1 and seed in err
    assert run_cli("gamma", "--k", "1") == 2
    assert "no complement entry for k=1" in capsys.readouterr().err
    assert [p.name for p in catalog.entries_dir.iterdir() if p.suffix != ".json"] == []


def test_reseeding_replaces_a_damaged_seed_file(catalog, capsys):
    entry_id = catalog.ensure_seeded()[2]  # B3
    path = catalog._path(entry_id)
    damaged = json.loads(path.read_text())
    damaged["values"] = [0, 2, 7, 12]
    path.write_text(json.dumps(damaged))
    for argv in (("gamma", "--k", "3"), ("report",), ("gamma", "--k", "3")):
        assert run_cli(*argv) == 0
        assert "warning" not in capsys.readouterr().err
    assert Catalog.default().load_entry(entry_id)["values"] == list(PAPER_BLOCKS[3])


def test_best_complement_prefers_proofs(catalog):
    catalog.ensure_seeded()
    inst = CoverInstance(3, enumerate_pattern(zero_one_pattern(3)))
    catalog.add_complement(exact_min_complement(inst), source="solver")
    entry, _ = catalog.best_complement(3)
    assert entry["optimal"] == "proven-optimal"


def test_product_probe_via_catalog(catalog, capsys):
    catalog.ensure_seeded()
    assert run_cli("report", "--all", "--format", "json") == 0
    rep = json.loads(capsys.readouterr().out)["probes"][1]
    assert (rep["k1"], rep["k2"]) == (2, 3)
    assert rep["product_size"] == 15 and rep["reference_size"] == 14
    assert rep["verdict"] == "suboptimal" and rep["covers"]


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
    spec_id = catalog.find_spec("uniform-k3")[0]["id"]
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


def test_cli_budgeted_k5_search_is_not_charged_for_the_chain(catalog, capsys):
    # the digit-split chain's searches at k <= 4 take nodes of their own, so
    # a 2,000-node k=5 search still stops at its cap, short of 14
    assert run_cli("complement", "--k", "5", "--method", "exact", "--budget-nodes", "2000", "--format", "json") == 4
    doc = json.loads(capsys.readouterr().out)
    assert (doc["size"], doc["optimal"]) == (15, "unknown")


@pytest.mark.parametrize(
    "argv, k_max",
    [
        (("--k", "20"), 13),
        (("--k", "14", "--range", "signed"), 13),
        (("--k", "20", "--method", "exact"), 8),
        (("--k", "9", "--method", "exact", "--budget-nodes", "1"), 8),
    ],
)
def test_cli_complement_refuses_an_oversized_k(catalog, capsys, monkeypatch, argv, k_max):
    # the greedy at k=20 would allocate over 100 GB before its first step, and
    # the exact search's table grows as 6^k; the refusal comes before either
    # solver runs and before the catalog opens
    import complement_forge.cli as cli

    def unreachable(*args, **kwargs):
        raise AssertionError("solver reached")

    monkeypatch.setattr(cli, "greedy_complement", unreachable)
    monkeypatch.setattr(cli, "exact_min_complement", unreachable)
    assert run_cli("complement", *argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"--k must be between 1 and {k_max}" in captured.err
    assert not catalog.root.exists()


def test_cli_verify_refuses_a_k_past_13(catalog, capsys, monkeypatch):
    # a check lists up to 3^k targets, about three times the time and memory
    # per step in k; no stored or greedy code is longer than 13
    import complement_forge.cli as cli

    def unreachable(*args, **kwargs):
        raise AssertionError("check reached")

    monkeypatch.setattr(cli, "verify_complement", unreachable)
    assert run_cli("verify", "--k", "14", "--values", "0") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--k must be between 1 and 13, not 14" in captured.err
    assert not catalog.root.exists()


@pytest.mark.parametrize(
    "argv, flags",
    [
        (("--method", "exact", "--budget-secs", "nan"), "--budget-secs"),
        (("--method", "exact", "--budget-secs", "inf"), "--budget-secs"),
        (("--method", "exact", "--budget-secs=-inf"), "--budget-secs"),
        (("--method", "exact", "--budget-secs", "0"), "--budget-secs"),
        (("--method", "exact", "--budget-nodes", "0"), "--budget-nodes"),
        (("--method", "greedy", "--budget-nodes", "5", "--budget-secs", "1"), "--budget-nodes, --budget-secs"),
        (("--budget-secs", "1"), "--budget-secs"),  # the greedy is the default method
    ],
)
def test_cli_complement_refuses_budgets_it_cannot_honour(catalog, capsys, argv, flags):
    # a NaN deadline is never passed, NaN and inf are not JSON, and the greedy
    # reads neither budget: each is invalid input and stores nothing
    assert run_cli("complement", "--k", "3", "--method", "exact") == 0
    before = sorted(catalog.root.rglob("*"))
    capsys.readouterr()
    assert run_cli("complement", "--k", "3", *argv) == 2
    assert flags in capsys.readouterr().err
    assert sorted(catalog.root.rglob("*")) == before


def test_cli_complement_records_only_the_budgets_it_read(catalog, capsys):
    provenance = {}
    for method in ("greedy", "exact"):
        assert run_cli("complement", "--k", "3", "--method", method, "--format", "json") == 0
        entry_id = json.loads(capsys.readouterr().out)["catalog_id"]
        provenance[method] = catalog.load_entry(entry_id)["provenance"]["budget"]
    assert provenance == {"greedy": None, "exact": {"nodes": None, "secs": 600.0}}
    # entry ids leave provenance out, so this run stores a code of its own range
    args = ("complement", "--k", "3", "--range", "signed", "--method", "exact", "--budget-nodes", "5000")
    assert run_cli(*args, "--budget-secs", "30", "--format", "json") == 0
    entry_id = json.loads(capsys.readouterr().out)["catalog_id"]
    assert catalog.load_entry(entry_id)["provenance"]["budget"] == {"nodes": 5000, "secs": 30.0}


def test_cli_decompose_paper_example(catalog, capsys):
    assert run_cli("decompose", "--x", "0.020", "--spec", "uniform-k3", "--depth", "3") == 0
    out = capsys.readouterr().out
    assert "a=011 b=002" in out
    assert "exact: True" in out


def test_cli_decompose_bad_x_leaves_catalog_untouched(catalog, capsys):
    # --x is parsed before the spec is resolved, which seeds the catalog
    run_cli("density", "--alpha", "0.8", "--n", "100")
    before = sorted(catalog.root.rglob("*"))
    assert len(before) == 2  # entries/ and the density entry
    assert run_cli("decompose", "--x", "0.13", "--spec", "uniform-k3", "--depth", "2") == 2
    assert "0.13" in capsys.readouterr().err
    assert sorted(catalog.root.rglob("*")) == before
    # a literal with no digit is not 0
    assert run_cli("decompose", "--x", "", "--spec", "uniform-k3", "--depth", "1") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not a ternary literal" in captured.err
    assert sorted(catalog.root.rglob("*")) == before


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
        assert "--max-level" in capsys.readouterr().err


def test_cli_netcheck_refuses_a_max_level_past_16(catalog, capsys):
    # a trial at level L holds up to 2^(L-1) atoms; seed 2's one trial draws
    # level 3, so only the refusal keeps this from running
    assert run_cli("netcheck", "--max-level", "16", "--trials", "1", "--seed", "2") == 0
    capsys.readouterr()
    assert run_cli("netcheck", "--max-level", "17", "--trials", "1", "--seed", "2") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--max-level must be between 2 and 16, not 17" in captured.err


def test_cli_spec_build_rejects_flags_of_the_other_kind(catalog, capsys):
    assert run_cli("spec-build", "--kind", "uniform", "--k", "3", "--alpha", "0.8") == 2
    assert run_cli("spec-build", "--kind", "uniform", "--k", "3", "--stages", "9") == 2
    assert run_cli("spec-build", "--kind", "quadratic", "--alpha", "0.8", "--stages", "3", "--k", "3") == 2
    assert "not --k" in capsys.readouterr().err


def test_cli_massratio_rejects_empty_inputs(catalog, capsys):
    assert run_cli("massratio", "--alpha", "0.8", "--samples", "0") == 2
    assert "--samples" in capsys.readouterr().err
    for levels in ("5:4", "5", "a:b"):
        assert run_cli("massratio", "--alpha", "0.8", "--levels", levels) == 2
        assert "--levels" in capsys.readouterr().err


def test_cli_verify_lists_half_a_million_uncovered_targets_promptly(tmp_path):
    # {0} leaves 527,345 of the 3^12 targets uncovered; a pass over the
    # 3^12-bit mask per target would take about half a minute
    from _oracles import brute_force_uncovered

    src = Path(__file__).resolve().parents[1] / "src"
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
        "COMPLEMENT_FORGE_CATALOG": str(tmp_path / "catalog"),
    }
    cmd = [sys.executable, "-m", "complement_forge.cli", "verify", "--k", "12", "--values", "0", "--format", "json"]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=20)
    except subprocess.TimeoutExpired:
        pytest.fail("verify --k 12 --values 0 did not return within 20 s")
    assert proc.returncode == 3, proc.stderr
    uncovered = json.loads(proc.stdout)["uncovered"]
    assert len(uncovered) == 527_345
    assert uncovered == brute_force_uncovered(12, zero_one_base(12).values, [0])


def test_cli_import_leaves_numpy_and_mpmath_unloaded():
    # only the solvers need numpy, so every command pays for it only when it
    # runs one, and mpmath is the tests' oracle alone; the exact solver's
    # dual weights come from numpy alone, so scipy is never loaded
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


_RUN_WITHOUT_NUMPY = """
import contextlib, io, json, sys

sys.modules["numpy"] = None  # every import of numpy now raises ImportError
from complement_forge.cli import main

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps(codes))
"""


def test_commands_that_run_no_solver_run_without_numpy(catalog):
    # numpy's import is about 140 ms of a cold command; the commands that
    # only read the catalog, decompose or check measures never need it, so
    # they must succeed in a process where importing numpy fails
    seeds = catalog.ensure_seeded()
    params = DensityParams.from_alpha("0.8")
    catalog.add_spec(build_density_spec(params, 3), "quadratic-a4-5-s3", params=params.describe())
    commands = [
        ["gamma", "--k", "3"],
        ["gamma", "--id", seeds[3]],
        ["verify", "--id", seeds[4]],
        ["decompose", "--x", "0.1", "--spec", "uniform-k3", "--depth", "4"],
        ["decompose", "--x", "0.2101", "--spec", "quadratic-a4-5-s3", "--depth", "3"],
        ["netcheck", "--trials", "20", "--seed", "3"],
        ["massratio", "--alpha", "0.8", "--samples", "5"],
        ["report", "--all"],
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_NUMPY, json.dumps(commands)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(commands), proc.stderr


_IMPORT_BOUNDARY = """
import contextlib, io, json, sys

watched = ["numpy", "logging", "hashlib"]
watched += [f"complement_forge.{m}" for m in ("measure", "fractal", "density")]
before = {m for m in watched if m in sys.modules}

def loaded():
    return [m for m in watched if m in sys.modules and m not in before]

from complement_forge.cli import main

on_import = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([on_import, code, loaded()]))
"""


@pytest.mark.parametrize(
    "argv, run_loads",
    [
        (["verify", "--k", "3", "--values", "0,2,7,12,14"], []),
        (["gamma", "--k", "3"], ["hashlib"]),
        (["boxdim", "--alpha", "0.8", "--depth", "100"], ["complement_forge.density"]),
    ],
    ids=["verify-inline", "gamma-k3", "boxdim-alpha"],
)
def test_a_cold_command_imports_only_the_layers_it_runs(catalog, argv, run_loads):
    # each layer is imported where it is used: importing the CLI loads no
    # numpy, logging, hashlib or measure layer; an inline cover check loads
    # none of them nor the fractal and density layers, a scan of complement
    # entries only hashlib, for the ids, and the C_A estimates only density
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_BOUNDARY, json.dumps(argv)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], 0, run_loads], proc.stderr


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


def test_cli_boxdim_spec_estimates_the_spec_dimension(catalog, capsys):
    # counts are |B|^(n/k) at mesh 3^-n, so every estimate is gamma itself
    assert run_cli("boxdim", "--spec", "uniform-k3", "--depth", "30", "--format", "json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["final"] == doc["target"] == math.log(5) / (3 * math.log(3))


def test_cli_uniform_spec_name_follows_the_best_stored_code(catalog, capsys):
    assert run_cli("complement", "--k", "6", "--method", "greedy") == 0
    assert run_cli("spec-build", "--kind", "uniform", "--k", "6") == 0
    # a better k=6 code stored after uniform-k6 was first built: B3 x B3, 25 values
    b3 = BlockCode(3, PAPER_BLOCKS[3])
    b3b3 = concat_codes(b3, b3)
    catalog.add_complement(verify_complement(CoverInstance(6, enumerate_pattern(zero_one_pattern(6))), b3b3), "solver")
    assert run_cli("spec-build", "--kind", "uniform", "--k", "6") == 0
    capsys.readouterr()
    assert run_cli("boxdim", "--spec", "uniform-k6", "--depth", "12", "--format", "json") == 0
    assert json.loads(capsys.readouterr().out)["target"] == math.log(25) / (6 * math.log(3))
    assert run_cli("decompose", "--x", "0.222222", "--spec", "uniform-k6", "--depth", "1", "--format", "json") == 0
    (block,) = json.loads(capsys.readouterr().out)["blocks"]
    assert block["b"] in b3b3


def test_cli_netcheck_rejects_exponents_outside_the_unit_interval(catalog, capsys):
    # refused before any trial runs, so the exit code does not depend on the seed
    for seed in ("0", "2"):
        for s in ("2", "-1/2"):
            assert run_cli("netcheck", "--trials", "1", f"--s={s}", "--seed", seed) == 2
            assert "[0, 1]" in capsys.readouterr().err


def test_cli_decompose_past_the_last_stage_exits_2(catalog, capsys):
    assert run_cli("spec-build", "--kind", "quadratic", "--alpha", "0.8", "--stages", "4") == 0
    capsys.readouterr()
    assert run_cli("decompose", "--x", "0.1", "--spec", "quadratic-a4-5-s4", "--depth", "6") == 2
    assert "spec has 4 stages, asked for 5" in capsys.readouterr().err


def test_cli_uniform_spec_name_needs_a_positive_decimal_k(catalog, tmp_path, capsys):
    # refused as a --spec error before the catalog is seeded or written
    for name in ("uniform-kfoo", "uniform-k-3", "uniform-k0", "uniform-k", "uniform-k+3", "uniform-k05", "uniform-k3 "):
        assert run_cli("decompose", "--x", "0.1", "--spec", name, "--depth", "1") == 2, name
        err = capsys.readouterr().err
        assert "--spec" in err and "positive decimal" in err, (name, err)
        assert run_cli("boxdim", "--spec", name, "--depth", "4") == 2, name
        assert "--spec" in capsys.readouterr().err
    cat_dir = tmp_path / "cat"
    assert not cat_dir.exists() or not any(cat_dir.iterdir())


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("gamma", "--k", "0"), "--k"),
        (("gamma", "--k", "-1"), "--k"),
        (("spec-build", "--kind", "uniform", "--k", "0"), "--k"),
        (("spec-build", "--kind", "uniform", "--k", "-1"), "--k"),
        (("spec-build", "--kind", "quadratic", "--alpha", "0.8", "--stages", "0"), "--stages"),
        (("verify", "--k", "0", "--values", "0"), "--k"),
    ],
)
def test_cli_refuses_a_k_or_stages_below_one(catalog, capsys, argv, flag):
    # a given 0 is not a missing flag, and a negative k is refused before the
    # catalog is seeded
    assert run_cli(*argv) == 2
    assert f"{flag} must be at least 1" in capsys.readouterr().err
    assert not catalog.root.exists() or not any(catalog.root.iterdir())


@pytest.mark.parametrize("stages", [8, 20])
def test_cli_spec_build_refuses_more_than_seven_stages(catalog, capsys, monkeypatch, stages):
    # stage s spans 2s - 1 digits, so an eighth stage has 3^15 targets; the
    # refusal comes before the spec is built and before the catalog opens
    def unreachable(*args, **kwargs):
        raise AssertionError("spec builder reached")

    monkeypatch.setattr(fractal_module, "build_density_spec", unreachable)
    assert run_cli("spec-build", "--kind", "quadratic", "--alpha", "0.8", "--stages", str(stages)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"--stages must be between 1 and 7, not {stages}" in captured.err
    assert not catalog.root.exists()


@pytest.mark.parametrize(
    "argv, minimum",
    [
        (("--set", "cantor", "--depth", "0"), "1"),
        (("--spec", "uniform-k3", "--depth", "-7"), "1"),
        (("--alpha", "0.8", "--depth", "0"), "1"),
        (("--alpha", "0.8", "--depth", "1"), "2 for --alpha"),
        (("--spec", "uniform-k3", "--depth", "2"), "3 for --spec uniform-k3"),
    ],
)
def test_cli_boxdim_refuses_a_depth_below_what_it_reads(catalog, capsys, argv, minimum):
    # --set cantor reads one digit, --alpha two, and --spec one block
    assert run_cli("boxdim", *argv) == 2
    assert f"--depth must be at least {minimum}" in capsys.readouterr().err
    if minimum == "1":
        assert not catalog.root.exists()


def test_cli_decompose_refuses_a_depth_below_one_before_seeding(catalog, capsys):
    assert run_cli("decompose", "--x", "0.1", "--spec", "uniform-k3", "--depth", "0") == 2
    assert "--depth must be at least 1" in capsys.readouterr().err
    assert not catalog.root.exists() or not any(catalog.root.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (("density", "--alpha", "0.8", "--n", "1000001"), "--n must be between 2 and 1000000, not 1000001"),
        (
            ("boxdim", "--alpha", "0.8", "--depth", "1000001"),
            "--depth must be between 2 and 1000000 for --alpha, not 1000001",
        ),
        (
            ("massratio", "--alpha", "0.8", "--samples", "1", "--levels", "5:1001"),
            "--levels HI must be between 2 and 1000, not 1001",
        ),
        (
            ("decompose", "--x", "0.1", "--spec", "uniform-k3", "--depth", "3001"),
            "--depth must be between 1 and 3000, not 3001",
        ),
    ],
)
def test_cli_refuses_a_size_past_its_cap(catalog, capsys, argv, message):
    # each of these grows linearly or faster in its size, unbounded until
    # memory or patience runs out; one past the cap is refused before any
    # work and before the catalog is seeded
    assert run_cli(*argv, "--format", "json") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert not catalog.root.exists() or not any(catalog.root.iterdir())


def test_cli_massratio_reads_a_negative_level_range_as_a_value(catalog, capsys):
    # "-2:3" is the --levels value, refused because levels start at 2
    assert run_cli("massratio", "--alpha", "0.8", "--levels", "-2:3") == 2
    assert "levels start at f = 2" in capsys.readouterr().err


def test_cli_density_prefix_match_checks_the_walk_of_a(catalog, capsys, monkeypatch):
    # prefix_match compares the prefix built from r/s with A walked one exact
    # comparison per element, so a wrong builder shows as a failed check
    from complement_forge.density import a_prefix_from_rational

    monkeypatch.setattr(density_module, "a_prefix_from_rational", lambda r, s, n: a_prefix_from_rational(r + 1, s, n))
    assert run_cli("density", "--alpha", "0.8", "--n", "100", "--format", "json") == 3
    assert json.loads(capsys.readouterr().out)["prefix_match"] is False


QUADRATIC_S2 = ("spec-build", "--kind", "quadratic", "--alpha", "0.8", "--stages", "2")


@pytest.mark.parametrize(
    "setup, argv, code, message",
    [
        (None, ("density", "--alpha", "D=1/2", "--n", "200", "--format", "json"), 0, '"r": 2,\n  "s": 1,'),
        (None, ("density", "--alpha", "1/0", "--n", "200"), 2, "bad alpha/density '1/0'"),
        (None, ("boxdim", "--alpha", "abc", "--depth", "10"), 2, "bad alpha/density 'abc'"),
        (None, ("verify", "--k", "3", "--values", " , "), 2, "empty value list"),
        (None, ("verify",), 2, "need --id, or --k with --values"),
        (None, ("verify", "--k", "3"), 2, "need --id, or --k with --values"),
        (None, ("gamma",), 2, "need --k or --id"),
        (None, ("spec-build", "--kind", "uniform"), 2, "uniform specs need --k"),
        (None, ("spec-build", "--kind", "quadratic", "--alpha", "0.8"), 2, "quadratic specs need --alpha and --stages"),
        (None, ("decompose", "--x", "0.1", "--spec", "nosuch", "--depth", "3"), 2, "unknown spec 'nosuch'"),
        (
            QUADRATIC_S2,
            ("boxdim", "--spec", "quadratic-a4-5-s2", "--depth", "10"),
            2,
            "boxdim over a spec expects a uniform spec",
        ),
        # a zero denominator is named as one, under either flag's prefix
        (None, ("density", "--alpha", "1/0", "--n", "200"), 2, "error: bad alpha/density '1/0': zero denominator\n"),
        (None, ("density", "--alpha", "D=1/0", "--n", "200"), 2, "error: bad alpha/density 'D=1/0': zero denominator\n"),
        (None, ("boxdim", "--alpha", "1/0", "--depth", "10"), 2, "error: bad alpha/density '1/0': zero denominator\n"),
        (None, ("massratio", "--alpha", "D=1/0"), 2, "error: bad alpha/density 'D=1/0': zero denominator\n"),
        (
            None,
            ("spec-build", "--kind", "quadratic", "--alpha", "1/0", "--stages", "2"),
            2,
            "error: bad alpha/density '1/0': zero denominator\n",
        ),
        (None, ("netcheck", "--s", "1/0", "--trials", "1"), 2, "error: bad --s '1/0': zero denominator\n"),
        (None, ("netcheck", "--s", "1/2,1/0", "--trials", "1"), 2, "error: bad --s '1/2,1/0': zero denominator\n"),
        (None, ("netcheck", "--s", "1/2,x", "--trials", "1"), 2, "error: bad --s '1/2,x': Invalid literal for Fraction: 'x'\n"),
    ],
)
def test_cli_input_branches(catalog, capsys, setup, argv, code, message):
    # the density-form alpha and the refusals of missing or malformed input:
    # each exits 0 with its output, or 2 naming what is wrong
    if setup:
        assert run_cli(*setup) == 0
        capsys.readouterr()
    assert run_cli(*argv) == code
    captured = capsys.readouterr()
    assert message in (captured.err if code else captured.out)
