"""Persistent JSON catalog of complement codes, fractal specs, and density runs.

One JSON document per entry, in a content-addressed directory: the filename is
a hash of the entry's identifying fields, so identical results land in the
same file and an edit to a stored entry is caught on load (the id stops
matching).  Every entry is also re-verified on save and on load: its code or
spec is rebuilt and checked, its printed gammas and density results are
derived again.  Loading a failing entry by id raises; a scan of the
directory skips it with a warning on stderr.  A ``Catalog`` reads its
directory once and checks each id once: the id hashes what the check reads.
Writes go through a temp file and rename, so readers never see partial entries.

The five published optimal block sets ship as seed entries (provenance
"paper"), separated from anything the solvers discover.  Their optimality is
recorded as "unknown": proof artifacts come from the exact solver, not from
the literature.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import __version__
from .density import DensityParams, best_rational, encode_rsn
from .fractal import FractalSpec, GammaValue, Stage
from .solver import CoverCertificate, CoverInstance, ProductProbeReport, is_zero_one_base
from .solver import product_probe as _probe
from .solver import verify_complement
from .ternary import BlockCode, PatternSet, TernaryInt, enumerate_pattern, zero_one_base

SCHEMA_VERSION = 1
ENV_CATALOG_DIR = "COMPLEMENT_FORGE_CATALOG"

#: The published optimal complementary block sets, as integers.  In digit
#: strings: B1 = {0, 1}; B2 = {00, 02, 11}; B3 = {000, 002, 021, 110, 112};
#: B4 = B2 x B2; B5 as listed (14 blocks of length 5).
PAPER_BLOCKS: dict[int, tuple[int, ...]] = {
    1: (0, 1),
    2: (0, 2, 4),
    3: (0, 2, 7, 12, 14),
    4: (0, 2, 4, 18, 20, 22, 36, 38, 40),
    5: (0, 2, 7, 14, 21, 52, 59, 66, 73, 104, 111, 118, 123, 125),
}


class CatalogError(ValueError):
    pass


class CatalogIntegrityError(CatalogError):
    """Stored entry does not re-verify or does not match its id."""


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _hash(obj) -> str:
    return hashlib.sha256(_canonical(obj).encode()).hexdigest()


def _core_fields(entry: dict) -> dict:
    """The identity of an entry: everything except provenance and hashes
    ("digest" is a field earlier versions wrote; excluding it keeps their ids)."""
    return {k: v for k, v in entry.items() if k not in ("id", "digest", "provenance")}


def default_catalog_dir() -> Path:
    env = os.environ.get(ENV_CATALOG_DIR)
    if env:
        return Path(env)
    return Path.home() / ".complement-forge"


@dataclass
class Catalog:
    root: Path
    _rebuilt: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def default(cls) -> "Catalog":
        return cls(default_catalog_dir())

    @property
    def entries_dir(self) -> Path:
        return self.root / "entries"

    def _path(self, entry_id: str) -> Path:
        return self.entries_dir / f"{entry_id}.json"

    # -- raw storage ---------------------------------------------------------

    def save_entry(self, entry: dict) -> str:
        entry = dict(entry)
        entry["schema_version"] = SCHEMA_VERSION
        entry_id = _hash(_core_fields(entry))[:16]
        entry["id"] = entry_id
        self._check(entry)
        path = self._path(entry_id)
        if path.exists():
            # The id hashes the core fields, so the stored file already holds
            # this entry; leaving it keeps the first write's provenance.
            return entry_id
        self.entries_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.entries_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(entry, fh, sort_keys=True, indent=2)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.__dict__.pop("_stored", None)  # the next entries() rescans
        return entry_id

    def load_entry(self, entry_id: str) -> dict:
        path = self._path(entry_id)
        if not path.exists():
            raise CatalogError(f"no catalog entry {entry_id}")
        entry = json.loads(path.read_text())
        if _hash(_core_fields(entry))[:16] != entry.get("id") or entry["id"] != entry_id:
            raise CatalogIntegrityError(f"entry {entry_id}: content does not match its id")
        self._check(entry)
        return entry

    def _check(self, entry: dict) -> Optional[CoverCertificate | FractalSpec]:
        """``_verify`` an entry the first time its id is seen; return what it rebuilt."""
        if entry["id"] not in self._rebuilt:
            self._rebuilt[entry["id"]] = _verify(entry)
        return self._rebuilt[entry["id"]]

    def list_ids(self) -> list[str]:
        if not self.entries_dir.exists():
            return []
        return sorted(p.stem for p in self.entries_dir.glob("*.json"))

    @functools.cached_property
    def _stored(self) -> list[dict]:
        """Every stored entry that passes its checks, read and checked once per
        catalog object.  An entry that fails is left out with one warning on
        stderr, so one bad file does not stop every scan; ``load_entry``
        still refuses it by id."""
        stored = []
        for entry_id in self.list_ids():
            try:
                stored.append(self.load_entry(entry_id))
            except (ValueError, KeyError, TypeError) as exc:
                print(f"warning: skipping catalog entry {entry_id}: {exc}", file=sys.stderr)
        return stored

    def entries(self, kind: Optional[str] = None) -> list[dict]:
        return [e for e in self._stored if kind is None or e.get("kind") == kind]

    # -- complements -------------------------------------------------------------

    def add_complement(
        self,
        cert: CoverCertificate,
        source: str,
        budget: Optional[dict] = None,
    ) -> str:
        """Store a complement code.  Entries are re-verified against the {0,1}
        pattern on load, so a code solved over any other base is refused: it
        would load as a {0,1} complement carrying another run's optimality."""
        k = cert.instance.k
        if not is_zero_one_base(cert.instance):
            raise CatalogError(f"complement base set is not the {{0,1}} pattern at k={k}")
        entry = {
            "kind": "complement",
            "k": k,
            "range": [cert.instance.lo, cert.instance.hi],
            "values": list(cert.solution.values),
            "method": cert.method,
            "optimal": cert.optimal,
            "gamma": _gamma_json(cert.size, k),
            "provenance": _provenance(source, budget),
        }
        return self.save_entry(entry)

    def load_complement(self, entry_id: str) -> tuple[dict, CoverCertificate]:
        """A stored complement entry and its certificate, rebuilt in the range it was solved in."""
        entry = self.load_entry(entry_id)
        if entry.get("kind") != "complement":
            raise CatalogError(f"entry {entry_id} is a {entry.get('kind')} entry, not a complement")
        return entry, self._rebuilt[entry_id]

    def best_complement(self, k: int) -> tuple[dict, CoverCertificate]:
        """Smallest stored code at block length k; proven optimality and then
        lexicographic order break ties, so the choice is stable."""
        best = None
        for entry in self.entries("complement"):
            if entry["k"] != k:
                continue
            key = (
                len(entry["values"]),
                0 if entry["optimal"] == "proven-optimal" else 1,
                entry["values"],
            )
            if best is None or key < best[0]:
                best = (key, entry)
        if best is None:
            raise CatalogError(f"no complement entry for k={k}")
        return best[1], self._rebuilt[best[1]["id"]]

    def ensure_seeded(self) -> list[str]:
        """Install the published block sets (idempotent); ``save_entry`` checks each."""
        ids = []
        for k, values in PAPER_BLOCKS.items():
            cert = CoverCertificate(CoverInstance(k, zero_one_base(k)), BlockCode(k, values), "external")
            ids.append(self.add_complement(cert, source="paper"))
        return ids

    # -- specs ---------------------------------------------------------------------

    def add_spec(self, spec: FractalSpec, name: str, params: Optional[str] = None) -> str:
        entry = {
            "kind": "spec",
            "name": name,
            "spec_kind": spec.kind,
            "params": params,
            "stages": [
                {
                    "n": st.n,
                    "pattern": _pattern_json(st.pattern),
                    "values": list(st.code.values),
                    "gamma": _gamma_json(len(st.code), st.n),
                }
                for st in spec.stages
            ],
            "provenance": _provenance("builder"),
        }
        return self.save_entry(entry)

    def find_spec(self, name_or_id: str) -> Optional[dict]:
        for entry in self.entries("spec"):
            if entry["name"] == name_or_id or entry["id"] == name_or_id:
                return entry
        return None

    def spec_from_entry(self, entry: dict) -> FractalSpec:
        return self._check(entry)

    # -- density runs -----------------------------------------------------------------

    def add_density(self, params: DensityParams, n: int, r: int, s: int, length: int) -> str:
        entry = {
            "kind": "density",
            "params": params.describe(),
            "n": n,
            "r": r,
            "s": s,
            "encoding_length": length,
            "provenance": _provenance("density"),
        }
        return self.save_entry(entry)

    # -- probes --------------------------------------------------------------------------

    def product_probe(self, k1: int, k2: int) -> ProductProbeReport:
        """Compare the concatenation of the best stored codes at k1 and k2
        against the best stored code at k1 + k2."""
        _, cert1 = self.best_complement(k1)
        _, cert2 = self.best_complement(k2)
        ref_entry, ref = self.best_complement(k1 + k2)
        return _probe(cert1.solution, cert2.solution, ref.solution, ref_entry["optimal"])


def _provenance(source: str, budget: Optional[dict] = None) -> dict:
    """Where an entry came from; kept out of its id."""
    return {
        "source": source,
        "solver_version": __version__,
        "budget": budget,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _pattern_json(p: PatternSet) -> list[list[int]]:
    return [sorted(s) for s in p.allowed]


def _pattern_from_json(data: list[list[int]]) -> PatternSet:
    return PatternSet(len(data), tuple(frozenset(s) for s in data))


def _rebuild_complement(entry: dict) -> CoverCertificate:
    k = entry["k"]
    lo, hi = entry.get("range", [0, 3**k])
    inst = CoverInstance(k, zero_one_base(k), lo=lo, hi=hi)
    code = BlockCode(k, tuple(entry["values"]))
    return verify_complement(inst, code, method=entry.get("method", "external"), optimal=entry.get("optimal", "unknown"))


def _rebuild_spec(entry: dict) -> FractalSpec:
    stages = []
    for st in entry["stages"]:
        pattern = _pattern_from_json(st["pattern"])
        inst = CoverInstance(st["n"], enumerate_pattern(pattern))
        cert = verify_complement(inst, BlockCode(st["n"], tuple(st["values"])))
        stages.append(Stage(st["n"], pattern, cert))
    return FractalSpec(kind=entry["spec_kind"], stages=tuple(stages))


def _gamma_json(card: int, k: int) -> dict:
    return {"card": card, "k": k, "value": GammaValue(card, k).value}


def _params_from_description(text: str) -> DensityParams:
    """Invert ``DensityParams.describe``: its ``alpha=P/Q`` or ``D=P/Q``
    prefix is exact; the bracketed float after it is only a view."""
    name, _, value = text.partition(" ")[0].partition("=")
    if name == "alpha":
        return DensityParams.from_alpha(Fraction(value))
    if name == "D":
        return DensityParams.from_density(Fraction(value))
    raise CatalogIntegrityError(f"unreadable density parameters {text!r}")


def _verify(entry: dict) -> Optional[CoverCertificate | FractalSpec]:
    """Rebuild what an entry stores and derive again what it prints; return
    the rebuilt certificate or spec (None for a density run), or raise
    CatalogIntegrityError (or the rebuild's own error) if anything is off."""
    kind = entry.get("kind")
    if kind == "complement":
        rebuilt = _rebuild_complement(entry)
        ok = entry["gamma"] == _gamma_json(len(entry["values"]), entry["k"])
    elif kind == "spec":
        rebuilt = _rebuild_spec(entry)
        ok = all(st["gamma"] == _gamma_json(len(st["values"]), st["n"]) for st in entry["stages"])
    elif kind == "density":
        rebuilt = None
        r, s = best_rational(_params_from_description(entry["params"]), entry["n"])
        ok = (entry["r"], entry["s"]) == (r, s) and entry["encoding_length"] == len(encode_rsn(r, s, entry["n"]))
    else:
        raise CatalogError(f"unknown entry kind {kind!r}")
    if not ok:
        raise CatalogIntegrityError(f"entry {entry['id']}: stored {kind} results do not re-derive")
    return rebuilt


def block_string(value: int, k: int) -> str:
    """Digit-string rendering of a block value, paper style."""
    return str(TernaryInt(value, k))
