"""Persistent JSON catalog of complement codes, fractal specs, and density runs.

One JSON document per entry, in a content-addressed directory: the filename is
a hash of the entry's identifying fields, so identical results land in the
same file and any edit to a stored code is caught on load (the id stops
matching, and so does the verification digest, which is recomputed only after
the stored object re-verifies).  Writes go through a temp file and rename, so
concurrent readers never see partial entries.

The five published optimal block sets ship as seed entries (provenance
"paper"), separated from anything the solvers discover.  Their optimality is
recorded as "unknown": proof artifacts come from the exact solver, not from
the literature.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import __version__
from .density import DensityParams
from .fractal import FractalSpec, GammaValue, Stage
from .solver import CoverCertificate, CoverInstance, ProductProbeReport, is_zero_one_base
from .solver import product_probe as _probe
from .solver import verify_complement
from .ternary import BlockCode, PatternSet, TernaryInt, enumerate_pattern, zero_one_pattern

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
    """Stored entry does not re-verify or its hashes do not match."""


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _hash(obj) -> str:
    return hashlib.sha256(_canonical(obj).encode()).hexdigest()


def _core_fields(entry: dict) -> dict:
    """The identity of an entry: everything except provenance and hashes."""
    return {
        k: v
        for k, v in entry.items()
        if k not in ("id", "digest", "provenance")
    }


def default_catalog_dir() -> Path:
    env = os.environ.get(ENV_CATALOG_DIR)
    if env:
        return Path(env)
    return Path.home() / ".complement-forge"


@dataclass
class Catalog:
    root: Path

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
        entry["digest"] = self._digest(entry)
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
        return entry_id

    def load_entry(self, entry_id: str) -> dict:
        path = self._path(entry_id)
        if not path.exists():
            raise CatalogError(f"no catalog entry {entry_id}")
        entry = json.loads(path.read_text())
        if _hash(_core_fields(entry))[:16] != entry.get("id") or entry["id"] != entry_id:
            raise CatalogIntegrityError(f"entry {entry_id}: content does not match its id")
        if self._digest(entry) != entry.get("digest"):
            raise CatalogIntegrityError(f"entry {entry_id}: verification digest mismatch")
        return entry

    def list_ids(self) -> list[str]:
        if not self.entries_dir.exists():
            return []
        return sorted(p.stem for p in self.entries_dir.glob("*.json"))

    def entries(self, kind: Optional[str] = None) -> list[dict]:
        out = []
        for entry_id in self.list_ids():
            entry = self.load_entry(entry_id)
            if kind is None or entry.get("kind") == kind:
                out.append(entry)
        return out

    # -- verification digests --------------------------------------------------

    def _digest(self, entry: dict) -> str:
        """Hash of the re-verified payload; verification runs as a side effect,
        so a digest only ever covers an object that checks out right now."""
        kind = entry.get("kind")
        if kind == "complement":
            cert = _rebuild_complement(entry)
            payload = {"kind": kind, "k": cert.instance.k, "values": list(cert.solution.values)}
        elif kind == "spec":
            spec = _rebuild_spec(entry)
            payload = {
                "kind": kind,
                "name": entry["name"],
                "stages": [
                    {"n": st.n, "pattern": _pattern_json(st.pattern), "values": list(st.code.values)}
                    for st in spec.stages
                ],
            }
        elif kind == "density":
            payload = {
                "kind": kind,
                "params": entry["params"],
                "n": entry["n"],
                "r": entry["r"],
                "s": entry["s"],
            }
        else:
            raise CatalogError(f"unknown entry kind {kind!r}")
        return _hash(payload)

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
            "gamma": {"card": cert.size, "k": k, "value": GammaValue(cert.size, k).value},
            "provenance": _provenance(source, budget),
        }
        return self.save_entry(entry)

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
        return best[1], _rebuild_complement(best[1])

    def ensure_seeded(self) -> list[str]:
        """Install the published block sets (idempotent)."""
        ids = []
        for k, values in PAPER_BLOCKS.items():
            inst = CoverInstance(k, enumerate_pattern(zero_one_pattern(k)))
            cert = verify_complement(inst, BlockCode(k, values), method="external")
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
                    "gamma": {"card": len(st.code), "k": st.n, "value": st.gamma.value},
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
        return _rebuild_spec(entry)

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
    """Where an entry came from; kept out of its id and digest."""
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
    inst = CoverInstance(k, enumerate_pattern(zero_one_pattern(k)), lo=lo, hi=hi)
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


def block_string(value: int, k: int) -> str:
    """Digit-string rendering of a block value, paper style."""
    return str(TernaryInt(value, k))
