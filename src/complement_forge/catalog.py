"""Persistent JSON catalog of complement codes, fractal specs, and density runs.

One JSON document per entry, in a content-addressed directory: the filename is
a hash of the entry's identifying fields, so identical results land in the
same file and an edit to a stored entry is caught on load (the id stops
matching).  On save and on load an entry must also equal the encoding of
what it rebuilds, by the encoder ``add_*`` writes with: gammas and density
results are derived again, unknown core fields are refused, and stage
patterns are derived, so a quadratic spec is stored with its ``params``.
Loading a failing entry by id raises; a scan skips it with a warning on
stderr.  A ``Catalog`` reads its directory once and checks each id once: the
id hashes what the check reads.  Writes go through a temp file and rename, so
readers never see partial entries, and a save replaces a damaged file.

The five published optimal block sets ship as seed entries (provenance
"paper"), separated from anything the solvers discover.  Their optimality is
recorded as "unknown": proof artifacts come from the exact solver, not from
the literature.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from . import __version__
from .solver import CoverCertificate, CoverInstance, is_zero_one_base, verify_complement
from .ternary import BlockCode, GammaValue, enumerate_pattern, zero_one_base, zero_one_pattern

# the fractal and density layers are imported by the spec and density entry
# paths that use them, so a scan of complement entries loads neither
if TYPE_CHECKING:
    from .density import DensityParams
    from .fractal import FractalSpec

SCHEMA_VERSION = 1
ENV_CATALOG_DIR = "COMPLEMENT_FORGE_CATALOG"

#: The longest block a stored entry may have, a complement's k or a spec
#: stage's n.  The CLI writes none longer: the greedy stops at k = 13, and a
#: quadratic spec's seventh stage is its last, 13 digits long.  Loading
#: checks it before any base set is enumerated, so an entry claiming k = 40
#: is refused instead of listing 2^40 values.
MAX_BLOCK_LENGTH = 13

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
    """Stored entry does not re-verify or match its id, or cannot be written (``entry_id`` names it)."""

    def __init__(self, message: str, entry_id: Optional[str] = None):
        super().__init__(message)
        self.entry_id = entry_id


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _hash(obj) -> str:
    import hashlib

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
    _skipped: set = field(default_factory=set, init=False, repr=False, compare=False)

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
        try:
            kept = json.loads(path.read_text())
        except (OSError, ValueError):
            kept = None
        if isinstance(kept, dict) and _hash(_core_fields(kept))[:16] == kept.get("id") == entry_id:
            # the file holds this entry; leaving it keeps the first write's provenance
            return entry_id
        self.entries_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.entries_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(entry, fh, sort_keys=True, indent=2)
                fh.write("\n")
            os.replace(tmp, path)
        except OSError as exc:
            raise CatalogIntegrityError(f"entry {entry_id}: cannot be written: {exc}", entry_id) from None
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        self.__dict__.pop("_stored", None)  # the next entries() rescans
        return entry_id

    def load_entry(self, entry_id: str) -> dict:
        """The stored entry ``entry_id``, read once and checked.  An id that
        is not 16 lowercase hex digits, which no entry has, is refused before
        any path is built, and a missing file raises CatalogError; a file
        that cannot be read (a directory in its place) or is not UTF-8 JSON
        raises CatalogIntegrityError, so a scan skips it."""
        # a character that strip leaves is not a lowercase hex digit
        if len(entry_id) != 16 or entry_id.strip("0123456789abcdef"):
            raise CatalogError(f"not a catalog entry id: {entry_id!r} (16 lowercase hex digits)")
        try:
            entry = json.loads(self._path(entry_id).read_text())
        except FileNotFoundError:
            raise CatalogError(f"no catalog entry {entry_id}") from None
        except (OSError, ValueError) as exc:
            raise CatalogIntegrityError(f"entry {entry_id}: unreadable: {exc}") from None
        if not (isinstance(entry, dict) and _hash(_core_fields(entry))[:16] == entry.get("id") == entry_id):
            raise CatalogIntegrityError(f"entry {entry_id}: content is not an object that matches its id")
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
                self._skip(entry_id, exc)
        return stored

    def _skip(self, entry_id: str, exc: Exception) -> None:
        """Warn on stderr that entry ``entry_id`` is left out, once per catalog object."""
        if entry_id not in self._skipped:
            self._skipped.add(entry_id)
            print(f"warning: skipping catalog entry {entry_id}: {exc}", file=sys.stderr)

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
        if not is_zero_one_base(cert.instance):
            raise CatalogError(f"complement base set is not the {{0,1}} pattern at k={cert.instance.k}")
        return self.save_entry({**_complement_entry(cert), "provenance": _provenance(source, budget)})

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
        """Install the published block sets (idempotent); a seed that cannot be written is skipped with one warning."""
        ids = []
        for k, values in PAPER_BLOCKS.items():
            cert = CoverCertificate(CoverInstance(k, zero_one_base(k)), BlockCode(k, values), "external")
            try:
                ids.append(self.add_complement(cert, source="paper"))
            except CatalogIntegrityError as exc:  # a failed write: the bundled seeds verify
                self._skip(exc.entry_id, exc)
        return ids

    # -- specs ---------------------------------------------------------------------

    def add_spec(self, spec: FractalSpec, name: str, params: Optional[str] = None) -> str:
        """Store a spec; a quadratic one needs ``params``, the ``describe()``
        of the density parameters its stage patterns are thinned by."""
        return self.save_entry({**_spec_entry(spec, name, params), "provenance": _provenance("builder")})

    def find_spec(self, name_or_id: str) -> Optional[tuple[dict, FractalSpec]]:
        """The first stored spec entry with this name or id, and its rebuilt spec."""
        for entry in self.entries("spec"):
            if entry["name"] == name_or_id or entry["id"] == name_or_id:
                return entry, self._rebuilt[entry["id"]]
        return None

    # -- density runs -----------------------------------------------------------------

    def add_density(self, params: DensityParams, n: int, r: int, s: int, length: int) -> str:
        # the caller's r, s and length are stored, so wrong ones fail the round trip
        entry = {"kind": "density", "params": params.describe(), "n": n, "r": r, "s": s, "encoding_length": length}
        return self.save_entry({**entry, "provenance": _provenance("density")})


def _provenance(source: str, budget: Optional[dict] = None) -> dict:
    """Where an entry came from; kept out of its id."""
    return {
        "source": source,
        "solver_version": __version__,
        "budget": budget,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _gamma_json(card: int, k: int) -> dict:
    return {"card": card, "k": k, "value": GammaValue(card, k).value}


def _complement_entry(cert: CoverCertificate) -> dict:
    inst = cert.instance
    return {
        "kind": "complement",
        "k": inst.k,
        "range": [inst.lo, inst.hi],
        "values": list(cert.solution.values),
        "method": cert.method,
        "optimal": cert.optimal,
        "gamma": _gamma_json(cert.size, inst.k),
    }


def _spec_entry(spec: FractalSpec, name: str, params: Optional[str]) -> dict:
    """Stage patterns are derived on load, so a quadratic spec carries the
    ``describe()`` of the parameters they are thinned by, a uniform one none."""
    if (spec.kind == "quadratic") != (params is not None):
        raise CatalogError("a quadratic spec is stored with its density params, a uniform spec without")
    stages = [
        {
            "n": st.n,
            "pattern": [sorted(digits) for digits in st.pattern.allowed],
            "values": list(st.code.values),
            "gamma": _gamma_json(len(st.code), st.n),
        }
        for st in spec.stages
    ]
    params = None if params is None else _params_from_description(params).describe()
    return {"kind": "spec", "name": name, "spec_kind": spec.kind, "params": params, "stages": stages}


def _density_entry(params: DensityParams, n: int) -> dict:
    from .density import best_rational, encode_rsn

    r, s = best_rational(params, n)
    length = len(encode_rsn(r, s, n))
    return {"kind": "density", "params": params.describe(), "n": n, "r": r, "s": s, "encoding_length": length}


def _block_length(n) -> int:
    """A stored block length, refused unless it is an int in [1, MAX_BLOCK_LENGTH]."""
    if type(n) is not int or not 1 <= n <= MAX_BLOCK_LENGTH:
        raise CatalogIntegrityError(f"block length {n!r} is outside [1, {MAX_BLOCK_LENGTH}]")
    return n


def _rebuild_complement(entry: dict) -> CoverCertificate:
    k = _block_length(entry["k"])
    lo, hi = entry["range"]
    inst = CoverInstance(k, zero_one_base(k), lo=lo, hi=hi)
    code = BlockCode(k, tuple(entry["values"]))
    return verify_complement(inst, code, method=entry["method"], optimal=entry["optimal"])


def _rebuild_spec(entry: dict) -> FractalSpec:
    """The stored codes over the stage patterns the spec's kind derives."""
    from .fractal import FractalSpec, Stage, density_patterns

    stored = entry["stages"]
    if entry["spec_kind"] == "quadratic":
        _block_length(2 * len(stored) - 1)  # the last stage's
        patterns = density_patterns(_params_from_description(entry["params"]), len(stored))
    else:
        patterns = tuple(zero_one_pattern(_block_length(st["n"])) for st in stored)
    stages = []
    for st, pattern in zip(stored, patterns):
        inst = CoverInstance(pattern.k, enumerate_pattern(pattern))
        cert = verify_complement(inst, BlockCode(pattern.k, tuple(st["values"])))
        stages.append(Stage(pattern.k, pattern, cert))
    return FractalSpec(kind=entry["spec_kind"], stages=tuple(stages))


def _params_from_description(text: str) -> DensityParams:
    """Invert ``DensityParams.describe``: its ``alpha=P/Q`` or ``D=P/Q``
    prefix is exact; the bracketed float after it is only a view.  Anything
    else, a stored value that is no string included, is unreadable."""
    from .density import DensityParams

    name, _, value = str(text).partition(" ")[0].partition("=")
    try:
        if name == "alpha":
            return DensityParams.from_alpha(Fraction(value))
        if name == "D":
            return DensityParams.from_density(Fraction(value))
    except (ValueError, ZeroDivisionError):
        pass
    raise CatalogIntegrityError(f"unreadable density parameters {text!r}")


def _verify(entry: dict) -> Optional[CoverCertificate | FractalSpec]:
    """Rebuild what an entry stores and return it (None for a density run) if
    the entry is the rebuild's encoding; else raise CatalogIntegrityError (or
    the rebuild's own error)."""
    kind = entry.get("kind")
    if kind == "complement":
        rebuilt = _rebuild_complement(entry)
        encoded = _complement_entry(rebuilt)
    elif kind == "spec":
        rebuilt = _rebuild_spec(entry)
        encoded = _spec_entry(rebuilt, entry["name"], entry["params"])
    elif kind == "density":
        rebuilt = None
        encoded = _density_entry(_params_from_description(entry["params"]), entry["n"])
    else:
        raise CatalogError(f"unknown entry kind {kind!r}")
    if _core_fields(entry) != {**encoded, "schema_version": SCHEMA_VERSION}:
        raise CatalogIntegrityError(f"entry {entry['id']}: stored {kind} entry is not the encoding of what it rebuilds")
    return rebuilt
