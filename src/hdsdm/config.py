"""Run configuration: declarative JSON description of data, model and run.

The config is a single JSON document (machine round-trippable, no comments)
with five sections: ``data`` (file path and column names), ``supports``
(declared covariate supports; these define the standardization
distributions, not the data), ``model`` (effects and priors), ``mcmc``
(sampler settings) and ``split`` (train/test year threshold). An unknown
section, or an unknown key in ``model``, an effect entry or ``mcmc``, is a
ValidationError. See the README for the full schema.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .distributions import PointCloud, UniformInterval, UniformLevels
from .exceptions import ValidationError
from .mcmc import McmcSettings
from .model import Dataset, EffectDecl, ModelSpec
from .priors import PriorSpec
from .tree import build_default_tree

__all__ = ["RunConfig", "ingest", "build_model", "build_settings", "read_point_cloud"]

# the keys a model section and an effect entry may have; "intercept" may only
# be true, since every model has one
MODEL_KEYS = {"intercept", "effects", "priors"}
EFFECT_KEYS = {"id", "kind", "support", "n_basis", "side", "role", "group"}


@dataclass(frozen=True)
class RunConfig:
    data: dict
    supports: dict
    model: dict
    mcmc: dict = field(default_factory=dict)
    split: dict = field(default_factory=dict)
    output: str = "out"

    def __post_init__(self):
        for key in ("path", "response"):
            if key not in self.data:
                raise ValidationError(f"config data section is missing {key!r}")
        if "effects" not in self.model:
            raise ValidationError("config model section is missing 'effects'")
        if "priors" not in self.model:
            raise ValidationError("config model section is missing 'priors'")
        _reject_unknown("config model section", self.model, MODEL_KEYS)
        if self.model.get("intercept", True) is not True:
            raise ValidationError(
                "config model intercept must be true: every model has an intercept"
            )
        for eff in self.model["effects"]:
            support, _ = _entry(eff)
            if support not in self.supports:
                raise ValidationError(
                    f"effect {eff['id']!r}: no support declared for {support!r}"
                )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        _reject_unknown("config", d, {f.name for f in fields(cls)})
        return cls(**d)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path) -> "RunConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _reject_unknown(where: str, entry: dict, known: set[str]) -> None:
    unknown = set(entry) - known
    if unknown:
        raise ValidationError(f"{where} has unknown keys: {sorted(unknown)}")


def read_point_cloud(path) -> np.ndarray:
    """Two-column delimited file of planar points, one finite (x, y) per row.

    Blank lines are skipped, and so is a first line that does not parse as
    numbers (a header). Any other row that is not two finite numbers is a
    ValidationError naming the file and its physical line.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            try:
                point = [float(v) for v in row]
            except ValueError:
                if line == 1:
                    continue  # header
                raise ValidationError(
                    f"{path}: line {line}: cannot parse {row} as numbers"
                ) from None
            if len(point) != 2:
                raise ValidationError(f"{path}: line {line}: {len(row)} fields, but a point has 2")
            if not all(map(math.isfinite, point)):  # float() accepts "nan" and "inf"
                raise ValidationError(f"{path}: line {line}: {row} is not a finite point")
            rows.append(point)
    if not rows:
        raise ValidationError(f"{path}: no points found")
    return np.asarray(rows)


def _build_dist(name: str, spec: dict, base_dir: Path):
    kind = spec.get("kind")
    if kind == "interval":
        return UniformInterval(float(spec["lower"]), float(spec["upper"]))
    if kind == "levels":
        return UniformLevels(int(spec["n"]))
    if kind == "point_cloud":
        return PointCloud(read_point_cloud(base_dir / spec["path"]))
    raise ValidationError(f"support {name!r}: unknown kind {kind!r}")


def _entry(eff: dict) -> tuple[str, dict]:
    """The support name and the ``EffectDecl`` keywords of one effect entry.

    A ``spatial2d`` entry lists its two columns under ``covariates`` and
    reads the support ``spatial`` by default; any other kind lists its
    column under ``covariate``, which also names its default support. Only
    ``pspline`` takes ``n_basis`` (a positive integer) and ``spatial2d``
    (a pair of them, ``EffectDecl.n_basis_2d``). A missing required key, an
    unknown key and a bad or misplaced ``n_basis`` are ValidationErrors.
    ``side``, ``role``, ``group`` and the basis size are passed on only
    when the entry sets them, so that ``EffectDecl`` owns their defaults.
    """
    pair = eff.get("kind") == "spatial2d"
    column = "covariates" if pair else "covariate"
    for key in ("id", "kind", column):
        if key not in eff:
            raise ValidationError(f"effect entry missing {key!r}: {eff}")
    where = f"effect {eff['id']!r}"
    _reject_unknown(where, eff, EFFECT_KEYS | {column})
    covariate = tuple(eff[column]) if pair else eff[column]
    decl = {"effect_id": eff["id"], "kind": eff["kind"], "covariate": covariate}
    for key in ("side", "role", "group"):
        if key in eff:
            decl[key] = eff[key]
    if "n_basis" in eff:
        nb = eff["n_basis"]
        if eff["kind"] not in ("pspline", "spatial2d"):
            raise ValidationError(f"{where}: kind {eff['kind']!r} takes no 'n_basis'")
        items = nb if pair and isinstance(nb, (list, tuple)) and len(nb) == 2 else [nb]
        if len(items) != (2 if pair else 1) or not all(type(x) is int and x > 0 for x in items):
            want = "a pair of positive integers" if pair else "a positive integer"
            raise ValidationError(f"{where}: n_basis must be {want}, got {nb!r}")
        decl["n_basis_2d" if pair else "n_basis"] = tuple(items) if pair else nb
    return eff.get("support", "spatial" if pair else covariate), decl


def build_model(cfg: RunConfig, base_dir=".") -> ModelSpec:
    """Materialize the declared effects and priors into a ModelSpec.

    Priors are keyed by tree-node name; the key ``flex_splits`` provides a
    default for every level-4 ``*_flex`` split. ``ModelSpec`` checks that the
    priors fit the tree.
    """
    base_dir = Path(base_dir)
    dists = {name: _build_dist(name, s, base_dir) for name, s in cfg.supports.items()}

    effects = []
    for eff in cfg.model["effects"]:
        support, decl = _entry(eff)
        effects.append(EffectDecl(dist=dists[support], **decl))

    labels = [lab for e in effects for lab in e.labels()]
    declared = dict(cfg.model["priors"])
    flex_default = declared.pop("flex_splits", None)
    if labels and flex_default is not None:
        for s in build_default_tree(labels).splits:
            if "_flex" in s.name:
                declared.setdefault(s.name, flex_default)
    priors = {
        node: PriorSpec(node, entry["family"], {k: v for k, v in entry.items() if k != "family"})
        for node, entry in declared.items()
    }

    return ModelSpec(effects=effects, priors=priors)


def build_settings(cfg: RunConfig, seed_override: int | None = None) -> McmcSettings:
    m = dict(cfg.mcmc)
    if seed_override is not None:
        m["seed"] = int(seed_override)
    _reject_unknown("config mcmc section", m, {f.name for f in fields(McmcSettings)})
    return McmcSettings(**m)


def _parse_float(value: str, column: str, line: int) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ValidationError(
            f"line {line}: cannot parse {column}={value!r} as a number"
        ) from None
    if not math.isfinite(number):  # float() accepts "nan" and "inf"
        raise ValidationError(f"line {line}: {column}={value!r} is not a finite number")
    return number


def _check_row(row: list[str], line: int, header: list[str], response: str,
               needed: list[str]) -> None:
    """Raise the ValidationError of the first fault of one data row: its field
    count, then its response, then each needed column in header order."""
    if len(row) != len(header):
        raise ValidationError(
            f"line {line}: {len(row)} fields, but the header has {len(header)}"
        )
    at = dict(zip(header, row))
    if at[response] not in ("0", "1"):
        raise ValidationError(
            f"line {line}: response {response}={at[response]!r} is not binary 0/1"
        )
    for c in needed:
        _parse_float(at[c], c, line)


def _parse_columns(rows: list[list[str]], header: list[str], response: str,
                   needed: list[str]) -> tuple[np.ndarray, dict[str, np.ndarray]] | None:
    """The response and the needed columns as float arrays, or None when any
    row fails a check of ``_check_row``."""
    if set(map(len, rows)) != {len(header)}:
        return None
    # a repeated column name reads its last column, as csv.DictReader does
    table = dict(zip(header, zip(*rows)))
    if not set(table[response]) <= {"0", "1"}:
        return None
    try:
        # numpy parses each string with Python's float, as _parse_float does
        cols = {c: np.array(table[c], dtype=float) for c in needed}
    except ValueError:
        return None
    if not all(np.isfinite(v).all() for v in cols.values()):
        return None
    return np.array(table[response], dtype=float), cols


def ingest(path, cfg: RunConfig, base_dir=".") -> Dataset:
    """Parse the delimited data file, validate, and tag train/test rows.

    Every data row has one field per header column, and the response is
    binary 0/1; a parse or validation failure names the physical line of
    the file (blank lines are skipped but counted). The file is read in one
    pass and converted column by column; rows are examined one at a time
    only to name the first faulty line. Level-coded supports may declare an
    integer ``offset`` subtracted from the raw column (e.g. ``year`` 2000..
    2019 with offset 1999 becomes levels 1..20); the train/test split always
    tests the raw year against ``split.train_max_year``.
    """
    path = Path(base_dir) / path
    response = cfg.data["response"]
    needed = set()
    for eff in cfg.model["effects"]:
        cov = _entry(eff)[1]["covariate"]
        needed.update(cov if isinstance(cov, tuple) else [cov])
    year_col = cfg.data.get("year")
    if year_col:
        needed.add(year_col)

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = ({response} | needed) - set(header)
        if missing:
            raise ValidationError(f"{path}: missing columns {sorted(missing)}")
        rows, lines = [], []
        for row in reader:
            if row:
                rows.append(row)
                lines.append(reader.line_num)
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    needed = [c for c in header if c in needed]
    parsed = _parse_columns(rows, header, response, needed)
    if parsed is None:
        for row, line in zip(rows, lines):
            _check_row(row, line, header, response, needed)
    y, cols = parsed

    threshold = cfg.split.get("train_max_year")
    if year_col and threshold is not None:
        train_mask = cols[year_col] <= float(threshold)
    else:
        train_mask = np.ones(len(y), dtype=bool)

    for name, spec in cfg.supports.items():
        if spec.get("kind") == "levels" and "offset" in spec and name in cols:
            cols[name] = cols[name] - float(spec["offset"])

    return Dataset(y=y, columns=cols, train_mask=train_mask)
