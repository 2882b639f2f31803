"""Run configuration: declarative JSON description of data, model and run.

The config is a single JSON document (machine round-trippable, no comments)
with five sections: ``data`` (file path and column names), ``supports``
(declared covariate supports; these define the standardization
distributions, not the data), ``model`` (effects and priors), ``mcmc``
(sampler settings) and ``split`` (train/test year threshold). A missing
required key, an unknown key or a value of the wrong type (``VALUE_TYPES``)
in any section, support, effect entry or prior entry is a ValidationError
raised when the config is loaded. See the README for the full schema.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .csvio import read_rows, to_floats
from .distributions import PointCloud, UniformInterval, UniformLevels
from .exceptions import ValidationError
from .mcmc import McmcSettings
from .model import Dataset, EffectDecl, ModelSpec, default_tree, effect_kind
from .priors import PriorSpec

__all__ = ["RunConfig", "ingest", "build_model", "build_settings", "read_point_cloud"]

# the keys a model section and an effect entry may have; "intercept" may only
# be true, since every model has one
MODEL_KEYS = {"intercept", "effects", "priors"}
EFFECT_KEYS = {"id", "kind", "support", "n_basis", "side", "group"}
# the required and the optional keys of each support kind, besides "kind"
SUPPORT_KEYS = {"interval": (("lower", "upper"), ()), "levels": (("n",), ("offset",)),
                "point_cloud": (("path",), ())}

_STRING = (lambda v: isinstance(v, str), "a string")
_NAME = (lambda v: v is None or isinstance(v, str), "a string or null")  # null: the default
_NUMBER = (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v),
           "a finite number")
_INTEGER = (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), "an integer")
# what the value of each config key must be, wherever the key appears: (test,
# description); _check_keys applies it. _entry checks the kind-dependent
# covariate, covariates and n_basis, PriorSpec each family's parameters and
# McmcSettings the mcmc values
VALUE_TYPES = {
    "output": _STRING,
    "path": _STRING, "response": _STRING, "year": _NAME,  # data; path also of a point cloud
    "train_max_year": (lambda v: v is None or _NUMBER[0](v), "a finite number or null"),
    "kind": _STRING, "lower": _NUMBER, "upper": _NUMBER, "n": _INTEGER, "offset": _INTEGER,
    "effects": (lambda v: isinstance(v, (list, tuple)), "a list"),
    "id": _STRING, "support": _STRING, "side": _NAME, "group": _NAME,
    "family": _STRING,
}


@dataclass(frozen=True)
class RunConfig:
    data: dict
    supports: dict
    model: dict
    mcmc: dict = field(default_factory=dict)
    split: dict = field(default_factory=dict)
    output: str = "out"

    def __post_init__(self):
        _check_keys("config data section", self.data, ("path", "response"), ("year",))
        _check_keys("config split section", self.split, (), ("train_max_year",))
        _check_keys("config model section", self.model, ("effects", "priors"), MODEL_KEYS)
        if self.model.get("intercept", True) is not True:
            raise ValidationError(
                "config model intercept must be true: every model has an intercept"
            )
        _check_keys("config supports section", self.supports, ())
        for name, spec in self.supports.items():
            _check_keys(f"support {name!r}", spec, ("kind",))
            if spec["kind"] not in SUPPORT_KEYS:
                raise ValidationError(f"support {name!r}: unknown kind {spec['kind']!r}")
            required, optional = SUPPORT_KEYS[spec["kind"]]
            _check_keys(f"support {name!r}", spec, ("kind", *required), optional)
        _check_keys("config model priors", self.model["priors"], ())
        for node, entry in self.model["priors"].items():
            # PriorSpec checks the parameters of each family
            _check_keys(f"prior {node!r}", entry, ("family",))
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
        _check_keys("config", d, ("data", "supports", "model"), {f.name for f in fields(cls)})
        return cls(**d)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path) -> "RunConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _check_keys(where: str, entry: dict, required, optional=None) -> None:
    """Raise a ValidationError if ``entry`` is not a dict, for the first key of
    ``required`` that it lacks, then, unless ``optional`` is None (any key
    goes), for its keys in neither ``required`` nor ``optional``, and last for
    the first key of ``required`` or ``optional`` whose value ``VALUE_TYPES``
    rejects."""
    if not isinstance(entry, dict):
        raise ValidationError(f"{where} must be a JSON object, got {entry!r}")
    for key in required:
        if key not in entry:
            raise ValidationError(f"{where} is missing {key!r}")
    unknown = set(entry) - set(required) - set(optional) if optional is not None else ()
    if unknown:
        raise ValidationError(f"{where} has unknown keys: {sorted(unknown)}")
    for key in (*required, *(optional or ())):
        if key in entry and key in VALUE_TYPES and not VALUE_TYPES[key][0](entry[key]):
            raise ValidationError(
                f"{where}: {key!r} must be {VALUE_TYPES[key][1]}, got {entry[key]!r}"
            )


def read_point_cloud(path) -> np.ndarray:
    """Two-column delimited file of planar points, one finite (x, y) per row.

    Blank lines are skipped, and so is a first row that does not parse as
    numbers (a header). Any other row that is not two finite numbers is a
    ValidationError naming the file and its physical line.
    """
    rows, lines = read_rows(path)
    if rows:
        try:
            list(map(float, rows[0]))
        except ValueError:  # a header
            del rows[0], lines[0]
    if not rows:
        raise ValidationError(f"{path}: no points found")
    return np.column_stack(to_floats(path, rows, lines, ("x", "y"), (0, 1), width_of="a point"))


def _build_dist(name: str, spec: dict, base_dir: Path):
    kind = spec["kind"]
    if kind == "point_cloud":
        return PointCloud(read_point_cloud(base_dir / spec["path"]))
    try:
        if kind == "interval":
            return UniformInterval(float(spec["lower"]), float(spec["upper"]))
        return UniformLevels(int(spec["n"]))
    except ValidationError as err:
        raise ValidationError(f"support {name!r}: {err}") from None


def _entry(eff: dict) -> tuple[str, dict]:
    """The support name and the ``EffectDecl`` keywords of one effect entry.

    A kind that reads two columns in ``model.EFFECT_KINDS`` lists them under
    ``covariates``, a list of two distinct strings, and reads the support
    ``spatial`` by default; any other kind lists its column under
    ``covariate``, a string, which also names its default support. The
    kinds with a basis size take ``n_basis``: a positive integer, or a pair
    of them for a two-column kind (``EffectDecl.n_basis_2d``). A missing
    required key, an unknown key or kind, a value of the wrong type, a bad
    column name list and a bad or misplaced ``n_basis`` are
    ValidationErrors naming the effect and the key.
    ``side``, ``group`` and the basis size are passed on only when the
    entry sets them, so that ``EffectDecl`` owns their defaults.
    """
    _check_keys("effect entry", eff, ())
    where = f"effect {eff['id']!r}" if isinstance(eff.get("id"), str) else f"effect entry {eff}"
    _check_keys(where, eff, ("id", "kind"))
    kind = effect_kind(eff["kind"])
    pair = kind.columns == 2
    column = "covariates" if pair else "covariate"
    _check_keys(where, eff, ("id", "kind", column), EFFECT_KEYS)
    covariate = eff[column]
    names = covariate if pair and isinstance(covariate, (list, tuple)) else [covariate]
    if not (all(isinstance(c, str) for c in names)
            and len(set(names)) == len(names) == kind.columns):
        want = "a list of two distinct strings" if pair else "a string"
        raise ValidationError(f"{where}: {column!r} must be {want}, got {covariate!r}")
    decl = {"effect_id": eff["id"], "kind": eff["kind"],
            "covariate": tuple(names) if pair else covariate}
    for key in ("side", "group"):
        if key in eff:
            decl[key] = eff[key]
    if "n_basis" in eff:
        nb = eff["n_basis"]
        size = kind.basis_size
        if size is None:
            raise ValidationError(f"{where}: kind {eff['kind']!r} takes no 'n_basis'")
        items = nb if pair and isinstance(nb, (list, tuple)) and len(nb) == 2 else [nb]
        if len(items) != kind.columns or not all(type(x) is int and x > 0 for x in items):
            want = "a pair of positive integers" if pair else "a positive integer"
            raise ValidationError(f"{where}: n_basis must be {want}, got {nb!r}")
        decl[size] = tuple(items) if pair else nb
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

    declared = dict(cfg.model["priors"])
    flex_default = declared.pop("flex_splits", None)
    if effects and flex_default is not None:
        for s in default_tree(effects).splits:
            if "_flex" in s.name:
                declared.setdefault(s.name, flex_default)
    priors = {
        node: PriorSpec(node, entry["family"], {k: v for k, v in entry.items() if k != "family"})
        for node, entry in declared.items()
    }

    return ModelSpec(effects=effects, priors=priors)


def build_settings(cfg: RunConfig, seed_override: int | None = None) -> McmcSettings:
    _check_keys("config mcmc section", cfg.mcmc, (), {f.name for f in fields(McmcSettings)})
    m = dict(cfg.mcmc)
    if seed_override is not None:
        m["seed"] = int(seed_override)
    return McmcSettings(**m)


def ingest(path, cfg: RunConfig, base_dir=".") -> Dataset:
    """Parse the delimited data file, validate, and tag train/test rows.

    Every data row has one field per header column, and the response is
    binary 0/1; a parse or validation failure names the file and the
    physical line (blank lines are skipped but counted), as
    ``csvio.to_floats`` does. The integer ``offset`` of a ``levels`` support
    is subtracted from each column an effect reads through it (e.g. ``year``
    2000..2019 with offset 1999 becomes levels 1..20); a column read through
    two supports of different offsets (a support without one has 0) is a
    ValidationError. ``split.train_max_year`` always tests the raw year.
    """
    path = Path(base_dir) / path
    response = cfg.data["response"]
    offsets = {}  # each column an effect reads: (support, offset)
    for eff in cfg.model["effects"]:
        support, decl = _entry(eff)
        read = (support, cfg.supports[support].get("offset", 0))
        cov = decl["covariate"]
        for column in cov if isinstance(cov, tuple) else [cov]:
            first = offsets.setdefault(column, read)
            if first[1] != read[1]:
                raise ValidationError(
                    f"column {column!r} is read through support {first[0]!r} (offset "
                    f"{first[1]}) and support {read[0]!r} (offset {read[1]})"
                )
    needed = set(offsets)
    year_col = cfg.data.get("year")
    if year_col:
        needed.add(year_col)

    rows, lines = read_rows(path)
    header = rows[0] if rows else []
    missing = ({response} | needed) - set(header)
    if missing:
        raise ValidationError(f"{path}: missing columns {sorted(missing)}")
    if len(rows) < 2:
        raise ValidationError(f"{path}: no data rows")
    # a repeated column name reads its last column, as csv.DictReader does
    index = {c: i for i, c in enumerate(header)}
    take = sorted(index[c] for c in needed)
    y, *values = to_floats(path, rows[1:], lines[1:], header, [index[response], *take],
                           response=index[response])
    cols = {header[i]: v for i, v in zip(take, values)}

    threshold = cfg.split.get("train_max_year")
    if year_col and threshold is not None:
        train_mask = cols[year_col] <= float(threshold)
    else:
        train_mask = np.ones(len(y), dtype=bool)

    for column, (_, offset) in offsets.items():
        if offset:
            cols[column] = cols[column] - float(offset)

    return Dataset(y=y, columns=cols, train_mask=train_mask)
