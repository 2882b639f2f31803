"""Command-line entry point.

Subcommands: fit, predict, metrics, partition, sensitivity, prior-check.
All outputs are delimited text files with headers plus a JSON run manifest
(``manifest.json`` for ``fit``, ``manifest_<command>.json`` for the others);
failures exit nonzero with a one-line machine-readable error record on
stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
from pathlib import Path

import numpy as np
import scipy
from scipy.stats import kstest

from . import __version__
from .config import RunConfig, build_model, build_settings, ingest
from .csvio import first_row, read_columns, write_table
from .exceptions import ValidationError
from .mcmc import Draws, FitResult, fit, hyper_param_names, metrics, predict
from .model import assemble
from .partition import phi, sensitivity_sweep
from .priors import marginal_cdfs
from .tree import natural_columns

def _write_manifest(outdir: Path, cfg: RunConfig, args, extra=None) -> None:
    manifest = {
        "command": args.command,
        "config": str(Path(args.config).resolve()),
        "seed": args.seed,
        "settings": dict(cfg.mcmc),
        "versions": {
            "hdsdm": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if args.seed is not None:
        manifest["settings"]["seed"] = args.seed
    if extra:
        manifest.update(extra)
    name = "manifest.json" if args.command == "fit" else f"manifest_{args.command}.json"
    (outdir / name).write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _peak_rss_mb(who: int) -> float:
    """Peak resident set size in MB: of this process (``RUSAGE_SELF``), or of
    the largest of its reaped children, such as the chain workers
    (``RUSAGE_CHILDREN``). ``ru_maxrss`` is in kilobytes, on macOS in bytes."""
    return resource.getrusage(who).ru_maxrss / (1024.0 ** (2 if sys.platform == "darwin" else 1))


def _read_draws(path: Path, header: list[str]) -> np.ndarray:
    """The rows of a table written by `fit`, `predict` or `partition`, once its
    header is the expected one, each one finite number per column, as
    ``csvio.read_columns`` reads them."""
    found = first_row(path)
    for i, (got, want) in enumerate(itertools.zip_longest(found, header)):
        if got != want:
            raise ValidationError(f"{path.name} does not match this config: column "
                                  f"{i + 1} is {got!r}, expected {want!r}")
    table = np.column_stack(read_columns(path, header, range(len(header))))
    if not len(table):
        raise ValidationError(f"{path}: no rows below the header")
    return table


def _coefficient_columns(assembled) -> list[str]:
    return [f"{l}[{i}]" for l in assembled.leaf_ids for i in range(assembled.effects[l].n_coef)]


def _save_fit(outdir: Path, result: FitResult) -> None:
    chains, n_keep, n_hyper = result.hyper_draws.shape
    n = chains * n_keep
    write_table(outdir / "samples.csv", ["chain", "draw"] + result.hyper_names,
                np.indices((chains, n_keep)).reshape(2, n).T,
                result.hyper_draws.reshape(n, n_hyper))
    coef = result.flat_coefficients()
    write_table(outdir / "coefficients.csv", ["sample"] + _coefficient_columns(result.assembled),
                np.arange(n), *(coef[l] for l in result.assembled.leaf_ids))
    for name, header, table in (("rhat.csv", ["param", "split_rhat"], result.rhat),
                                ("acceptance.csv", ["kernel", "rate"], result.acceptance)):
        write_table(outdir / name, header, list(table), [float(v) for v in table.values()])
    if result.assembled.tree is not None:
        (outdir / "tree.json").write_text(
            json.dumps(result.assembled.tree.to_dict(), indent=2)
        )


def _load_samples(outdir: Path, assembled) -> Draws:
    """The retained draws written by `fit`, checked against the configured model:
    the ``chain`` and ``draw`` columns of ``samples.csv`` run over every draw of
    every chain in order, and the ``sample`` column of ``coefficients.csv``
    counts its rows from 0."""
    samples, coefficients = outdir / "samples.csv", outdir / "coefficients.csv"
    hyper = _read_draws(samples, ["chain", "draw"] + hyper_param_names(assembled))
    coef = _read_draws(coefficients, ["sample"] + _coefficient_columns(assembled))
    chains = max(int(np.count_nonzero(hyper[:, 1] == 0)), 1)
    if not np.array_equal(hyper[:, :2], np.indices((chains, len(hyper) // chains))
                          .reshape(2, -1).T):
        raise ValidationError(f"{samples}: the chain and draw columns are not "
                              f"{chains} chains of equally many draws, in order")
    if not np.array_equal(coef[:, 0], np.arange(len(coef))):
        raise ValidationError(f"{coefficients}: the sample column does not count the rows from 0")
    if len(hyper) != len(coef):
        raise ValidationError(f"samples.csv has {len(hyper)} rows and coefficients.csv "
                              f"{len(coef)}; they come from different fits")
    mu = hyper[:, -1]  # the last of hyper_param_names
    ends = np.cumsum([1] + [assembled.effects[l].n_coef for l in assembled.leaf_ids])
    return Draws(mu=mu.reshape(chains, -1), coefficients={
        l: coef[:, a:b].copy().reshape(chains, -1, b - a)
        for l, a, b in zip(assembled.leaf_ids, ends[:-1], ends[1:])
    })


def _cmd_fit(cfg: RunConfig, args, outdir: Path, base_dir: Path) -> None:
    data = ingest(cfg.data["path"], cfg, base_dir)
    model = build_model(cfg, base_dir)
    settings = build_settings(cfg, args.seed)
    result = fit(model, data, settings)
    _save_fit(outdir, result)
    _write_manifest(outdir, cfg, args, {"n_train": data.n_train, "n_total": data.n,
                                        "timings_s": result.timings,
                                        "chain_workers": result.chain_workers,
                                        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
                                        "peak_rss_children_mb":
                                            _peak_rss_mb(resource.RUSAGE_CHILDREN)})
    worst = max(
        (v for v in result.rhat.values() if np.isfinite(v)), default=float("nan")
    )
    print(
        f"fit: {result.n_samples} samples from {settings.chains} chains; "
        f"max split-Rhat {worst:.3f}; outputs in {outdir}"
    )


def _cmd_predict(cfg: RunConfig, args, outdir: Path, base_dir: Path) -> None:
    data = ingest(cfg.data["path"], cfg, base_dir)
    model = build_model(cfg, base_dir)
    assembled = assemble(model, None)  # predict evaluates the designs at the test rows only
    samples = _load_samples(outdir, assembled)
    test_mask = ~data.train_mask
    if not test_mask.any():
        raise ValidationError("no test rows under the configured split")
    p_hat = predict(samples, data, assembled=assembled, mask=test_mask)
    write_table(outdir / "predictions.csv", ["row", "y", "p_hat"],
                np.flatnonzero(test_mask), data.y[test_mask].astype(int), p_hat)
    _write_manifest(outdir, cfg, args, {"n_test": int(test_mask.sum())})
    print(f"predict: wrote {p_hat.size} test predictions to {outdir / 'predictions.csv'}")


def _cmd_metrics(cfg: RunConfig, args, outdir: Path, base_dir: Path) -> None:
    rows = _read_draws(outdir / "predictions.csv", ["row", "y", "p_hat"])
    out = metrics(rows[:, 2], rows[:, 1])
    write_table(outdir / "metrics.csv", list(out), *([float(v)] for v in out.values()))
    print("metrics: " + ", ".join(f"{k}={v:.4f}" for k, v in out.items()))


def _cmd_partition(cfg: RunConfig, args, outdir: Path, base_dir: Path) -> None:
    model = build_model(cfg, base_dir)
    assembled = assemble(model, None)
    samples = _load_samples(outdir, assembled)
    res = phi(samples, assembled)
    write_table(outdir / "phi_mean.csv", ["group", "phi_mean", "s2_mean"],
                *zip(*res.summary_rows()))
    write_table(outdir / "phi_samples.csv", ["sample"] + res.group_names,
                np.arange(len(res.phi)), res.phi)
    skipped = f" ({res.n_skipped} zero-variance samples skipped)" if res.n_skipped else ""
    print(
        "partition: "
        + ", ".join(f"{g}={m:.3f}" for g, m, _ in res.summary_rows())
        + skipped
    )


def _cmd_sensitivity(cfg: RunConfig, args, outdir: Path, base_dir: Path) -> None:
    data = ingest(cfg.data["path"], cfg, base_dir)
    model = build_model(cfg, base_dir)
    settings = build_settings(cfg, args.seed)
    tags = {}  # the file tag of each q: its "%g" form, with p for the point
    for q in args.q:
        tag = ("%g" % q).replace(".", "p")
        if tag in tags:
            raise ValidationError(f"--q values {tags[tag]!r} and {q!r} would both write "
                                  f"the files tagged q{tag}")
        tags[tag] = q
    entries = sensitivity_sweep(model, data, args.q, settings, split_name=args.split)
    for tag, entry in zip(tags, entries):
        write_table(outdir / f"phi_mean_q{tag}.csv", ["group", "phi_mean", "s2_mean"],
                    *zip(*entry.partition.summary_rows()))
        trend_rows = [(group, float(x), float(t)) for group, (grid, curve) in entry.trends.items()
                      for x, t in zip(grid, curve)]
        write_table(outdir / f"trends_q{tag}.csv", ["group", "x", "trend"], *zip(*trend_rows))
    _write_manifest(outdir, cfg, args, {"q_values": list(args.q)})
    print(f"sensitivity: wrote {len(entries)} sweeps (q={args.q}) to {outdir}")


def _cmd_prior_check(cfg: RunConfig, args, outdir: Path, base_dir: Path) -> None:
    model = build_model(cfg, base_dir)
    if not model.effects:
        raise ValidationError("an intercept-only model has no variance proportions to check")
    settings = build_settings(cfg, args.seed)
    result = fit(model, None, settings, likelihood_weight=0.0)
    tree = result.assembled.tree
    cdfs = marginal_cdfs(tree, result.assembled.model.priors)

    rows = []
    # column col of hyper_draws holds natural coordinate col of the tree
    for col, (_, key) in enumerate(natural_columns(tree)):
        draws = result.hyper_draws[:, :, col].ravel()
        res = kstest(draws, cdfs[key])
        rows.append(
            [key, draws.size, float(res.statistic), float(res.pvalue),
             float(np.median(draws))]
        )
        print(
            f"prior-check: {key}: median={np.median(draws):.4f} "
            f"KS={res.statistic:.4f} p={res.pvalue:.4f}"
        )
    write_table(outdir / "prior_check.csv", ["param", "n", "ks_stat", "pvalue", "sample_median"],
                *zip(*rows))
    _write_manifest(outdir, cfg, args, {"prior_only": True})


_COMMANDS = {
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "metrics": _cmd_metrics,
    "partition": _cmd_partition,
    "sensitivity": _cmd_sensitivity,
    "prior-check": _cmd_prior_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdsdm",
        description="Variance-decomposition priors for Bernoulli species distribution models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override mcmc.seed")
        p.add_argument("--out", default=None, help="override the config output directory")
        if name == "sensitivity":
            p.add_argument(
                "--q",
                type=float,
                nargs="+",
                default=[1.0, 0.5, 1.0 / 6.0],
                help="Dirichlet concentrations to sweep",
            )
            p.add_argument(
                "--split",
                default="covariates",
                help="tree split whose prior is swept",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config)
        base_dir = Path(args.config).resolve().parent
        outdir = Path(args.out) if args.out else base_dir / cfg.output
        outdir.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](cfg, args, outdir, base_dir)
    except Exception as err:  # noqa: BLE001 - single CLI failure boundary
        record = {"error": type(err).__name__, "message": str(err)}
        print(json.dumps(record), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
