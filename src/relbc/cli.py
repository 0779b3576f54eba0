"""Command-line surface: field checks, game values, attacks, sweeps, hiding.

Every command is deterministic given its configuration and seed, and every
JSON output embeds the fully resolved configuration for replay.  A config
file is a flat `key = value` text file; explicit flags take precedence over
config entries, which take precedence over defaults.

Exit codes: 0 success, 2 configuration error, 3 capability error
(enumeration/search caps), 4 property failure.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

import click
from click.core import ParameterSource

from .adversary import CausalModel, build_attack, causality_check, tower_gamma
from .analysis import (
    empirical_upper_constant,
    make_report,
    trend_sweep,
    write_sweep_csv,
)
from .errors import CapabilityError
from .field import FieldSpec
from .games import (
    DetStrategy,
    GameDist,
    best_response_search,
    brute_force_value,
    win_probability,
)
from .protocol import ProtocolParams, Variant, hiding_distribution, run_honest

EXIT_CONFIG = 2
EXIT_CAPABILITY = 3
EXIT_PROPERTY = 4


def load_config(path: str) -> dict[str, str]:
    config = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line is not key = value: {line!r}")
            key, value = line.split("=", 1)
            config[key.strip().replace("-", "_")] = value.strip()
    return config


def resolve(ctx: click.Context, config: dict, name: str, conv=str):
    """Flag > config file > default."""
    if (ctx.get_parameter_source(name) is ParameterSource.DEFAULT
            and name in config):
        return conv(config[name])
    return ctx.params[name]


def _field_from(ctx, config) -> FieldSpec:
    p = resolve(ctx, config, "p", int)
    n = resolve(ctx, config, "n", int)
    modulus = resolve(ctx, config, "modulus")
    mod = None
    if modulus:
        mod = [int(c) for c in str(modulus).replace(" ", "").split(",")]
    return FieldSpec(p, n, mod)


def _emit(data: dict, out: str | None) -> None:
    text = json.dumps(data, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    click.echo(text)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guard(fn):
    try:
        return fn()
    except CapabilityError as exc:
        _fail(EXIT_CAPABILITY, str(exc))
    except (ValueError, OSError, KeyError) as exc:
        _fail(EXIT_CONFIG, str(exc))


def field_options(fn):
    fn = click.option("--modulus", default="",
                      help="Reduction polynomial coefficients, constant term "
                           "first, comma separated.")(fn)
    fn = click.option("--n", default=1, show_default=True,
                      help="Extension degree.")(fn)
    fn = click.option("--p", default=2, show_default=True,
                      help="Prime characteristic.")(fn)
    fn = click.option("--config", "config_path", default=None,
                      type=click.Path(exists=True),
                      help="Flat key=value config file.")(fn)
    return fn


@click.group()
def main():
    """Relativistic bit-commitment experiments over GF(Q)."""


@main.command("field-check")
@field_options
@click.option("--triples", default=10000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default=None, type=click.Path())
@click.pass_context
def cmd_field_check(ctx, config_path, p, n, modulus, triples, seed, out):
    """Run the field axiom suite on the configured field."""
    config = load_config(config_path) if config_path else {}
    spec = _guard(lambda: _field_from(ctx, config))
    triples = resolve(ctx, config, "triples", int)
    seed = resolve(ctx, config, "seed", int)
    rng = random.Random(f"{seed}:field-check")
    q = spec.q
    failures = []
    for _ in range(triples):
        a, b, c = (rng.randrange(q) for _ in range(3))
        if spec.add(a, b) != spec.add(b, a):
            failures.append(("add_commutes", a, b, c))
        if spec.add(spec.add(a, b), c) != spec.add(a, spec.add(b, c)):
            failures.append(("add_assoc", a, b, c))
        if spec.mul(a, b) != spec.mul(b, a):
            failures.append(("mul_commutes", a, b, c))
        if spec.mul(spec.mul(a, b), c) != spec.mul(a, spec.mul(b, c)):
            failures.append(("mul_assoc", a, b, c))
        if spec.mul(a, spec.add(b, c)) != spec.add(spec.mul(a, b), spec.mul(a, c)):
            failures.append(("distributes", a, b, c))
        if spec.add(a, spec.neg(a)) != 0:
            failures.append(("add_inverse", a, b, c))
        if a and spec.mul(a, spec.inv(a)) != 1:
            failures.append(("mul_inverse", a, b, c))
    frobenius_ok = all(spec.pow(a, q) == a for a in range(q))
    if not frobenius_ok:
        failures.append(("frobenius_fixed_point", None, None, None))
    report = {
        "schema": 1,
        "config": {"field": spec.describe(), "triples": triples, "seed": seed},
        "ok": not failures,
        "violations": [list(f) for f in failures[:10]],
    }
    _emit(report, out)
    if failures:
        sys.exit(EXIT_PROPERTY)


def _gamma_for(ctx, config, spec) -> Fraction:
    raw = resolve(ctx, config, "gamma")
    if raw in (None, ""):
        return Fraction(1, spec.q)
    try:
        return Fraction(raw)
    except ZeroDivisionError:
        raise ValueError(f"gamma {raw!r} has a zero denominator") from None


def _game_result(spec, dist, method, restarts, max_iters, seed):
    if method == "brute":
        return brute_force_value(dist)
    if method == "search":
        return best_response_search(dist, restarts=restarts,
                                    max_iters=max_iters, seed=seed)
    raise ValueError(f"unknown game-value method {method!r}")


@main.command("game-value")
@field_options
@click.option("--gamma", default="", help="Zero-input mass as a fraction "
                                          "(default 1/Q: uniform).")
@click.option("--method", default="brute", show_default=True,
              type=click.Choice(["brute", "search"]))
@click.option("--restarts", default=64, show_default=True)
@click.option("--max-iters", default=200, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default=None, type=click.Path())
@click.option("--strategy-out", default=None, type=click.Path(),
              help="Persist the achieving strategy tables as JSON.")
@click.pass_context
def cmd_game_value(ctx, config_path, p, n, modulus, gamma, method, restarts,
                   max_iters, seed, out, strategy_out):
    """Compute or search the game value for (Q, gamma)."""
    config = load_config(config_path) if config_path else {}

    def run():
        spec = _field_from(ctx, config)
        g = _gamma_for(ctx, config, spec)
        resolved = {"method": resolve(ctx, config, "method"),
                    "restarts": resolve(ctx, config, "restarts", int),
                    "max_iters": resolve(ctx, config, "max_iters", int),
                    "seed": resolve(ctx, config, "seed", int)}
        result = _game_result(spec, GameDist(spec, g), **resolved)
        return spec, g, result, resolved

    spec, g, result, resolved = _guard(run)
    data = {
        "schema": 1,
        "config": {"field": spec.describe(), "gamma": str(g), **resolved,
                   "meta": result.meta},
        "result": result.to_dict(),
    }
    if strategy_out:
        with open(strategy_out, "w") as fh:
            json.dump(result.strategy.to_dict(), fh, indent=2)
    _emit(data, out)


def _strategy_inputs(ctx, config) -> dict:
    """Resolved inputs of the plugged game strategy, for the JSON config."""
    return {"strategy": resolve(ctx, config, "strategy"),
            "strategy_file": resolve(ctx, config, "strategy_file"),
            "restarts": resolve(ctx, config, "restarts", int)}


def _plugged_strategy(spec, model, resolved: dict):
    """Game strategy for the tower's windowed input distribution."""
    source = resolved["strategy"]
    dist = GameDist(spec, tower_gamma(spec, model))
    if source == "file":
        path = resolved["strategy_file"]
        if not path:
            raise ValueError("--strategy-file is required with --strategy file")
        with open(path) as fh:
            return DetStrategy.from_dict(json.load(fh))
    result = _game_result(spec, dist, "brute" if source == "brute" else "search",
                          resolved["restarts"], 200, resolved["seed"])
    return result.strategy


@main.command("attack")
@field_options
@click.option("--m", default=6, show_default=True)
@click.option("--variant", default="symmetrized", show_default=True,
              type=click.Choice(["standard", "symmetrized"]))
@click.option("--rho", default=2, show_default=True)
@click.option("--k0", default=0, show_default=True)
@click.option("--method", default="exact", show_default=True,
              type=click.Choice(["exact", "mc"]))
@click.option("--samples", default=100000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--strategy", default="brute", show_default=True,
              type=click.Choice(["brute", "search", "file"]))
@click.option("--strategy-file", default=None, type=click.Path())
@click.option("--restarts", default=64, show_default=True)
@click.option("--upper-c", default=1.0, show_default=True)
@click.option("--transcript-out", default=None, type=click.Path(),
              help="Persist sample cheating transcripts as JSON.")
@click.option("--transcript-count", default=5, show_default=True)
@click.option("--out", default=None, type=click.Path())
@click.pass_context
def cmd_attack(ctx, config_path, p, n, modulus, m, variant, rho, k0, method,
               samples, seed, strategy, strategy_file, restarts, upper_c,
               transcript_out, transcript_count, out):
    """Build the recursive attack and measure its cheating probability."""
    config = load_config(config_path) if config_path else {}

    def run():
        spec = _field_from(ctx, config)
        model = CausalModel(resolve(ctx, config, "rho", int),
                            resolve(ctx, config, "k0", int))
        resolved = {"method": resolve(ctx, config, "method"),
                    "samples": resolve(ctx, config, "samples", int),
                    "seed": resolve(ctx, config, "seed", int),
                    **_strategy_inputs(ctx, config),
                    "upper_c": resolve(ctx, config, "upper_c", float)}
        game_strategy = _plugged_strategy(spec, model, resolved)
        cheat = build_attack(spec, Variant(resolve(ctx, config, "variant")),
                             resolve(ctx, config, "m", int), model,
                             game_strategy)
        report = make_report(cheat, method=resolved["method"],
                             samples=resolved["samples"], seed=resolved["seed"],
                             upper_c=resolved["upper_c"])
        return spec, cheat, report, resolved

    spec, cheat, report, resolved = _guard(run)
    data = {
        "schema": 1,
        "config": {"field": spec.describe(), "m": report.m,
                   "variant": report.variant.value, "rho": report.rho,
                   "k0": report.k0, **resolved, "lineage": cheat.lineage},
        "report": report.to_dict(),
        "game_strategy": cheat.game_strategy.to_dict()
        if cheat.game_strategy else None,
    }
    if transcript_out:
        rng = random.Random(f"{resolved['seed']}:attack-transcripts")
        params = cheat.params
        samples_list = []
        for _ in range(transcript_count):
            d = rng.randrange(2)
            xs = tuple(rng.randrange(spec.q) for _ in range(params.n_challenges))
            ys = cheat.responses(d, xs)
            from .protocol import Transcript, verify_values
            samples_list.append(Transcript(
                params, d, xs, ys, verify_values(params, d, xs, ys)).to_dict())
        with open(transcript_out, "w") as fh:
            json.dump(samples_list, fh, indent=2)
    _emit(data, out)


def parse_m_list(raw: str) -> list[int]:
    """Either "4..31" or a comma list "4,7,10"; empty string means no rows."""
    raw = raw.strip()
    if not raw:
        return []
    if ".." in raw:
        lo, hi = raw.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in raw.split(",")]


@main.command("sweep")
@field_options
@click.option("--m-list", default="", help='Protocol lengths, "4..13" or "4,7,10".')
@click.option("--variant", default="standard", show_default=True,
              type=click.Choice(["standard", "symmetrized"]))
@click.option("--rho", default=2, show_default=True)
@click.option("--k0", default=0, show_default=True)
@click.option("--samples", default=20000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--exact-cap", default=200000, show_default=True)
@click.option("--strategy", default="brute", show_default=True,
              type=click.Choice(["brute", "search", "file"]))
@click.option("--strategy-file", default=None, type=click.Path())
@click.option("--restarts", default=64, show_default=True)
@click.option("--upper-c", default=1.0, show_default=True)
@click.option("--format", "fmt", default="csv", show_default=True,
              type=click.Choice(["csv", "json"]))
@click.option("--out", required=True, type=click.Path())
@click.pass_context
def cmd_sweep(ctx, config_path, p, n, modulus, m_list, variant, rho, k0,
              samples, seed, exact_cap, strategy, strategy_file, restarts,
              upper_c, fmt, out):
    """Sweep attack probabilities over protocol lengths into a table file."""
    config = load_config(config_path) if config_path else {}

    def run():
        spec = _field_from(ctx, config)
        ms = parse_m_list(resolve(ctx, config, "m_list"))
        resolved = {"m_list": ",".join(map(str, ms)),
                    "seed": resolve(ctx, config, "seed", int),
                    "samples": resolve(ctx, config, "samples", int),
                    "variant": resolve(ctx, config, "variant"),
                    "rho": resolve(ctx, config, "rho", int),
                    "k0": resolve(ctx, config, "k0", int),
                    "exact_cap": resolve(ctx, config, "exact_cap", int),
                    **_strategy_inputs(ctx, config),
                    "upper_c": resolve(ctx, config, "upper_c", float)}
        model = CausalModel(resolved["rho"], resolved["k0"])
        game_strategy = _plugged_strategy(spec, model, resolved)
        rows = trend_sweep(
            spec, ms, game_strategy, model, Variant(resolved["variant"]),
            exact_cap=resolved["exact_cap"], samples=resolved["samples"],
            seed=resolved["seed"], upper_c=resolved["upper_c"])
        return spec, rows, resolved

    spec, rows, resolved = _guard(run)
    if fmt == "csv":
        write_sweep_csv(rows, out)
    else:
        with open(out, "w") as fh:
            json.dump({"schema": 1,
                       "config": {"field": spec.describe(), **resolved},
                       "rows": [r.to_dict() for r in rows]}, fh, indent=2)
    if rows:
        click.echo(f"rows: {len(rows)}  empirical upper constant c* = "
                   f"{empirical_upper_constant(rows):.4f}")
    else:
        click.echo("rows: 0")


@main.command("hiding")
@field_options
@click.option("--m", default=3, show_default=True)
@click.option("--variant", default="standard", show_default=True,
              type=click.Choice(["standard", "symmetrized"]))
@click.option("--out", default=None, type=click.Path())
@click.pass_context
def cmd_hiding(ctx, config_path, p, n, modulus, m, variant, out):
    """Verify exact view-distribution equality for every pre-reveal prefix."""
    config = load_config(config_path) if config_path else {}

    def run():
        spec = _field_from(ctx, config)
        params = ProtocolParams(spec, resolve(ctx, config, "m", int),
                                Variant(resolve(ctx, config, "variant")))
        prefixes = []
        for r in range(1, params.n_rounds):
            dists = hiding_distribution(params, r)
            prefixes.append({"upto_round": r, "equal": dists[0] == dists[1]})
        full = hiding_distribution(params, params.n_rounds)
        return params, prefixes, full[0] == full[1]

    params, prefixes, full_equal = _guard(run)
    data = {
        "schema": 1,
        "config": {"field": params.field.describe(), "m": params.m,
                   "variant": params.variant.value},
        "prefixes": prefixes,
        "reveal_discloses_bit": not full_equal,
    }
    _emit(data, out)
    if not all(pref["equal"] for pref in prefixes):
        sys.exit(EXIT_PROPERTY)


if __name__ == "__main__":
    main()
