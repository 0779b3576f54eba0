"""Command-line surface: field checks, game values, attacks, sweeps, hiding.

Every command is deterministic given its configuration and seed, and every
JSON output embeds the fully resolved configuration for replay: the field,
then every input option of the command in declaration order as click
resolved it, then the values the command normalised and its extras.
Options that only name an output (`out`, `format`, `strategy_out`,
`transcript_out`, `transcript_count`) are not recorded.  Every JSON document
goes through one writer: indented, ending in a newline, and never holding
NaN or an infinity, which are not JSON.  A config
file is a flat `key = value` text file that becomes the command's click
default map: it may set any option of its command by its long name, each
value is checked by that option's type, and explicit flags take precedence
over config entries, which take precedence over defaults.

Exit codes: 0 success, 2 configuration error (including a malformed config
line, a config key that names no option of the command, a config value of
the wrong type or a malformed strategy file), 3 capability error
(enumeration/search caps), 4 property failure.
"""

from __future__ import annotations

import functools
import json
import random
import sys
from fractions import Fraction
from typing import Iterator

import click

from .adversary import CausalModel, _drawn_columns, build_attack, tower_gamma
from .analysis import (
    check_upper_c,
    empirical_upper_constant,
    evaluate,
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
)
from .protocol import (
    ProtocolParams,
    Transcript,
    Variant,
    _ByteStream,
    hiding_distributions,
    verify_values,
)

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
            key = key.strip().replace("-", "_")
            if key in config:
                raise ValueError(f"config key given twice: {key!r}")
            config[key] = value.strip()
    return config


def _field_from(p: int, n: int, modulus: str) -> FieldSpec:
    mod = None
    if modulus:
        try:
            mod = [int(c) for c in modulus.replace(" ", "").split(",")]
        except ValueError:
            raise ValueError(f"--modulus {modulus!r} is not a comma list of"
                             " integers") from None
    return FieldSpec(p, n, mod)


# Options the config does not list: the field's three, recorded as "field",
# and those that only name an output.
_UNLISTED = frozenset({"p", "n", "modulus", "out", "format", "strategy_out",
                       "transcript_out", "transcript_count"})


def _document(spec: FieldSpec, body: dict, **resolved) -> dict:
    """The running command's JSON document: schema, config, then body.

    The config is the field, then every other input option in declaration
    order (ctx.params follows command-line order), then `resolved`: values
    the command normalised keep their option's place, extras come last.
    """
    ctx = click.get_current_context()
    config = {"field": spec.describe()}
    config.update((param.name, ctx.params[param.name])
                  for param in ctx.command.params
                  if param.expose_value and param.name not in _UNLISTED)
    config.update(resolved)
    return {"schema": 1, "config": config, **body}


def _write_json(data, path: str | None, echo: bool = False) -> None:
    """Write data as indented JSON and a newline to path (if any) and, with
    echo, to stdout.  NaN and infinities raise ValueError: they are not JSON."""
    text = json.dumps(data, indent=2, allow_nan=False) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    if echo:
        click.echo(text, nl=False)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _exit_codes(fn):
    """Map the errors a command body raises to the documented exit codes."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CapabilityError as exc:
            _fail(EXIT_CAPABILITY, str(exc))
        except (ValueError, OSError, KeyError) as exc:
            _fail(EXIT_CONFIG, str(exc))
    return wrapper


def _use_config(ctx: click.Context, param, path: str | None) -> None:
    """Load a config file as the command's default map."""
    if path:
        try:
            config = load_config(path)
        except (ValueError, OSError) as exc:
            _fail(EXIT_CONFIG, str(exc))
        unknown = sorted(set(config) - {p.name for p in ctx.command.params})
        if unknown:
            _fail(EXIT_CONFIG, f"unknown config key(s) for {ctx.command.name}: "
                               + ", ".join(map(repr, unknown)))
        ctx.default_map = config


def field_options(fn):
    fn = click.option("--modulus", default="",
                      help="Reduction polynomial coefficients, constant term "
                           "first, comma separated.")(fn)
    fn = click.option("--n", default=1, show_default=True,
                      help="Extension degree.")(fn)
    fn = click.option("--p", default=2, show_default=True,
                      help="Prime characteristic.")(fn)
    fn = click.option("--config", default=None, type=click.Path(exists=True),
                      is_eager=True, expose_value=False, callback=_use_config,
                      help="Flat key=value config file.")(fn)
    return fn


def plug_options(fn):
    """The plugged game strategy's source and the upper-bound constant."""
    fn = click.option("--upper-c", default=1.0, show_default=True)(fn)
    fn = click.option("--restarts", default=64, show_default=True)(fn)
    fn = click.option("--strategy-file", default=None, type=click.Path())(fn)
    fn = click.option("--strategy", default="brute", show_default=True,
                      type=click.Choice(["brute", "search", "file"]))(fn)
    return fn


@click.group()
def main():
    """Relativistic bit-commitment experiments over GF(Q)."""


@main.command("field-check")
@field_options
@click.option("--triples", default=10000, show_default=True,
              type=click.IntRange(min=0))
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default=None, type=click.Path())
@_exit_codes
def cmd_field_check(p, n, modulus, triples, seed, out):
    """Run the field axiom suite on the configured field."""
    spec = _field_from(p, n, modulus)
    q = spec.q
    draws = iter(_ByteStream(random.Random(f"{seed}:field-check")).tries(
        q, 3 * triples))
    failures = []
    for a, b, c in zip(draws, draws, draws):
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
    _write_json(_document(spec, {
        "ok": not failures,
        "violations": [list(f) for f in failures[:10]],
    }), out, echo=True)
    if failures:
        sys.exit(EXIT_PROPERTY)


def _gamma_for(raw: str, spec) -> Fraction:
    if not raw:
        return Fraction(1, spec.q)
    try:
        return Fraction(raw)
    except ZeroDivisionError:
        raise ValueError(f"gamma {raw!r} has a zero denominator") from None


def _game_result(dist, method, restarts, max_iters, seed):
    if method == "brute":
        return brute_force_value(dist)
    return best_response_search(dist, restarts=restarts,
                                max_iters=max_iters, seed=seed)


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
@_exit_codes
def cmd_game_value(p, n, modulus, gamma, method, restarts, max_iters, seed,
                   out, strategy_out):
    """Compute or search the game value for (Q, gamma)."""
    spec = _field_from(p, n, modulus)
    g = _gamma_for(gamma, spec)
    result = _game_result(GameDist(spec, g), method, restarts, max_iters, seed)
    if strategy_out:
        _write_json(result.strategy.to_dict(), strategy_out)
    _write_json(_document(spec, {"result": result.to_dict()},
                          gamma=str(g), meta=result.meta), out, echo=True)


def _plugged_strategy(spec, model, source, path, restarts, seed):
    """Game strategy for the tower's windowed input distribution."""
    if source == "file":
        if not path:
            raise ValueError("--strategy-file is required with --strategy file")
        with open(path) as fh:
            try:
                return DetStrategy.from_dict(json.load(fh))
            except KeyError as exc:
                raise ValueError(
                    f"malformed strategy file {path}: missing key {exc}; it"
                    " must be a JSON object with field, s1 and s2") from None
            except (TypeError, json.JSONDecodeError) as exc:
                raise ValueError(f"malformed strategy file {path}: {exc}") from None
    dist = GameDist(spec, tower_gamma(spec, model))
    return _game_result(dist, source, restarts, 200, seed).strategy


def _transcripts(rng: random.Random, q: int, n_ch: int, samples: int
                 ) -> Iterator[tuple[int, tuple[int, ...]]]:
    """`samples` uniform (d, challenges) rows of rng's _ByteStream, one at
    a time: _drawn_columns' chunks, read row by row."""
    for d, xs in _drawn_columns(rng, q, n_ch, samples):
        yield from zip(d, zip(*xs))


@main.command("attack")
@field_options
@click.option("--m", default=6, show_default=True)
@click.option("--variant", default="symmetrized", show_default=True,
              type=click.Choice(["standard", "symmetrized"]))
@click.option("--rho", default=2, show_default=True)
@click.option("--k0", default=0, show_default=True)
@click.option("--method", default="exact", show_default=True,
              type=click.Choice(["exact", "mc"]))
@click.option("--samples", default=100000, show_default=True,
              type=click.IntRange(min=100))
@click.option("--seed", default=0, show_default=True)
@plug_options
@click.option("--transcript-out", default=None, type=click.Path(),
              help="Persist sample cheating transcripts as JSON.")
@click.option("--transcript-count", default=5, show_default=True,
              type=click.IntRange(min=0))
@click.option("--out", default=None, type=click.Path())
@_exit_codes
def cmd_attack(p, n, modulus, m, variant, rho, k0, method, samples, seed,
               strategy, strategy_file, restarts, upper_c, transcript_out,
               transcript_count, out):
    """Build the recursive attack and measure its cheating probability."""
    check_upper_c(upper_c)
    spec = _field_from(p, n, modulus)
    model = CausalModel(rho, k0)
    game_strategy = _plugged_strategy(spec, model, strategy, strategy_file,
                                      restarts, seed)
    cheat = build_attack(spec, Variant(variant), m, model, game_strategy)
    row = evaluate(cheat, method, samples, seed, upper_c)
    data = _document(spec, {
        "report": row.report_dict(),
        "game_strategy": cheat.game_strategy.to_dict()
        if cheat.game_strategy else None,
    }, lineage=cheat.lineage)
    if transcript_out:
        rng = random.Random(f"{seed}:attack-transcripts")
        params = cheat.params
        samples_list = []
        for d, xs in _transcripts(rng, spec.q, params.n_challenges,
                                  transcript_count):
            ys = cheat.responses(d, xs)
            samples_list.append(Transcript(
                params, d, xs, ys, verify_values(params, d, xs, ys)).to_dict())
        _write_json(samples_list, transcript_out)
    _write_json(data, out, echo=True)


def parse_m_list(raw: str) -> list[int]:
    """Either "4..31" (lo <= hi) or a comma list "4,7,10"; empty string means
    no rows."""
    raw = raw.strip()
    if not raw:
        return []
    try:
        if ".." not in raw:
            return [int(x) for x in raw.split(",")]
        lo, hi = map(int, raw.split("..", 1))
        if lo <= hi:
            return list(range(lo, hi + 1))
    except ValueError:
        pass
    raise ValueError(f"--m-list {raw!r} is neither lo..hi with lo <= hi nor a"
                     " comma list of integers such as 4,7,10")


@main.command("sweep")
@field_options
@click.option("--m-list", default="", help='Protocol lengths, "4..13" or "4,7,10".')
@click.option("--variant", default="standard", show_default=True,
              type=click.Choice(["standard", "symmetrized"]))
@click.option("--rho", default=2, show_default=True)
@click.option("--k0", default=0, show_default=True)
@click.option("--samples", default=20000, show_default=True,
              type=click.IntRange(min=100))
@click.option("--seed", default=0, show_default=True)
@click.option("--exact-cap", default=200000, show_default=True)
@plug_options
@click.option("--format", default="csv", show_default=True,
              type=click.Choice(["csv", "json"]))
@click.option("--out", required=True, type=click.Path())
@_exit_codes
def cmd_sweep(p, n, modulus, m_list, variant, rho, k0, samples, seed,
              exact_cap, strategy, strategy_file, restarts, upper_c, format,
              out):
    """Sweep attack probabilities over protocol lengths into a table file."""
    check_upper_c(upper_c)
    spec = _field_from(p, n, modulus)
    ms = parse_m_list(m_list)
    model = CausalModel(rho, k0)
    game_strategy = _plugged_strategy(spec, model, strategy, strategy_file,
                                      restarts, seed)
    rows = trend_sweep(spec, ms, game_strategy, model, Variant(variant),
                       exact_cap=exact_cap, samples=samples, seed=seed,
                       upper_c=upper_c)
    if format == "csv":
        write_sweep_csv(rows, out)
    else:
        _write_json(_document(spec, {"rows": [r.to_dict() for r in rows]},
                              m_list=",".join(map(str, ms))), out)
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
@_exit_codes
def cmd_hiding(p, n, modulus, m, variant, out):
    """Verify exact view-distribution equality for every pre-reveal prefix."""
    params = ProtocolParams(_field_from(p, n, modulus), m, Variant(variant))
    # every prefix is the full view truncated: one enumeration for all
    *views, full = hiding_distributions(params)
    prefixes = [{"upto_round": r, "equal": dists[0] == dists[1]}
                for r, dists in enumerate(views, 1)]
    _write_json(_document(params.field, {
        "prefixes": prefixes,
        "reveal_discloses_bit": full[0] != full[1],
    }), out, echo=True)
    if not all(pref["equal"] for pref in prefixes):
        sys.exit(EXIT_PROPERTY)


if __name__ == "__main__":
    main()
