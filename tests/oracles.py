"""Test-only oracles that the library itself never calls.

compute_eta is the expanded sign-alternating sum that the tests check the
chained verifier and the tower's carried eta against; it stays outside
relbc so that it remains independent of the code it checks.
symmetrize_up lifts a standard-variant strategy to the symmetrized
protocol for the symmetrization checks.
"""

from relbc import CheatStrategy, FieldSpec, Variant


def compute_eta(spec: FieldSpec, d: int, challenges: tuple[int, ...],
                ytildes: tuple[int, ...]) -> int:
    """Corrective factor of a prefix: d*prod(x_j) - sum_i ytilde_i*prod_{j>i}(x_j).

    Zero exactly when the symmetrized acceptance condition already holds for
    the prefix.
    """
    if len(challenges) != len(ytildes):
        raise ValueError("prefix challenge and response lengths differ")
    total = 0
    suffix = 1
    for x, yt in zip(reversed(challenges), reversed(ytildes)):
        total = spec.add(total, spec.mul(yt, suffix))
        suffix = spec.mul(suffix, x)
    return spec.sub(spec.mul(d, suffix), total)


def symmetrize_up(s: CheatStrategy) -> CheatStrategy:
    """Lift a standard-variant strategy to the symmetrized protocol.

    Rounds 1..m-1 are unchanged; the final response is the old final
    response times the fresh last challenge.  Whenever the original wins a
    point, the lifted strategy wins all its extensions.
    """
    if s.variant is not Variant.STANDARD:
        raise ValueError("symmetrize_up expects a standard-variant strategy")
    m = s.params.n_rounds
    model = s.model
    old_final = s.rounds[m - 1]
    spec = s.field

    def final(d, xs, etas):
        return spec.mul(xs[m - 1], old_final(d, xs[:-1], etas))

    return CheatStrategy(spec, Variant.SYMMETRIZED, m, model,
                         s.rounds[:-1] + (final,),
                         lineage=f"symmetrize_up({s.lineage})",
                         game_strategy=s.game_strategy)
