"""Fraction views of modules, which store int actions over one denominator."""

from fractions import Fraction


def fraction_actions(M) -> dict:
    """label -> col -> row -> Fraction: the true actions, actions[label] / den."""
    return {label: {j: {i: Fraction(x, M.den) for i, x in col.items()}
                    for j, col in cols.items()}
            for label, cols in M.actions.items()}
