"""Accessors that only the tests read values through."""


def get_flat(estimator):
    """A copy of every parameter of `estimator`, in its flat layout."""

    return estimator.params.flat.copy()


def oracle_at(table, state: int, horizon_steps: int) -> float:
    """The chance of a collision within `horizon_steps` steps from `state`."""

    return float(table.probabilities[state, horizon_steps])
