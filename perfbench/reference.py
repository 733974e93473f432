"""Independent numpy references the workloads' outputs are checked against.

Nothing here calls into ``repro``: joins are computed from the generated key
arrays, and models from the documented update rules of the learners
(full-batch gradient descent on centred targets for linear regression,
gradient descent with an intercept step for logistic regression, the normal
equations for the closed-form solve).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

TOLERANCE = 1e-8


def key_match(left_keys: np.ndarray, right_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row pairs of equal keys, ordered by left row (keys unique on each side)."""
    _, left_rows, right_rows = np.intersect1d(left_keys, right_keys, return_indices=True)
    order = np.argsort(left_rows, kind="stable")
    return left_rows[order].astype(np.int64), right_rows[order].astype(np.int64)


def target_rows(
    n_left: int, n_right: int, matches: Tuple[np.ndarray, np.ndarray], scenario: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Per target row, its left and right source row (-1 for none), per Table I.

    Inner join keeps matched left rows; left join keeps every left row; the
    full outer join appends the unmatched right rows after every left row;
    the union stacks all left rows over all right rows.
    """
    left_rows, right_rows = matches
    right_of_left = np.full(n_left, -1, dtype=np.int64)
    right_of_left[left_rows] = right_rows
    if scenario == "inner_join":
        kept = left_rows
        return kept, right_of_left[kept]
    if scenario == "left_join":
        return np.arange(n_left), right_of_left
    if scenario == "full_outer_join":
        unmatched = np.setdiff1d(np.arange(n_right), right_rows)
        return (
            np.concatenate([np.arange(n_left), np.full(unmatched.size, -1)]),
            np.concatenate([right_of_left, unmatched]),
        )
    if scenario == "union":
        return (
            np.concatenate([np.arange(n_left), np.full(n_right, -1)]),
            np.concatenate([np.full(n_left, -1), np.arange(n_right)]),
        )
    raise ValueError(f"unknown scenario {scenario!r}")


def assemble_target(
    columns: Sequence[str],
    left: Dict[str, np.ndarray],
    right: Dict[str, np.ndarray],
    rows: Tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Dense target: left values where the left row exists and has the column,
    otherwise right values (columns keep their names across sources), 0 where
    neither source supplies a cell. The generated inputs hold no NULLs."""
    left_rows, right_rows = rows
    target = np.zeros((left_rows.size, len(columns)))
    for j, name in enumerate(columns):
        filled = np.zeros(left_rows.size, dtype=bool)
        if name in left:
            has = left_rows >= 0
            target[has, j] = left[name][left_rows[has]]
            filled |= has
        if name in right:
            take = (right_rows >= 0) & ~filled
            target[take, j] = right[name][right_rows[take]]
    return target


def linear_gd(x: np.ndarray, y: np.ndarray, learning_rate: float, iterations: int):
    """Full-batch GD on ``y - mean(y)``; the intercept is the target mean."""
    offset = float(y.mean())
    centred = (y - offset)[:, None]
    weights = np.zeros((x.shape[1], 1))
    for _ in range(iterations):
        weights = weights - learning_rate * (x.T @ (x @ weights - centred)) / x.shape[0]
    return weights[:, 0], offset


def gram_linear_gd(
    gram: np.ndarray, moment: np.ndarray, column_sums: np.ndarray, label_sum: float,
    n_rows: int, learning_rate: float, iterations: int,
):
    """:func:`linear_gd` run in the c × c space: ``Xᵀ(Xw − y_c) = Gw − (Xᵀy − ȳ·Xᵀ1)``."""
    offset = label_sum / n_rows
    centred_moment = moment - offset * column_sums
    weights = np.zeros(gram.shape[0])
    for _ in range(iterations):
        weights = weights - learning_rate * (gram @ weights - centred_moment) / n_rows
    return weights, offset


def _sigmoid(z: np.ndarray) -> np.ndarray:
    decay = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + decay), decay / (1.0 + decay))


def logistic_gd(x: np.ndarray, y: np.ndarray, learning_rate: float, iterations: int):
    """GD on the mean log loss with an intercept updated by the mean error."""
    weights = np.zeros(x.shape[1])
    intercept = 0.0
    for _ in range(iterations):
        errors = _sigmoid(x @ weights + intercept) - y
        weights = weights - learning_rate * (x.T @ errors) / x.shape[0]
        intercept -= learning_rate * float(errors.mean())
    return weights, intercept


def logistic_probabilities(x: np.ndarray, weights: np.ndarray, intercept: float) -> np.ndarray:
    return _sigmoid(x @ weights + intercept)


def normal_solve(x: np.ndarray, y: np.ndarray):
    """``solve(XᵀX, Xᵀ(y − ȳ))``; the intercept is the target mean."""
    offset = float(y.mean())
    return np.linalg.solve(x.T @ x, x.T @ (y - offset)), offset


def relative_error(actual, expected) -> float:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return float("inf")
    if actual.size == 0:
        return 0.0
    scale = max(1.0, float(np.max(np.abs(expected))))
    return float(np.max(np.abs(actual - expected))) / scale


def expect_close(failures: List[str], what: str, actual, expected,
                 tolerance: float = TOLERANCE) -> None:
    error = relative_error(actual, expected)
    if not error <= tolerance:
        failures.append(f"{what}: error {error:.3g} above {tolerance:g}")


def expect_equal(failures: List[str], what: str, actual, expected) -> None:
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    if actual.shape != expected.shape or not np.array_equal(actual, expected):
        failures.append(f"{what}: differs from the reference")


def expect(failures: List[str], what: str, condition: bool, detail: Optional[str] = None) -> None:
    if not condition:
        failures.append(f"{what}: {detail}" if detail else what)
