"""Linear Gaussian structural equation semantics for path diagrams.

Each vertex is a linear function of its parents plus a normal error term;
directed edges carry path coefficients and bi-directed edges mark correlated
errors. The implied covariance is (I-C)^-1 Omega (I-C)^-T. Vanishing partial
correlations are the testable counterpart of m-separations, checked with
Fisher's z.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .admg import Admg, validate_ordering
from .errors import GenerationError, InputError, NumericError, file_error
from .markov import PartialCorrTest, test_plan  # noqa: F401  (re-exported)


@dataclass(frozen=True)
class SemParameters:
    """Path coefficients per directed edge and an error covariance whose
    support is exactly the diagonal plus the bi-directed edges."""

    coefficients: Mapping[tuple[str, str], float]
    error_variances: Mapping[str, float]
    error_covariances: Mapping[frozenset[str], float]

    def validate(self, g: Admg) -> None:
        if set(self.coefficients) != set(g.directed_edges):
            raise InputError("coefficient support must match the directed edges exactly")
        if set(self.error_variances) != set(g.vertices):
            raise InputError("one error variance per vertex required")
        if set(self.error_covariances) != set(g.bidirected_edges):
            raise InputError("error covariance support must match the bi-directed edges exactly")
        for v, var in self.error_variances.items():
            if var <= 0:
                raise InputError(f"error variance of {v} must be positive")


@dataclass(frozen=True)
class Covariance:
    """A covariance matrix with named rows/columns."""

    variables: tuple[str, ...]
    matrix: np.ndarray

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise InputError(f"unknown variable {name!r}") from None

    def submatrix(self, names: Sequence[str]) -> np.ndarray:
        idx = [self.index(n) for n in names]
        return self.matrix[np.ix_(idx, idx)]


def implied_covariance(g: Admg, params: SemParameters, ordering: Iterable[str]) -> Covariance:
    """Covariance of the joint normal distribution the equations define."""
    order = validate_ordering(g, ordering)
    params.validate(g)
    n = len(order)
    pos = {v: i for i, v in enumerate(order)}
    coeff = np.zeros((n, n))
    for (tail, head), c in params.coefficients.items():
        coeff[pos[head], pos[tail]] = c
    omega = np.zeros((n, n))
    for v, var in params.error_variances.items():
        omega[pos[v], pos[v]] = var
    for edge, cov in params.error_covariances.items():
        u, v = tuple(edge)
        omega[pos[u], pos[v]] = cov
        omega[pos[v], pos[u]] = cov
    if np.linalg.eigvalsh(omega).min() <= 0:
        raise InputError("error covariance is not positive definite")
    a = np.eye(n) - coeff
    inv_a = np.linalg.solve(a, np.eye(n))
    sigma = inv_a @ omega @ inv_a.T
    sigma = (sigma + sigma.T) / 2
    return Covariance(order, sigma)


def partial_correlation(
    sigma: Covariance, x: str, y: str, given: Collection[str] = ()
) -> float:
    """Partial correlation of ``x`` and ``y`` given a set, from the precision
    of the restricted covariance."""
    given = frozenset(given)
    if x == y or x in given or y in given:
        raise InputError("partial correlation needs distinct x, y outside the given set")
    names = [x, y, *sorted(given)]
    sub = sigma.submatrix(names)
    try:
        np.linalg.cholesky(sub)
    except np.linalg.LinAlgError:
        raise NumericError(
            "restricted covariance is not positive definite; cannot form the precision"
        ) from None
    return _partial_correlation_of(sub)


def random_parameters(
    g: Admg,
    seed: int,
    max_condition: float = 1e8,
    max_draws: int = 50,
) -> SemParameters:
    """Generic parameters, deterministic in ``seed``.

    Coefficient magnitudes are uniform in [0.3, 1.0] with random sign. Error
    covariance blocks come from a normalized random Gram matrix per
    c-component, zeroed outside the bi-directed support; off-diagonals are
    halved (up to 10 times) until the block is positive definite. Draws whose
    implied covariance is ill-conditioned (> ``max_condition``) are rejected
    and redrawn.
    """
    rng = np.random.default_rng(seed)
    order = g.topological_ordering()
    for _ in range(max_draws):
        coefficients = {}
        for edge in sorted(g.directed_edges):
            magnitude = rng.uniform(0.3, 1.0)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            coefficients[edge] = sign * magnitude

        variances: dict[str, float] = {}
        covariances: dict[frozenset[str], float] = {}
        ok = True
        for comp in g.c_components():
            members = sorted(comp)
            k = len(members)
            if k == 1:
                variances[members[0]] = float(rng.uniform(0.5, 1.5))
                continue
            m = rng.normal(size=(k, k))
            block = m @ m.T + 0.1 * np.eye(k)
            d = np.sqrt(np.diag(block))
            block = block / np.outer(d, d)  # unit diagonal, entries in (-1, 1)
            support = np.eye(k, dtype=bool)
            pos = {v: i for i, v in enumerate(members)}
            for edge in g.bidirected_edges:
                u, v = tuple(edge)
                if u in comp:
                    support[pos[u], pos[v]] = support[pos[v], pos[u]] = True
            block = np.where(support, block, 0.0)
            for _attempt in range(10):
                if np.linalg.eigvalsh(block).min() > 1e-10:
                    break
                off = block - np.diag(np.diag(block))
                block = np.diag(np.diag(block)) + off / 2
            else:
                ok = False
                break
            scale = np.sqrt(rng.uniform(0.5, 1.5, size=k))
            block = block * np.outer(scale, scale)
            for i, u in enumerate(members):
                variances[u] = float(block[i, i])
            for edge in g.bidirected_edges:
                u, v = tuple(edge)
                if u in comp:
                    value = float(block[pos[u], pos[v]])
                    if value == 0.0:
                        ok = False
                    covariances[edge] = value
            if not ok:
                break
        if not ok:
            continue

        params = SemParameters(coefficients, variances, covariances)
        sigma = implied_covariance(g, params, order)
        if np.linalg.cond(sigma.matrix) <= max_condition:
            return params
    raise GenerationError(
        f"no supported positive-definite parameterization found in {max_draws} draws"
    )


@dataclass(frozen=True)
class DataTable:
    """Observations in rows, one named column per vertex."""

    variables: tuple[str, ...]
    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        try:
            return self.values[:, self.variables.index(name)]
        except ValueError:
            raise InputError(f"data has no column {name!r}") from None

    def to_csv(self, path) -> None:
        try:
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(self.variables)
                for row in self.values:
                    writer.writerow([repr(float(v)) for v in row])
        except OSError as exc:
            raise file_error(path, exc, "write") from None

    @classmethod
    def from_csv(cls, path) -> "DataTable":
        """Read a CSV file whose header row names the columns.

        One ``np.loadtxt`` pass reads the body. Where that pass fails or may
        not give the same answer (see :func:`_loadtxt`), the row loop
        :func:`_read_rows` reads the body again: it accepts every cell
        ``float`` accepts and names the line of the first bad one.
        """
        try:
            with open(path, newline="") as fh:
                # readline, unlike iteration, keeps fh.tell() usable; the row
                # loop reads the body with the same reader, so line_num counts on
                reader = csv.reader(iter(fh.readline, ""))
                header = next(reader, None)
                if header is None:
                    raise InputError("empty data file: a header row is required")
                variables = tuple(h.strip() for h in header)
                if len(set(variables)) != len(variables):
                    duplicate = next(v for v in variables if variables.count(v) > 1)
                    raise InputError(f"line 1: duplicate column {duplicate!r} in the header")
                body = fh.tell()
                values = _loadtxt(fh, len(variables))
                if values is None:
                    fh.seek(body)
                    values = _read_rows(reader, variables)
        except (OSError, UnicodeDecodeError) as exc:
            raise file_error(path, exc) from None
        except csv.Error as exc:  # such as a field over csv's size limit
            raise InputError(f"line {reader.line_num}: {exc}") from None
        return cls(variables, values)


def _loadtxt(fh, width: int) -> np.ndarray | None:
    """The rest of ``fh`` in one numpy pass as a finite array of ``width``
    columns, or None where that pass may not give the row loop's answer."""
    start = fh.tell()
    blank = True
    for chunk in iter(partial(fh.read, 1 << 16), ""):
        # loadtxt strips the ASCII separators \x1c-\x1f around a number,
        # which float rejects; a quoted cell goes to the row loop, whose csv
        # reader alone applies the field size limit
        if any(c in chunk for c in '"\x1c\x1d\x1e\x1f'):
            return None
        blank = blank and chunk.isspace()
    if blank:  # loadtxt warns on a body without data
        return None
    fh.seek(start)
    try:
        values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape[1] != width or not np.isfinite(values).all():
        return None
    return values


def _read_rows(reader, variables: tuple[str, ...]) -> np.ndarray:
    """The body rows left in the ``csv`` ``reader``, each cell read with
    ``float``; raises :class:`InputError` naming the line of the first bad row
    or cell."""
    rows = []
    blank_lines = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            blank_lines.append(lineno)
            continue
        if len(row) != len(variables):
            raise InputError(f"line {lineno}: expected {len(variables)} fields")
        try:
            rows.append([float(v) for v in row])
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
    if not rows:
        raise InputError("data file contains no observations")
    values = np.asarray(rows, dtype=float)
    del rows  # free the parsed floats before the check allocates its mask
    if not np.isfinite(values).all():
        i, j = np.argwhere(~np.isfinite(values))[0]
        lineno = i + 2
        for blank in blank_lines:  # ascending; each one shifts later rows down
            lineno += blank <= lineno
        raise InputError(
            f"line {lineno}: non-finite value {values[i, j]} in column {variables[j]!r}"
        )
    return values


def simulate(g: Admg, params: SemParameters, n: int, seed: int) -> DataTable:
    """``n`` i.i.d. draws from the implied normal distribution, deterministic
    in ``seed``; columns in lexicographic vertex order."""
    if n < 1:
        raise InputError("sample count must be at least 1")
    order = g.topological_ordering()
    sigma = implied_covariance(g, params, order)
    chol = np.linalg.cholesky(sigma.matrix)
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((n, len(order))) @ chol.T
    columns = tuple(g.vertices)
    permutation = [order.index(v) for v in columns]
    return DataTable(columns, draws[:, permutation])


@dataclass(frozen=True)
class TestResult:
    test: PartialCorrTest
    r: float | None
    z: float | None
    p: float | None
    reject: bool
    error: str | None = None


@dataclass(frozen=True)
class TestReport:
    """Per-test Fisher-z outcomes plus the overall verdict."""

    results: tuple[TestResult, ...]
    alpha: float
    correction: str
    n: int
    method: str = "fisher-z"

    @property
    def rejections(self) -> int:
        return sum(r.reject for r in self.results)

    @property
    def errors(self) -> int:
        return sum(r.error is not None for r in self.results)

    @property
    def passed(self) -> bool:
        return self.rejections == 0 and self.errors == 0


def sample_partial_correlation(
    data: DataTable, x: str, y: str, given: Collection[str] = ()
) -> float:
    """Sample analogue of :func:`partial_correlation`.

    Raises :class:`NumericError` when the sample covariance is singular or the
    result is not finite."""
    names = [x, y, *sorted(frozenset(given))]
    cols = np.column_stack([data.column(n) for n in names])
    return _partial_correlation_of(np.atleast_2d(np.cov(cols, rowvar=False, ddof=1)))


def _partial_correlation_of(cov: np.ndarray) -> float:
    """Partial correlation of the first two variables of a covariance given
    the rest, from its precision; errors as in :func:`sample_partial_correlation`."""
    try:
        precision = np.linalg.inv(cov)
    except np.linalg.LinAlgError:
        raise NumericError("sample covariance of the test variables is singular") from None
    scale = precision[0, 0] * precision[1, 1]
    r = float(-precision[0, 1] / math.sqrt(scale)) if scale > 0 else math.nan
    if not math.isfinite(r):
        raise NumericError("sample partial correlation is not finite")
    return r


def run_tests(
    data: DataTable,
    plan: Sequence[PartialCorrTest],
    alpha: float = 0.05,
    correction: str = "bonferroni",
) -> TestReport:
    """Fisher-z test of every planned hypothesis on the data.

    z = sqrt(n - |given| - 3) * atanh(r), two-sided normal p-value. With the
    default Bonferroni correction a hypothesis is rejected when
    p < alpha / len(plan). Tests with too small a sample, a singular sample
    covariance or a non-finite partial correlation produce per-test error
    entries rather than failing the whole run.
    """
    if correction not in ("bonferroni", "none"):
        raise InputError(f"unknown correction {correction!r}")
    if not 0 < alpha < 1:
        raise InputError("alpha must lie strictly between 0 and 1")
    for t in plan:
        for name in (t.x, t.y, *t.given):
            if name not in data.variables:
                raise InputError(f"data is missing column {name!r} required by the plan")
    threshold = alpha / len(plan) if (correction == "bonferroni" and plan) else alpha
    # a constant column makes the covariance singular, whatever rounding says
    flat = np.ptp(data.values, axis=0) == 0 if data.n else np.zeros(len(data.variables), bool)
    constant = {v for v, f in zip(data.variables, flat) if f}
    cov = None  # of all columns, computed once when the first test needs it
    results = []
    for t in plan:
        df = data.n - len(t.given) - 3
        fixed = sorted(constant.intersection((t.x, t.y, *t.given)))
        error = None
        if df <= 0:
            error = "insufficient sample size"
        elif fixed:
            error = f"column {fixed[0]} is constant, so the sample covariance is singular"
        else:
            if cov is None:
                cov = np.atleast_2d(np.cov(data.values, rowvar=False, ddof=1))
            idx = [data.variables.index(n) for n in (t.x, t.y, *sorted(t.given))]
            try:
                r = _partial_correlation_of(cov[np.ix_(idx, idx)])
            except NumericError as exc:
                error = str(exc)
        if error is not None:
            results.append(TestResult(t, None, None, None, False, error=error))
            continue
        r = max(-1 + 1e-12, min(1 - 1e-12, r))
        z = math.sqrt(df) * math.atanh(r)
        p = math.erfc(abs(z) / math.sqrt(2))
        results.append(TestResult(t, r, z, p, p < threshold))
    return TestReport(tuple(results), alpha, correction, data.n)
