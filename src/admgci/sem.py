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
from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from .admg import Admg
from .errors import GenerationError, InputError, NumericError, file_error


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


def implied_covariance(g: Admg, params: SemParameters) -> Covariance:
    """Covariance of the joint normal distribution the equations define, rows
    in the graph's topological order."""
    if not g.vertices:
        raise InputError("the graph has no vertices, so it implies no covariance")
    order = g.topological_ordering()
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
    sub = sigma.submatrix(_query_names(x, y, given))
    try:
        np.linalg.cholesky(sub)
    except np.linalg.LinAlgError:
        raise NumericError(
            "restricted covariance is not positive definite; cannot form the precision"
        ) from None
    return _partial_correlation_of(sub)


def _query_names(x: str, y: str, given: Collection[str]) -> list[str]:
    """``[x, y, *sorted(given)]``, the variable order of a partial-correlation
    query; raises :class:`InputError` unless x, y are distinct and outside ``given``."""
    given = frozenset(given)
    if x == y or x in given or y in given:
        raise InputError("partial correlation needs distinct x, y outside the given set")
    return [x, y, *sorted(given)]


# random_parameters redraws an ill-conditioned implied covariance, at most
# MAX_DRAWS times; both are read at call time
MAX_CONDITION = 1e8
MAX_DRAWS = 50


def random_parameters(g: Admg, seed: int) -> SemParameters:
    """Generic parameters, deterministic in ``seed``.

    Coefficient magnitudes are uniform in [0.3, 1.0] with random sign. Error
    covariance blocks come from a normalized random Gram matrix per
    c-component, zeroed outside the bi-directed support; off-diagonals are
    halved (up to 10 times) until the block is positive definite. Draws whose
    implied covariance is ill-conditioned (> ``MAX_CONDITION``) are rejected
    and redrawn, up to ``MAX_DRAWS`` draws in all.
    """
    rng = np.random.default_rng(seed)
    for _ in range(MAX_DRAWS):
        coefficients = {}
        for edge in sorted(g.directed_edges):
            magnitude = rng.uniform(0.3, 1.0)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            coefficients[edge] = sign * magnitude

        variances: dict[str, float] = {}
        covariances: dict[frozenset[str], float] = {}
        for comp in g.c_components():
            pos = {v: i for i, v in enumerate(sorted(comp))}
            if len(pos) == 1:
                variances[next(iter(pos))] = float(rng.uniform(0.5, 1.5))
                continue
            block = _error_block(rng, g, pos)
            if block is None:
                break
            for u, i in pos.items():
                variances[u] = float(block[i, i])
                for v in g._spouses[u]:
                    covariances[frozenset((u, v))] = float(block[i, pos[v]])
        else:
            params = SemParameters(coefficients, variances, covariances)
            sigma = implied_covariance(g, params)
            if np.linalg.cond(sigma.matrix) <= MAX_CONDITION:
                return params
    raise GenerationError(
        f"no supported positive-definite parameterization found in {MAX_DRAWS} draws"
    )


def _error_block(rng: np.random.Generator, g: Admg, pos: dict[str, int]) -> np.ndarray | None:
    """The scaled error covariance block of one district, rows in the order
    ``pos`` gives its members, or None when it stays indefinite or an edge's
    covariance comes out zero."""
    k = len(pos)
    m = rng.normal(size=(k, k))
    block = m @ m.T + 0.1 * np.eye(k)
    d = np.sqrt(np.diag(block))
    block = block / np.outer(d, d)  # unit diagonal, entries in (-1, 1)
    support = np.eye(k, dtype=bool)
    for u, i in pos.items():
        for v in g._spouses[u]:  # within the district, so every v has a row
            support[i, pos[v]] = True
    block = np.where(support, block, 0.0)
    for _attempt in range(10):
        if np.linalg.eigvalsh(block).min() > 1e-10:
            break
        off = block - np.diag(np.diag(block))
        block = np.diag(np.diag(block)) + off / 2
    else:
        return None
    scale = np.sqrt(rng.uniform(0.5, 1.5, size=k))
    block = block * np.outer(scale, scale)
    return None if (block[support] == 0.0).any() else block


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
        # which float rejects; only the row loop's csv reader applies the
        # field size limit, so a quoted cell goes there, and so does a full
        # chunk without \n, which every line over two chunks long holds
        if any(c in chunk for c in '"\x1c\x1d\x1e\x1f') or (
            len(chunk) == 1 << 16 and "\n" not in chunk
        ):
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
    for row in reader:
        if not row:
            continue
        if len(row) != len(variables):
            raise InputError(f"line {reader.line_num}: expected {len(variables)} fields")
        try:
            values = [float(v) for v in row]
        except ValueError as exc:
            raise InputError(f"line {reader.line_num}: {exc}") from None
        for name, value in zip(variables, values):
            if not math.isfinite(value):
                raise InputError(
                    f"line {reader.line_num}: non-finite value {value} in column {name!r}"
                )
        rows.append(values)
    if not rows:
        raise InputError("data file contains no observations")
    return np.asarray(rows, dtype=float)


def simulate(g: Admg, params: SemParameters, n: int, seed: int) -> DataTable:
    """``n`` i.i.d. draws from the implied normal distribution, deterministic
    in ``seed``; columns in lexicographic vertex order."""
    if n < 1:
        raise InputError("sample count must be at least 1")
    sigma = implied_covariance(g, params)
    chol = np.linalg.cholesky(sigma.matrix)
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((n, len(sigma.variables))) @ chol.T
    columns = tuple(g.vertices)
    permutation = [sigma.variables.index(v) for v in columns]
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

    Raises :class:`InputError` for a query that :func:`partial_correlation`
    rejects, and :class:`NumericError` when the sample covariance is singular
    or the result is not finite."""
    cols = np.column_stack([data.column(n) for n in _query_names(x, y, given)])
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
    column = {name: i for i, name in enumerate(data.variables)}
    for t in plan:
        for name in (t.x, t.y, *t.given):
            if name not in column:
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
            idx = [column[n] for n in (t.x, t.y, *sorted(t.given))]
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
