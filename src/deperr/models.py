"""Lifetime model families, validation, and series-system metrics.

Nine families of joint lifetime distributions for an n-component system are
supported.  Each is defined through its joint survival function
F_bar(x_1,...,x_n) = exp(-H(x_1,...,x_n)); on the series diagonal
x_1 = ... = x_n = t this gives a cumulative hazard H(t) with derivative
H'(t), from which all four series metrics follow:

    SF(t)  = exp(-H(t))
    FR(t)  = H'(t)
    RHR(t) = H'(t) / (exp(H(t)) - 1)
    AI(t)  = t * H'(t) / H(t)

Dependence enters through rates attached to subsets of components: a subset
S with rate lambda_S contributes a common-shock style term coupling all
members of S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .exceptions import DomainError, SingularityError, ValidationError
from .numerics import clamp_unit, each, is_integer, power_gap

MAX_COMPONENTS = 24


class Family(str, Enum):
    INDEP_EXP = "IndepExp"
    MOME = "MOME"
    MG1 = "MG1"
    INDEP_WEIBULL = "IndepWeibull"
    MOMW = "MOMW"
    CROWDER = "Crowder"
    LEE_II = "LeeII"
    LEE_ML = "LeeML"
    LU_BI = "LuBI"


class MetricKind(str, Enum):
    SF = "sf"
    FR = "fr"
    RHR = "rhr"
    AI = "ai"


_METRIC_OF = {kind.value: kind for kind in MetricKind}


def _metric_kind(metric) -> MetricKind:
    """MetricKind(metric), by a dict lookup for a string or a member."""
    return isinstance(metric, str) and _METRIC_OF.get(metric) or MetricKind(metric)


def mask_members(mask: int) -> tuple[int, ...]:
    """0-based component indices in a bitmask subset, lowest set bit first."""
    members = []
    while mask:
        members.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(members)


def subset_to_mask(subset: Iterable[int], n: int) -> int:
    """Canonicalize a 1-based index collection into a bitmask over {1..n}."""
    mask = 0
    for idx in subset:
        if not isinstance(idx, (int, np.integer)) or isinstance(idx, bool):
            raise ValidationError(
                f"rates: subset index {idx!r} is not an integer"
            )
        if idx < 1 or idx > n:
            raise ValidationError(
                f"rates: subset index {idx} outside 1..{n} (n = {n})"
            )
        mask |= 1 << (idx - 1)
    return mask


def mask_to_subset(mask: int) -> tuple[int, ...]:
    """1-based sorted index tuple for a bitmask subset."""
    return tuple(i + 1 for i in mask_members(mask))


@dataclass(frozen=True)
class SubsetRates:
    """Nonnegative rates attached to nonempty subsets of {1..n}.

    Keys are canonical bitmasks; absent subsets have rate zero.  Zero-rate
    entries are dropped during canonicalization so equality is structural.
    """

    n: int
    items: tuple[tuple[int, float], ...]

    @classmethod
    def from_mapping(cls, n: int, rates) -> "SubsetRates":
        """Canonicalize a subset -> rate mapping, or (subset, rate) pairs,
        each subset an int bitmask or an iterable of indices, in one walk."""
        canonical: dict[int, float] = {}
        try:
            for key, value in rates.items() if isinstance(rates, Mapping) else rates:
                if is_integer(key):
                    mask = int(key)
                    if mask <= 0 or mask >= (1 << n):
                        raise ValidationError(
                            f"rates[{key}]: bitmask outside nonempty subsets of 1..{n}"
                        )
                else:  # a key that is not iterable raises TypeError here
                    mask = subset_to_mask(key, n)
                    if mask == 0:
                        raise ValidationError(f"rates[{key!r}]: empty subset")
                try:
                    rate = _real(value, "lambda")
                    if not rate >= 0:
                        raise ValidationError(f"negative rate {value}")
                    if math.isinf(rate):
                        raise ValidationError("lambda must be finite")
                    if mask in canonical:
                        raise ValidationError("duplicate subset")
                except ValidationError as exc:  # name the subset on failure only
                    subset = mask_to_subset(mask)
                    raise ValidationError(f"rates[{subset}]: {exc}") from None
                if rate > 0:
                    canonical[mask] = rate
        except ValidationError:
            raise
        except (TypeError, ValueError) as exc:  # not pairs of two, or a bad key
            raise ValidationError(f"rates: not (subset, rate) pairs: {exc}") from None
        return cls(n=n, items=tuple(sorted(canonical.items())))

    @cached_property
    def total(self) -> float:
        return float(math.fsum(rate for _, rate in self.items))

    @cached_property
    def singleton_vector(self) -> np.ndarray:
        """Per-component singleton rates lambda_i (zero when absent)."""
        vec = np.zeros(self.n)
        for members, (_, rate) in zip(self.members, self.items):
            if len(members) == 1:
                vec[members[0]] = rate
        return vec

    @cached_property
    def rate_array(self) -> np.ndarray:
        return np.array([rate for _, rate in self.items], dtype=float)

    @cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        """`mask_members` of each rated subset in the order of `items`, once."""
        return tuple(mask_members(mask) if mask & (mask - 1)
                     else (mask.bit_length() - 1,) for mask, _ in self.items)

    @cached_property
    def flat_members(self) -> tuple[np.ndarray, np.ndarray]:
        """(flat, starts): the 0-based members of each rated subset in the
        order of `items`, concatenated, and the offset of each in `flat`."""
        flat = [i for members in self.members for i in members]
        sizes = np.array([len(members) for members in self.members], np.intp)
        return np.array(flat, np.intp), np.cumsum(sizes) - sizes

    @cached_property
    def interaction_members(self) -> tuple[tuple[int, np.ndarray, float], ...]:
        """(mask, 0-based members, rate) of each rated subset of size >= 2."""
        return tuple((mask, np.array(members), rate) for members, (mask, rate)
                     in zip(self.members, self.items) if len(members) > 1)

    def singletons_only(self) -> "SubsetRates":
        return SubsetRates(
            n=self.n,
            items=tuple(
                (mask, rate) for mask, rate in self.items if mask.bit_count() == 1
            ),
        )


@dataclass
class ModelSpec:
    """Loose, user-facing description of one lifetime model.

    Pass through :func:`validate_model` before evaluating anything.  Rate
    map keys may be bitmasks or 1-based index tuples, and `rates` may also
    be a sequence of (subset, rate) pairs; `shapes` is the
    per-component Weibull shape vector where the family uses one; `alpha`
    and `scales` are the common shape and per-component scale multipliers
    of the common-shape Marshall-Olkin Weibull family; `gamma` and
    `stable_exponent` parameterize the positive-stable-power family;
    `delta` and `m` the additive-interaction Weibull family.
    """

    family: Family | str
    n: int
    rates: Mapping | Iterable | None = None
    shapes: Sequence[float] | None = None
    gamma: float | None = None
    stable_exponent: float | None = None
    alpha: float | None = None
    scales: Sequence[float] | None = None
    delta: float | None = None
    m: float | None = None


@dataclass(frozen=True)
class ValidatedModel:
    """Immutable, canonicalized model handle accepted by all operations."""

    family: Family
    n: int
    rates: SubsetRates
    shapes: tuple[float, ...] | None = None
    gamma: float | None = None
    stable_exponent: float | None = None
    alpha: float | None = None
    scales: tuple[float, ...] | None = None
    delta: float | None = None
    m: float | None = None

    # -- cached derived quantities -------------------------------------

    @cached_property
    def _is_product(self) -> bool:
        """Whether the joint survival is the product of the marginals."""
        if self.family is Family.LU_BI:
            return self.delta == 0.0
        return self.family in (Family.INDEP_EXP, Family.INDEP_WEIBULL) or (
            self.family in _REDUCE
            and all(mask.bit_count() == 1 for mask, _ in self.rates.items)
        )

    @cached_property
    def _shape_vector(self) -> np.ndarray:
        assert self.shapes is not None
        return np.asarray(self.shapes, dtype=float)

    @cached_property
    def _indep(self) -> "ValidatedModel":
        """independent_counterpart(self), looked up once per instance."""
        return independent_counterpart(self)

    @cached_property
    def _term_tables(self) -> tuple[tuple[tuple[float, ...], ...], ...]:
        """The power sums of the series hazard as `_table`s, for a float t
        and an array t alike: H for IndepExp, MOME, MG1 and LeeML, H for
        t < 1 and for t >= 1 for MOMW, and the singleton sum for the other
        Weibull families, then LuBI's coupling sum where delta > 0."""
        fam, items = self.family, self.rates.items
        if fam in (Family.INDEP_EXP, Family.MOME):
            return (_table([(self.rates.total, 1.0)]),)
        if fam is Family.MG1:
            return (_table((rate, float(mask.bit_count())) for mask, rate in items),)
        if fam is Family.LEE_ML:
            return (_table([(self._lee_total, self.alpha)]),)
        shapes = self.shapes
        if fam is Family.MOMW:
            shocks = [(rate, [shapes[i] for i in members])
                      for members, (_, rate) in zip(self.rates.members, items)]
            return (_table((rate, min(s)) for rate, s in shocks),
                    _table((rate, max(s)) for rate, s in shocks))
        singles = [(rate, shapes[mask.bit_length() - 1])
                   for mask, rate in items if mask.bit_count() == 1]
        if fam is Family.LU_BI and self.delta > 0.0:
            mm = self.m  # each rate takes its root before equal shapes merge
            return (_table(singles),
                    _table((w ** (1.0 / mm), e / mm) for w, e in singles))
        return (_table(singles),)

    @cached_property
    def _term_arrays(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """`_term_tables` as columns (w, e, e - 1, w * e), for an array t."""
        return tuple(tuple(np.array([term[j] for term in table], float)
                           for j in range(4)) for table in self._term_tables)

    @cached_property
    def _scale_powers(self) -> np.ndarray:
        """c_i ** alpha for the common-shape family."""
        assert self.scales is not None and self.alpha is not None
        return np.asarray(self.scales, dtype=float) ** self.alpha

    @cached_property
    def _lee_total(self) -> float:
        """Aggregate rate of the common-shape family's series system:

        lambda_L = sum_S lambda_S * max_{i in S} c_i**alpha.
        """
        cpow, rates = self._scale_powers.tolist(), self.rates
        return math.fsum(rate * max(map(cpow.__getitem__, members))
                         for members, (_, rate) in zip(rates.members, rates.items))


# Messages name these fields with their config keys too.
_L = "stable_exponent (l)"
_C = "scales (c)"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def _real(value, name: str) -> float:
    """A real number as a float; a string, bool or other type is an error."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        raise ValidationError(f"{name}: must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        return math.inf if value > 0 else -math.inf


def _param(value, name: str, positive: bool = True) -> float:
    """A finite parameter > 0, or >= 0 when not `positive`, as a float."""
    x = _real(value, name)
    if not (x > 0 if positive else x >= 0) or math.isinf(x):
        bound = "> 0" if positive else ">= 0"
        raise ValidationError(f"{name}: must be finite and {bound}, got {x}")
    return x


def _positive_vector(values, n: int, name: str) -> tuple[float, ...]:
    if values is None:
        raise ValidationError(f"{name}: required for this family")
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise ValidationError(f"{name}: must be a list of {n} numbers")
    if len(values) != n:
        raise ValidationError(
            f"{name}: expected n = {n} entries, got {len(values)}"
        )
    return tuple(_param(v, f"{name}[{i + 1}]") for i, v in enumerate(values))


def validate_model(spec: ModelSpec) -> ValidatedModel:
    """Check all family invariants and return an immutable model handle.

    Raises :class:`ValidationError` naming the first offending parameter.
    """
    try:
        family = Family(spec.family)
    except ValueError:
        raise ValidationError(f"unknown family {spec.family!r}") from None
    n = spec.n
    if not is_integer(n) or n < 1:
        raise ValidationError(
            f"n: component count must be an integer >= 1, got {n!r}"
        )
    if n > MAX_COMPONENTS:
        raise ValidationError(
            f"n: at most {MAX_COMPONENTS} components supported, got {n}"
        )

    rates = SubsetRates.from_mapping(n, spec.rates or {})
    try:
        rates.total  # cached; fsum raises past the float range
    except OverflowError:
        raise ValidationError(
            "rates: total rate exceeds the float range"
        ) from None
    # rates are > 0: a component has zero total rate iff no subset holds it
    covered = 0
    for mask, _ in rates.items:
        if mask & (mask - 1) and family not in _REDUCE:
            raise ValidationError(
                f"rates: family {family.value} admits only singleton subsets"
            )
        covered |= mask
    for i in range(n):
        if not covered >> i & 1:
            raise ValidationError(
                f"rates: component {i + 1} has zero total rate (n = {n})"
            )

    params = {}  # the parameters the family takes, checked, by field name
    if family in (Family.INDEP_WEIBULL, Family.MOMW, Family.CROWDER,
                  Family.LEE_II, Family.LU_BI):
        params["shapes"] = _positive_vector(spec.shapes, n, "shapes")
    elif spec.shapes is not None:
        raise ValidationError("shapes: not a parameter of this family")

    if family in (Family.CROWDER, Family.LEE_II):
        gamma = params["gamma"] = _param(
            spec.gamma if spec.gamma is not None else 0.0, "gamma", positive=False)
        if spec.stable_exponent is None:
            raise ValidationError(f"{_L}: required for this family")
        ell = params["stable_exponent"] = _param(spec.stable_exponent, _L)
        if family is Family.LEE_II:
            _require(gamma == 0.0, "gamma: must be 0 for the LeeII family")
            _require(ell <= 1, f"{_L}: must be in (0, 1], got {ell}")
    elif family is Family.LEE_ML:
        if spec.alpha is None:
            raise ValidationError("alpha: required for this family")
        alpha = params["alpha"] = _param(spec.alpha, "alpha")
        scales = params["scales"] = _positive_vector(spec.scales, n, _C)
        # c_i**alpha scales the hazard: inf or 0 would meet t**alpha as nan
        with np.errstate(over="ignore", under="ignore"):
            cpow = np.asarray(scales) ** alpha
        _require(bool(np.all(np.isfinite(cpow) & (cpow > 0))),
                 f"alpha: c_i**alpha must be a positive finite float for "
                 f"every entry of {_C}, got alpha = {alpha}")
    elif family is Family.LU_BI:
        params["delta"] = _param(spec.delta if spec.delta is not None else 0.0,
                                 "delta", positive=False)
        params["m"] = _param(spec.m if spec.m is not None else 1.0, "m")

    for name in ("gamma", "stable_exponent", "alpha", "scales", "delta", "m"):
        if getattr(spec, name) is not None and name not in params:
            label = {"stable_exponent": _L, "scales": _C}.get(name, name)
            raise ValidationError(f"{label}: not a parameter of this family")

    return ValidatedModel(family=family, n=n, rates=rates, **params)


# ---------------------------------------------------------------------------
# Joint survival
# ---------------------------------------------------------------------------


# The families with interaction shocks, each with a shock's reduce over its
# members: validation, `_is_product` and the joint hazard read these keys.
_REDUCE = {Family.MOME: np.maximum, Family.MOMW: np.maximum,
           Family.LEE_ML: np.maximum, Family.MG1: np.multiply}


def _coordinates(model: ValidatedModel, x: np.ndarray) -> tuple:
    """(theta,), or (theta, y) for LuBI with delta > 0: theta_i(x_i), which
    the rates multiply (x, c_i**alpha * x**alpha for LeeML, or x**a_i), and
    y_i = x_i**(a_i / m), which LuBI's coupling sums; overflow per errstate."""
    if model.family is Family.LEE_ML:
        return (model._scale_powers * x**model.alpha,)
    theta = x if model.shapes is None else x**model._shape_vector
    if model.family is Family.LU_BI and model.delta > 0.0:
        return theta, x ** (model._shape_vector / model.m)
    return (theta,)


def _quiet(model: ValidatedModel):
    """The kernel's errstate: past the float range a power, sum or product
    is inf, quietly, and so is MG1's inf * 0 (nan), which `_combine` makes 0."""
    mg1 = model.family is Family.MG1
    return np.errstate(over="ignore", invalid="ignore" if mg1 else None)


def _parts(model: ValidatedModel, coords, lo: int = 0):
    """The joint hazard's parts over `_coordinates` in a batch (k, m) of
    components lo..lo + m - 1: the singleton sum (zeros where none is rated;
    lambda_i = 0 skipped, as 0 * inf is nan), each shock's `_REDUCE` over
    its members there (None where it has none), and LuBI's coupling sum."""
    v, rates = coords[0], model.rates
    hi = lo + v.shape[-1]
    w = rates.singleton_vector[lo:hi]
    held = np.count_nonzero(w)
    yield (np.zeros(v.shape[:-1]) if not held else v @ w if held == w.size
           else v[..., w > 0] @ w[w > 0])
    reduce = _REDUCE.get(model.family)
    if reduce is not None:
        cols = v.T
        below_lo, below_hi = (1 << lo) - 1, (1 << hi) - 1
        for mask, members, _ in rates.interaction_members:
            # the members are sorted: members[a:b] are those in lo..hi - 1
            a, b = (mask & below_lo).bit_count(), (mask & below_hi).bit_count()
            yield (reduce.reduce(cols[members[a:b] - lo if lo else members[a:b]], axis=0)
                   if a < b else None)
    if len(coords) > 1:
        yield coords[1] @ w ** (1.0 / model.m) if held else None


def _combine(model: ValidatedModel, parts):
    """The joint hazard from `_parts` of a batch or two joined halves, each
    broadcasting to the result: the singleton sum plus lambda_T times each
    shock's reduce, 0 where MG1's product met inf * 0 (nan); the
    Crowder/LeeII power gap of the sum; or the sum plus LuBI's delta * u**m."""
    h = next(parts)
    if model.family in _REDUCE:
        product = model.family is Family.MG1
        for (_, _, rate), part in zip(model.rates.interaction_members, parts):
            h = h + rate * (np.fmax(part, 0.0, out=part) if product else part)
        return h
    if model.family in (Family.CROWDER, Family.LEE_II):
        return power_gap(model.gamma, h, model.stable_exponent)
    for u in parts:  # LuBI with delta > 0; at 0, delta * u**m may be 0 * inf
        h = h + model.delta * u**model.m
    return h


def _point_hazard(model: ValidatedModel, x: list) -> float:
    """The joint hazard at one point of a model without shocks, on Python floats."""
    shapes, s, u = model.shapes, 0.0, 0.0
    coupled = model.family is Family.LU_BI and model.delta > 0.0
    for mask, rate in model.rates.items:  # lambda_i > 0, so never 0 * inf
        i = mask.bit_length() - 1
        s += rate * (x[i] if shapes is None else x[i] ** shapes[i])
        if coupled:
            u += rate ** (1.0 / model.m) * x[i] ** (shapes[i] / model.m)
    if model.family in (Family.CROWDER, Family.LEE_II):
        return power_gap(model.gamma, s, model.stable_exponent)
    return s + model.delta * u**model.m if coupled else s


def _joint_hazard(model: ValidatedModel, x: np.ndarray):
    """Joint cumulative hazard -ln F_bar(x_1,...,x_n).

    `x` is one point of shape (n,), giving a float, or a batch of shape
    (k, n), giving a (k,) array: `_combine` of `_parts`.  One point of a
    model without interaction shocks is `_point_hazard` (a batch of one
    where that overflows); a shock model's work grows with its rated
    subsets, up to 2^n, so it keeps one `reduceat` over them.  A power,
    sum or product beyond the float range is inf, quietly, and so is the
    hazard at an inf coordinate of a component that fails in finite time.
    """
    reduce = _REDUCE.get(model.family)
    if x.ndim == 1 and reduce is None:
        try:
            return _point_hazard(model, x.tolist())
        except OverflowError:  # Python's **, where numpy's is inf
            return float(_joint_hazard(model, x[None])[0])
    with _quiet(model):
        coords = _coordinates(model, x)
        if x.ndim > 1:
            return _combine(model, _parts(model, coords))
        flat, starts = model.rates.flat_members
        parts = reduce.reduceat(coords[0][flat], starts)
        product = reduce is np.multiply  # fmax: inf * 0 (nan) is 0
        return model.rates.rate_array @ (np.fmax(parts, 0.0) if product else parts)


def joint_sf(model: ValidatedModel, x: Sequence[float]) -> float:
    """Joint survival probability P(X_1 > x_1, ..., X_n > x_n), a float.

    Where the joint hazard leaves the float range it is 0.0, quietly, as
    at an inf coordinate of a component that fails in finite time.  A model
    without interaction shocks sums it on Python floats; a shock model's work
    grows with its rated subsets, up to 2^n, so it keeps numpy's `reduceat`.
    """
    vec = np.asarray(x, dtype=float)
    if vec.shape != (model.n,):
        raise DomainError(
            f"x must have length {model.n}, got shape {vec.shape}"
        )
    if not all(v >= 0.0 for v in vec.tolist()):  # also catches NaN
        raise DomainError("x coordinates must be nonnegative")
    return clamp_unit(math.exp(-_joint_hazard(model, vec)))


# ---------------------------------------------------------------------------
# Series-system metrics
# ---------------------------------------------------------------------------


def _times(t):
    """t, checked > 0: a scalar or 0-d array as a float, or a 1-D array."""
    if isinstance(t, np.ndarray):
        if t.ndim == 0:
            return _times(float(t))
        if t.ndim != 1:
            raise DomainError(f"t must be a float or a 1-D array, got {t.shape}")
        t = t.astype(float, copy=False)
        bad = _first_where(t, ~(t > 0))
        if bad is not None:
            raise DomainError(f"t must be > 0, got {bad}")
        return t
    if not t > 0:
        raise DomainError(f"t must be > 0, got {t}")
    return float(t)


def _first_where(t, cond):
    """The first t at which `cond` holds, or None; both floats or arrays."""
    if isinstance(cond, np.ndarray):
        return float(t[cond.argmax()]) if cond.any() else None
    return t if cond else None


def _fill(t, value: float):
    """A constant with the shape of t: the float itself for a float t."""
    return np.full(t.shape, value) if isinstance(t, np.ndarray) else value


def _table(pairs) -> tuple[tuple[float, ...], ...]:
    """Term table of the power sum of w * t**e over (w, e) pairs: one
    (w, e, e - 1, w * e) of Python floats per distinct exponent, its
    weights summed, and none of weight 0, as 0 * inf is nan."""
    total: dict[float, float] = {}
    for w, e in pairs:
        total[e] = total.get(e, 0.0) + w
    return tuple((w, e, e - 1.0, w * e) for e, w in total.items() if w > 0.0)


def _power_sums(terms, t: float) -> tuple[float, float]:
    """(sum w * t**e, sum w * e * t**(e - 1)) over a term table at a float
    t, from one t**(e - 1) per term, so that H' keeps its precision where
    t**e is subnormal; Python's ** raises OverflowError where numpy's
    gives inf."""
    s = ds = 0.0
    for w, _, e1, we in terms:
        p = t**e1
        s += w * p
        ds += we * p
    return s * t, ds


def _sums(model: ValidatedModel, t: np.ndarray) -> list:
    """`_power_sums` of each term table over a 1-D array t; a power beyond
    the float range is inf (quietly, in `series_hazard`), and t**(e - 1) at
    inf the limit; an inf sum at a finite t is retaken in the float path's
    order, as w < 1 may bring w * t**e back."""
    tc = t[:, None]
    sums = [(tc**e @ w, tc**e1 @ we) for w, e, e1, we in model._term_arrays]
    for (s, _), (w, _, e1, _) in zip(sums, model._term_arrays):
        if s.max() == math.inf:
            far = (s == math.inf) & (t < math.inf)
            s[far] = (tc[far] ** e1 @ w) * t[far]
    return sums


def _chain(t, base, ell: float, ds, table):
    """(base**ell, ell * base**(ell - 1) * ds) for a base that grows as the
    power sum of `table`, with derivative ds; on an array a value beyond the
    float range is inf (quietly, in `series_hazard`).  At t = inf the
    derivative is 0 * inf or inf * 0: there it is the limit from the table's
    leading term (w, e), ell * e * w**ell * t**(ell * e - 1), i.e. inf,
    ell * e * w**ell or 0 as ell * e is >, = or < 1.  With ell < 1, a base
    that is 0 or inf at a finite t, where base**ell may be finite, raises
    DomainError."""
    if isinstance(t, float):  # `series_hazard` retries an inf H or 0.0 ** -x,
        if base == math.inf:  # and an inf base: inf ** (ell - 1) may be 0.0
            raise OverflowError
        return base**ell, ell * base ** (ell - 1.0) * ds
    edge = (base == 0.0) | (base == math.inf)  # t > 0, so base is > 0
    bad = _first_where(t, edge & (t < math.inf))
    if ell < 1.0 and bad is not None:
        raise DomainError(f"a power sum under a root is 0 or inf at t={bad}")
    if not (t == math.inf).any():
        return base**ell, ell * base ** (ell - 1.0) * ds
    w, e = max(table, key=lambda term: term[1])[:2]
    out = np.full(t.shape, ell * e * w**ell * math.inf ** (ell * e - 1.0))
    fin = t < math.inf
    out[fin] = ell * base[fin] ** (ell - 1.0) * ds[fin]
    return base**ell, out


def series_hazard(model: ValidatedModel, t):
    """Cumulative hazard H(t) of the series lifetime and its derivative.

    Both come from the family's closed form, not from differencing.  A
    float t gives two floats; a 1-D array of times gives two arrays.  H is
    -ln joint_sf(t, ..., t).  The MOMW derivative jumps at t = 1, where the
    exponents switch; H' there is the right derivative.

    The one entry to the series kernel: every family sums its term tables,
    a float 0 < t < inf on Python floats, an array in numpy.  t = inf, and
    a float where that overflows or divides by 0, take the array path as a
    one-point array.  A power or product beyond the float range is inf,
    quietly; a root of a sum that is inf, or 0, at a finite t > 0 (Crowder,
    LeeII, LuBI) raises DomainError.

    A float t's pair is kept on the model until its next float t, a stencil
    point off t excepted, so one t's metrics and errors evaluate each side once.
    """
    t = _times(t)
    if isinstance(t, np.ndarray):
        with np.errstate(over="ignore"):  # the array path's one overflow rule
            return _kernel(model, t)
    last = model.__dict__.get("_last_hazard")  # beside cached_property's values
    if last is None or last[0] != t:  # kept only once it returns
        last = model.__dict__["_last_hazard"] = t, _float_hazard(model, t)
    return last[1]


def _float_hazard(model: ValidatedModel, t: float) -> tuple[float, float]:
    """`series_hazard` at a checked float t, keeping nothing."""
    h = dh = math.inf  # t = inf takes the array path
    if t < math.inf:  # Python's ** raises where numpy's gives inf quietly
        try:
            h, dh = _kernel(model, t)
        except (OverflowError, ZeroDivisionError):  # or 0.0 ** -x
            pass
    if not h + dh < math.inf:  # inf or nan: retry as a one-point array
        with np.errstate(over="ignore"):
            h, dh = (float(v[0]) for v in _kernel(model, np.array([t])))
    return h, dh


def _kernel(model: ValidatedModel, t):
    """(H, H') at a checked float t < inf or 1-D array t, an array under
    `series_hazard`'s errstate."""
    fam, tables = model.family, model._term_tables
    array = isinstance(t, np.ndarray)
    if fam is Family.MOMW and not array:  # the table for t < 1 or t >= 1
        return _power_sums(tables[t >= 1.0], t)
    sums = _sums(model, t) if array else None
    if fam is Family.MOMW:  # the tables for t < 1 and t >= 1, per point
        return tuple(np.where(t >= 1.0, a, b) for b, a in zip(*sums))
    s, ds = sums[0] if array else _power_sums(tables[0], t)
    if fam in (Family.CROWDER, Family.LEE_II):
        g, ell = model.gamma, model.stable_exponent
        return power_gap(g, s, ell), _chain(t, g + s, ell, ds, tables[0])[1]
    if len(tables) == 2:  # LuBI with delta > 0
        u, du = sums[1] if array else _power_sums(tables[1], t)
        um, dum = _chain(t, u, model.m, du, tables[1])
        return s + model.delta * um, ds + model.delta * dum
    return s, ds  # IndepExp, MOME, MG1, LeeML, IndepWeibull, LuBI at delta 0


def _sf_value(h: float) -> float:
    return clamp_unit(math.exp(-h))


def _rhr_value(h: float, dh: float) -> float:
    # RHR = H' / (exp(H) - 1); for very large H the denominator overflows,
    # but the limit is H'*exp(-H) which underflows to 0 consistently; at
    # H = inf it is 0, where that product may be inf * 0.
    if h == math.inf:
        return 0.0
    if h > 700.0:
        return dh * math.exp(-h)
    return dh / math.expm1(h)


def _metric_values(metric: MetricKind, t, h, dh):
    """A series metric from the hazard pair (h, dh) at t: floats or arrays."""
    if metric is MetricKind.SF:
        return each(_sf_value, h)
    if metric is MetricKind.FR:
        return dh
    bad = _first_where(t, h <= 0.0)
    if bad is not None:
        raise SingularityError(
            f"survival is 1 to machine precision at t={bad}; "
            f"{metric.value} undefined"
        )
    if metric is MetricKind.AI:
        bad = _first_where(t, h == math.inf)
        if bad is not None:
            raise SingularityError(
                f"cumulative hazard is inf at t={bad}; ai is inf/inf there"
            )
        if isinstance(h, np.ndarray):  # t * H' past the float range: t * (H'/H)
            with np.errstate(over="ignore"):
                td = t * dh
                return np.where(td < math.inf, td / h, t * (dh / h))
        return t * dh / h if t * dh < math.inf else t * (dh / h)
    return each(_rhr_value, h, dh)


def series_metric(model: ValidatedModel, metric: MetricKind, t):
    """One of SF/FR/RHR/AI for the series lifetime min_i X_i at time t.

    t is a float, giving a float, or a 1-D array, giving an array.
    """
    metric, t = _metric_kind(metric), _times(t)  # a numpy scalar as a float
    return _metric_values(metric, t, *series_hazard(model, t))


# ---------------------------------------------------------------------------
# Independent counterpart
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1024)
def independent_counterpart(model: ValidatedModel) -> ValidatedModel:
    """The same model with all dependence (interaction) structure removed.

    Marshall-Olkin style families keep their singleton rates; the
    positive-stable family degenerates to independent Weibull marginals;
    the additive-interaction family drops its interaction weight.
    Idempotent by construction.
    """
    fam = model.family
    if model._is_product and fam not in (Family.MOME, Family.MG1, Family.MOMW):
        return model  # no dependence, and the family needs no change
    singles = model.rates.singletons_only()
    if fam in (Family.MOME, Family.MG1):
        return ValidatedModel(family=Family.INDEP_EXP, n=model.n, rates=singles)
    if fam in (Family.MOMW, Family.CROWDER, Family.LEE_II):
        return ValidatedModel(
            family=Family.INDEP_WEIBULL,
            n=model.n,
            rates=singles,
            shapes=model.shapes,
        )
    if fam is Family.LEE_ML:
        return replace(model, rates=singles)
    if fam is Family.LU_BI:
        return replace(model, delta=0.0)
    raise AssertionError(f"unhandled family {fam}")
