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
from .numerics import clamp_unit, each, is_integer, power, power_gap

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


def mask_members(mask: int) -> tuple[int, ...]:
    """0-based component indices contained in a bitmask subset."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


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
        """Canonicalize a subset -> rate mapping, or (subset, rate) pairs."""
        canonical: dict[int, float] = {}
        pairs = rates.items() if isinstance(rates, Mapping) else rates
        for key, value in pairs:
            if isinstance(key, (int, np.integer)):
                mask = int(key)
                if mask <= 0 or mask >= (1 << n):
                    raise ValidationError(
                        f"rates[{key}]: bitmask outside nonempty subsets of 1..{n}"
                    )
            else:
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
        return cls(n=n, items=tuple(sorted(canonical.items())))

    @cached_property
    def total(self) -> float:
        return float(math.fsum(rate for _, rate in self.items))

    @cached_property
    def singleton_vector(self) -> np.ndarray:
        """Per-component singleton rates lambda_i (zero when absent)."""
        vec = np.zeros(self.n)
        for mask, rate in self.items:
            members = mask_members(mask)
            if len(members) == 1:
                vec[members[0]] = rate
        return vec

    @cached_property
    def size_totals(self) -> np.ndarray:
        """a_p = sum of lambda_S over |S| = p, for p = 1..n (index p-1)."""
        vec = np.zeros(self.n)
        for mask, rate in self.items:
            vec[mask.bit_count() - 1] += rate
        return vec

    @cached_property
    def rate_array(self) -> np.ndarray:
        return np.array([rate for _, rate in self.items], dtype=float)

    @cached_property
    def member_matrix(self) -> np.ndarray:
        """Boolean (n_subsets, n) membership matrix."""
        mat = np.zeros((len(self.items), self.n), dtype=bool)
        for row, (mask, _) in enumerate(self.items):
            mat[row, list(mask_members(mask))] = True
        return mat

    @cached_property
    def interaction_members(self) -> tuple[tuple[np.ndarray, float], ...]:
        """(0-based member indices, rate) of each rated subset of size >= 2."""
        return tuple(
            (np.array(mask_members(mask)), rate)
            for mask, rate in self.items
            if mask.bit_count() > 1
        )

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
    def _shape_vector(self) -> np.ndarray:
        assert self.shapes is not None
        return np.asarray(self.shapes, dtype=float)

    @cached_property
    def _power_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rate, exponent for t >= 1, exponent for t < 1) of each shock.

        Only meaningful for the Weibull Marshall-Olkin family: on the
        diagonal a shock S contributes lambda_S * max_{i in S} t**alpha_i,
        which is t to the largest member shape for t >= 1 and to the
        smallest for t < 1.
        """
        shapes = self._shape_vector
        members = [list(mask_members(mask)) for mask, _ in self.rates.items]
        return (
            self.rates.rate_array,
            np.array([shapes[m].max() for m in members]),
            np.array([shapes[m].min() for m in members]),
        )

    @cached_property
    def _weibull_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lambda_i, alpha_i, lambda_i * alpha_i) of the singleton sum
        s(t) = sum_i lambda_i * t**alpha_i."""
        lam = self.rates.singleton_vector
        return lam, self._shape_vector, lam * self._shape_vector

    @cached_property
    def _mg1_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a_p, p, p * a_p) for p = 1..n: H(t) = sum_p a_p * t**p."""
        a = self.rates.size_totals
        powers = np.arange(1, self.n + 1, dtype=float)
        return a, powers, a * powers

    @cached_property
    def _lubi_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lambda_i**(1/m), alpha_i/m, alpha_i * lambda_i**(1/m)) of the
        coupling sum u(t) = sum_i lambda_i**(1/m) * t**(alpha_i/m)."""
        root = self.rates.singleton_vector ** (1.0 / self.m)
        al = self._shape_vector
        return root, al / self.m, root * al

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
        cpow = self._scale_powers
        return float(
            math.fsum(
                rate * max(cpow[i] for i in mask_members(mask))
                for mask, rate in self.rates.items
            )
        )


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
    interacting = (Family.MOME, Family.MG1, Family.MOMW, Family.LEE_ML)
    if family not in interacting and rates.interaction_members:
        raise ValidationError(
            f"rates: family {family.value} admits only singleton subsets"
        )
    # rates are > 0: a component has zero total rate iff no subset holds it
    covered = 0
    for mask, _ in rates.items:
        covered |= mask
    for i in range(n):
        if not covered >> i & 1:
            raise ValidationError(
                f"rates: component {i + 1} has zero total rate (n = {n})"
            )

    shapes = None
    if family in (Family.INDEP_WEIBULL, Family.MOMW, Family.CROWDER,
                  Family.LEE_II, Family.LU_BI):
        shapes = _positive_vector(spec.shapes, n, "shapes")
    elif spec.shapes is not None:
        raise ValidationError("shapes: not a parameter of this family")

    gamma = stable_exponent = alpha = delta = m = None
    scales = None
    if family in (Family.CROWDER, Family.LEE_II):
        gamma = _param(spec.gamma if spec.gamma is not None else 0.0, "gamma",
                       positive=False)
        if spec.stable_exponent is None:
            raise ValidationError(f"{_L}: required for this family")
        stable_exponent = _param(spec.stable_exponent, _L)
        if family is Family.LEE_II:
            _require(gamma == 0.0, "gamma: must be 0 for the LeeII family")
            _require(
                stable_exponent <= 1,
                f"{_L}: must be in (0, 1], got {stable_exponent}",
            )
    elif family is Family.LEE_ML:
        if spec.alpha is None:
            raise ValidationError("alpha: required for this family")
        alpha = _param(spec.alpha, "alpha")
        scales = _positive_vector(spec.scales, n, _C)
        # c_i**alpha scales the hazard: inf or 0 would meet t**alpha as nan
        with np.errstate(over="ignore", under="ignore"):
            cpow = np.asarray(scales) ** alpha
        _require(bool(np.all(np.isfinite(cpow) & (cpow > 0))),
                 f"alpha: c_i**alpha must be a positive finite float for "
                 f"every entry of {_C}, got alpha = {alpha}")
    elif family is Family.LU_BI:
        delta = _param(spec.delta if spec.delta is not None else 0.0, "delta",
                       positive=False)
        m = _param(spec.m if spec.m is not None else 1.0, "m")

    for name in ("gamma", "stable_exponent", "alpha", "scales", "delta", "m"):
        value = getattr(spec, name)
        if value is not None and locals()[name] is None:
            label = {"stable_exponent": _L, "scales": _C}.get(name, name)
            raise ValidationError(f"{label}: not a parameter of this family")

    return ValidatedModel(
        family=family,
        n=n,
        rates=rates,
        shapes=shapes,
        gamma=gamma,
        stable_exponent=stable_exponent,
        alpha=alpha,
        scales=scales,
        delta=delta,
        m=m,
    )


# ---------------------------------------------------------------------------
# Joint survival
# ---------------------------------------------------------------------------


def _dot(weights: np.ndarray, v: np.ndarray):
    """sum_i w_i v_i: a float for one point, row-wise (k,) for a (k, n) batch."""
    if v.ndim == 1:
        return float(np.dot(weights, v))
    return v @ weights


def _shock_sum(rates: SubsetRates, v: np.ndarray, reduce: np.ufunc, fill: float):
    """sum over rated subsets T of lambda_T * reduce_{i in T} v_i.

    One point reduces the masked (subsets, n) matrix in one go.  A (k, n)
    batch takes the singletons as one matrix-vector product and then adds
    each larger subset from its members' columns: O(k * sum |T|) work and
    no (k, subsets, n) temporary.
    """
    if v.ndim == 1:
        vals = reduce.reduce(np.where(rates.member_matrix, v, fill), axis=1)
        return float(np.dot(rates.rate_array, vals))
    cols = v.T
    h = v @ rates.singleton_vector
    for members, rate in rates.interaction_members:
        h += rate * reduce.reduce(cols[members], axis=0)
    return h


def _joint_hazard(model: ValidatedModel, x: np.ndarray):
    """Joint cumulative hazard -ln F_bar(x_1,...,x_n).

    `x` is one point of shape (n,), giving a float, or a batch of shape
    (k, n), giving a (k,) array with one hazard per row.
    """
    fam = model.family
    rates = model.rates
    if fam is Family.INDEP_EXP:
        return _dot(rates.singleton_vector, x)
    if fam is Family.MOME:
        return _shock_sum(rates, x, np.maximum, -np.inf)
    if fam is Family.MG1:
        return _shock_sum(rates, x, np.multiply, 1.0)
    if fam is Family.INDEP_WEIBULL:
        return _dot(rates.singleton_vector, x ** model._shape_vector)
    if fam is Family.MOMW:
        return _shock_sum(rates, x ** model._shape_vector, np.maximum, -np.inf)
    if fam in (Family.CROWDER, Family.LEE_II):
        s = _dot(rates.singleton_vector, x ** model._shape_vector)
        return power_gap(model.gamma, s, model.stable_exponent)
    if fam is Family.LEE_ML:
        powered = model._scale_powers * x**model.alpha
        return _shock_sum(rates, powered, np.maximum, -np.inf)
    if fam is Family.LU_BI:
        lam, al, _ = model._weibull_terms
        root, root_exps, _ = model._lubi_terms
        u = _dot(root, x**root_exps)
        return _dot(lam, x**al) + model.delta * u**model.m
    raise AssertionError(f"unhandled family {fam}")


def joint_sf(model: ValidatedModel, x: Sequence[float]) -> float:
    """Joint survival probability P(X_1 > x_1, ..., X_n > x_n)."""
    vec = np.asarray(x, dtype=float)
    if vec.shape != (model.n,):
        raise DomainError(
            f"x must have length {model.n}, got shape {vec.shape}"
        )
    if not (vec >= 0).all():  # also catches NaN
        raise DomainError("x coordinates must be nonnegative")
    if np.isinf(vec).any():
        # Every component has a positive total rate, so P(X_i > inf) = 0;
        # the kernel would meet 0 * inf (MG1 products, LuBI with delta 0).
        return 0.0
    return clamp_unit(math.exp(-_joint_hazard(model, vec)))


# ---------------------------------------------------------------------------
# Series-system metrics
# ---------------------------------------------------------------------------


def _times(t):
    """(t, tc) with every t > 0 checked.

    A float stays a float and tc is t; a 1-D array gives tc as a (k, 1)
    column, so that `tc ** shapes` is (n,) for one point and (k, n) for a
    batch, and `_dot` reduces either to the hazard's shape.
    """
    if isinstance(t, np.ndarray):
        if t.ndim == 0:
            return _times(float(t))
        if t.ndim != 1:
            raise DomainError(f"t must be a float or a 1-D array, got {t.shape}")
        t = t.astype(float, copy=False)
        bad = _first_where(t, ~(t > 0))
        if bad is not None:
            raise DomainError(f"t must be > 0, got {bad}")
        return t, t[:, None]
    if not t > 0:
        raise DomainError(f"t must be > 0, got {t}")
    return t, t


def _first_where(t, cond):
    """The first t at which `cond` holds, or None; both floats or arrays."""
    if isinstance(cond, np.ndarray):
        return float(t[cond.argmax()]) if cond.any() else None
    return t if cond else None


def _fill(t, value: float):
    """A constant with the shape of t: the float itself for a float t."""
    return np.full(t.shape, value) if isinstance(t, np.ndarray) else value


def _momw_exponents(model: ValidatedModel, tc):
    """(rate, exponent) of each shock's diagonal term lambda_S * t**e_S.

    The exponent is the largest member shape for t >= 1 and the smallest
    for t < 1, per point: (shocks,) for a float, (k, shocks) for a column.
    """
    r, hi, lo = model._power_terms
    if isinstance(tc, np.ndarray):
        return r, np.where(tc >= 1.0, hi, lo)
    return r, hi if tc >= 1.0 else lo


def series_hazard(model: ValidatedModel, t):
    """Cumulative hazard H(t) of the series lifetime and its derivative.

    Both come from the family's closed form, not from differencing.  A
    float t gives two floats; a 1-D array of times gives two arrays.  H is
    -ln joint_sf(t, ..., t).  The MOMW derivative jumps at t = 1, where the
    exponents switch; H' there is the right derivative.
    """
    t, tc = _times(t)
    fam = model.family
    if fam in (Family.INDEP_EXP, Family.MOME):
        lam = model.rates.total
        return lam * t, _fill(t, lam)
    if fam is Family.MG1:
        a, powers, slopes = model._mg1_terms
        tp = tc**powers
        return _dot(a, tp), _dot(slopes, tp / tc)
    if fam is Family.MOMW:
        r, e = _momw_exponents(model, tc)
        tp = tc**e
        return _dot(r, tp), _dot(r, e * tp) / t
    if fam is Family.LEE_ML:
        lam_l = model._lee_total
        ta = power(t, model.alpha)
        return lam_l * ta, model.alpha * lam_l * ta / t
    lam, al, slopes = model._weibull_terms
    tp = tc**al
    s = _dot(lam, tp)
    ds = _dot(slopes, tp) / t
    if fam in (Family.CROWDER, Family.LEE_II):
        g, ell = model.gamma, model.stable_exponent
        return power_gap(g, s, ell), ell * (g + s) ** (ell - 1.0) * ds
    if fam is Family.LU_BI and model.delta > 0.0:
        root, root_exps, root_slopes = model._lubi_terms
        mm = model.m
        up = tc**root_exps
        u = _dot(root, up)
        du = _dot(root_slopes, up) / t / mm
        return (
            s + model.delta * u**mm,
            ds + model.delta * mm * u ** (mm - 1.0) * du,
        )
    # IndepWeibull, or LuBI with delta = 0: its delta * u**m would be 0 * inf
    # at t = inf
    return s, ds


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
        return t * dh / h
    return each(_rhr_value, h, dh)


def series_metric(model: ValidatedModel, metric: MetricKind, t):
    """One of SF/FR/RHR/AI for the series lifetime min_i X_i at time t.

    t is a float, giving a float, or a 1-D array, giving an array.
    """
    metric = MetricKind(metric)
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
    if fam in (Family.INDEP_EXP, Family.INDEP_WEIBULL):
        return model
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
        if singles == model.rates:
            return model
        return replace(model, rates=singles)
    if fam is Family.LU_BI:
        if model.delta == 0.0:
            return model
        return replace(model, delta=0.0)
    raise AssertionError(f"unhandled family {fam}")
