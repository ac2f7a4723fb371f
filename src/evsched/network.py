"""Charging site infrastructure: EVSEs and unbalanced three-phase current limits.

A network constraint limits the magnitude of a complex aggregate current

    | sum_i A_li * r_i * exp(j phi_i) + L_l(t) |  <=  c_l(t)

where A_li is the (real) coefficient of EVSE i in constraint l, phi_i the
phase-line angle of the EVSE, L_l a background load phasor and c_l the limit.
Dropping the angles and taking absolute values gives the conservative affine
form  sum_i |A_li| r_i + |L_l(t)| <= c_l(t), which implies the magnitude form
by the triangle inequality.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Evse",
    "NetworkConstraint",
    "ChargingNetwork",
    "aerovironment",
    "clippercreek",
    "continuous_evse",
    "caltech_preset",
    "synthetic_preset",
]

# Phase-line angles (degrees) used by the delta-connected site presets.
PHASE_AB = 30.0
PHASE_BC = -90.0
PHASE_CA = 150.0


@dataclass(frozen=True, eq=False)
class Evse:
    """A charging stall: pilot limits and the phase line it draws from.

    ``allowable_rates`` is the finite pilot set for quantized hardware (always
    containing 0). Continuous EVSEs set ``continuous=True`` and may pilot
    anywhere in {0} union [min_nonzero_rate, max_pilot].
    """

    id: str
    max_pilot: float
    phase_angle: float = 0.0
    allowable_rates: tuple[float, ...] = ()
    continuous: bool = False
    min_nonzero_rate: float = 6.0

    def __post_init__(self) -> None:
        if self.max_pilot <= 0:
            raise ValueError(f"EVSE {self.id}: max_pilot must be positive")
        if not -180.0 <= self.phase_angle <= 180.0:
            raise ValueError(f"EVSE {self.id}: phase angle {self.phase_angle} out of [-180, 180]")
        if self.continuous:
            if self.min_nonzero_rate <= 0:
                raise ValueError(f"EVSE {self.id}: min_nonzero_rate must be positive")
            return
        rates = tuple(sorted(set(float(r) for r in self.allowable_rates)))
        if not rates or rates[0] != 0.0:
            raise ValueError(f"EVSE {self.id}: allowable rates must contain 0")
        if rates[-1] > self.max_pilot:
            raise ValueError(f"EVSE {self.id}: allowable rate {rates[-1]} exceeds max pilot")
        object.__setattr__(self, "allowable_rates", rates)

    @property
    def min_rate(self) -> float:
        """Smallest nonzero pilot the stall accepts."""
        if self.continuous:
            return self.min_nonzero_rate
        return self.allowable_rates[1] if len(self.allowable_rates) > 1 else 0.0

    def floor_rate(self, rate: float) -> float:
        """Largest allowed pilot <= rate (0 if none)."""
        if self.continuous:
            if rate >= self.min_nonzero_rate:
                return min(rate, self.max_pilot)
            return 0.0
        best = 0.0
        for r in self.allowable_rates:
            if r <= rate + 1e-9:
                best = r
            else:
                break
        return best

    def next_rate(self, rate: float) -> float | None:
        """Smallest allowed pilot strictly above ``rate``, or None at the top."""
        if self.continuous:
            if rate >= self.max_pilot - 1e-9:
                return None
            return max(rate + 1.0, self.min_nonzero_rate) if rate < self.min_nonzero_rate else min(rate + 1.0, self.max_pilot)
        for r in self.allowable_rates:
            if r > rate + 1e-9:
                return r
        return None

    def ceil_rate(self, rate: float) -> float:
        """Smallest allowed pilot >= rate, capped at max_pilot."""
        if self.continuous:
            if rate <= 0:
                return 0.0
            return min(max(rate, self.min_nonzero_rate), self.max_pilot)
        for r in self.allowable_rates:
            if r >= rate - 1e-9:
                return r
        return self.allowable_rates[-1]


def aerovironment(evse_id: str, phase_angle: float) -> Evse:
    """32 A EVSE accepting 0 and every integer pilot from 6 to 32 A."""
    rates = (0.0,) + tuple(float(a) for a in range(6, 33))
    return Evse(evse_id, 32.0, phase_angle, rates)


def clippercreek(evse_id: str, phase_angle: float) -> Evse:
    """32 A EVSE accepting only {0, 8, 16, 24, 32} A."""
    return Evse(evse_id, 32.0, phase_angle, (0.0, 8.0, 16.0, 24.0, 32.0))


def continuous_evse(evse_id: str, max_pilot: float, phase_angle: float, min_nonzero_rate: float = 6.0) -> Evse:
    return Evse(evse_id, max_pilot, phase_angle, (), continuous=True, min_nonzero_rate=min_nonzero_rate)


@dataclass(eq=False)
class NetworkConstraint:
    """One magnitude limit on a weighted sum of EVSE current phasors.

    ``coefficients`` maps EVSE id -> real coefficient A_li (the phase angle is
    taken from the EVSE itself). ``limit`` and ``background`` may be scalars or
    per-period arrays; scalar values apply to every period.
    """

    id: str
    coefficients: dict[str, float]
    limit: float | np.ndarray
    background: complex | np.ndarray = 0j


class ChargingNetwork:
    """EVSEs plus the constraint set they share.

    Rate vectors are ordered like ``network.evses``. The complex weight of
    EVSE i in constraint l is ``A_li * exp(j phi_i)``; that matrix is built
    once, for the feasibility checks and for building solver constraints
    (``weights``). Limits and backgrounds are likewise read from the
    constraints once, at construction.
    """

    def __init__(self, evses: Sequence[Evse], constraints: Sequence[NetworkConstraint], nominal_voltage: float = 208.0):
        ids = [e.id for e in evses]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate EVSE ids")
        self.evses: tuple[Evse, ...] = tuple(evses)
        self.constraints: tuple[NetworkConstraint, ...] = tuple(constraints)
        self.nominal_voltage = float(nominal_voltage)
        self.evse_index: dict[str, int] = {e.id: i for i, e in enumerate(self.evses)}
        self.constraint_index: dict[str, int] = {c.id: i for i, c in enumerate(self.constraints)}
        if len(self.constraint_index) != len(self.constraints):
            raise ValueError("duplicate constraint ids")

        n, m = len(self.evses), len(self.constraints)
        self._weights = np.zeros((m, n), dtype=complex)
        for li, c in enumerate(self.constraints):
            for evse_id, coef in c.coefficients.items():
                if evse_id not in self.evse_index:
                    raise KeyError(f"constraint {c.id} references unknown EVSE {evse_id!r}")
                i = self.evse_index[evse_id]
                self._weights[li, i] = coef * cmath.exp(1j * math.radians(self.evses[i].phase_angle))
        self._weights.setflags(write=False)
        self._abs_weights = np.abs(self._weights)
        # Per EVSE: the rows it is in with |w_li| and conj(w_li) / |w_li|, and the rows it is not in.
        self._columns = []
        for i in range(n):
            on = np.flatnonzero(self._abs_weights[:, i] > 0)
            mag = self._abs_weights[on, i]
            self._columns.append((on, np.flatnonzero(self._abs_weights[:, i] == 0), mag, np.conj(self._weights[on, i]) / mag))
        # Limits and backgrounds are read once, into (m, T) tables whose rows
        # are padded with their last value: column min(t, T - 1) holds every
        # constraint's value at period t.
        self._limit_table = _period_table(self.constraints, "limit", float)
        self._background_table = _period_table(self.constraints, "background", complex)
        # |L_l(t)| by np.hypot, as the affine program rows take it, so the
        # affine checks here and the rows the solver sees agree to the bit.
        self._background_magnitudes = np.hypot(self._background_table.real, self._background_table.imag)
        self._background_magnitudes.setflags(write=False)

    def __len__(self) -> int:
        return len(self.evses)

    def evse(self, evse_id: str) -> Evse:
        return self.evses[self.evse_index[evse_id]]

    @property
    def weights(self) -> np.ndarray:
        """Read-only complex weights A_li exp(j phi_i): one row per constraint, one column per EVSE."""
        return self._weights

    def _as_vector(self, rates: Mapping[str, float] | Sequence[float] | np.ndarray) -> np.ndarray:
        if isinstance(rates, Mapping):
            vec = np.zeros(len(self.evses))
            for evse_id, r in rates.items():
                vec[self.evse_index[evse_id]] = r
            return vec
        vec = np.asarray(rates, dtype=float)
        if vec.shape != (len(self.evses),):
            raise ValueError(f"rate vector has shape {vec.shape}, expected ({len(self.evses)},)")
        return vec

    def aggregates(self, rates: Mapping[str, float] | Sequence[float], t: int = 0) -> np.ndarray:
        """Complex aggregate current of every constraint at period t, background included."""
        return self._weights @ self._as_vector(rates) + _at_period(self._background_table, t)

    def limit_profile(self, periods: int, start: int = 0) -> np.ndarray:
        """Read-only (m, periods) limits: column t holds every constraint's limit at period start + t."""
        return _profile(self._limit_table, periods, start)

    def background_profile(self, periods: int, start: int = 0) -> np.ndarray:
        """Read-only (m, periods) background phasors: column t holds every constraint's at period start + t."""
        return _profile(self._background_table, periods, start)

    def margins(self, rates: Mapping[str, float] | Sequence[float], t: int = 0, mode: str = "soc") -> np.ndarray:
        """Per-constraint slack c_l(t) - |aggregate| (``soc``) or its affine bound; negative means violated."""
        if mode == "soc":
            return _at_period(self._limit_table, t) - np.abs(self.aggregates(rates, t))
        if mode == "affine":
            vec = self._as_vector(rates)
            return _at_period(self._limit_table, t) - (self._abs_weights @ np.abs(vec) + _at_period(self._background_magnitudes, t))
        raise ValueError(f"unknown feasibility mode {mode!r}")

    def is_feasible(self, rates, t: int = 0, mode: str = "soc", tol: float = 1e-6) -> bool:
        """Every constraint holds in the given form within tol amps."""
        return bool((self.margins(rates, t, mode) >= -tol).all())

    def rate_window(self, vec: np.ndarray, i: int, t: int = 0, mode: str = "soc", tol: float = 1e-6) -> tuple[float, float]:
        """Interval [lo, hi] of EVSE i's rate that keeps every constraint within tol.

        ``vec`` is a network-ordered rate vector whose other entries stay
        fixed; its entry i is ignored. Setting it to r passes ``is_feasible``
        exactly when lo <= r <= hi, up to rounding at the ends. A row without
        EVSE i must hold already, or the window is empty (lo > hi).
        """
        if mode not in ("soc", "affine"):
            raise ValueError(f"unknown feasibility mode {mode!r}")
        rest = np.array(vec, dtype=float)
        rest[i] = 0.0
        cap = _at_period(self._limit_table, t) + tol
        on, off, mag, unit = self._columns[i]
        if mode == "affine":
            # |A_li| |r| <= c_l + tol - (sum_{j != i} |A_lj| |r_j| + |L_l|)
            room = cap - (self._abs_weights @ np.abs(rest) + _at_period(self._background_magnitudes, t))
            if len(off) and (room[off] < 0).any():
                return _EMPTY
            hi = float((room[on] / mag).min()) if len(on) else math.inf
            return -hi, hi
        # |a_l + w_li r| <= c_l + tol with a_l the rest of the aggregate. With
        # p + jq = a_l conj(w_li) / |w_li| this is (p + |w_li| r)^2 <= (c_l + tol)^2 - q^2.
        a = self._weights @ rest + _at_period(self._background_table, t)
        if len(off) and (np.abs(a[off]) > cap[off]).any():
            return _EMPTY
        if not len(on):
            return -math.inf, math.inf
        proj, cap = a[on] * unit, cap[on]
        q = np.abs(proj.imag)
        if (cap < q).any():
            return _EMPTY
        half = np.sqrt((cap - q) * (cap + q))
        return float(((-proj.real - half) / mag).max()), float(((half - proj.real) / mag).min())

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        def limit_value(c: NetworkConstraint):
            return float(c.limit) if np.ndim(c.limit) == 0 else [float(x) for x in np.asarray(c.limit)]

        def background_value(c: NetworkConstraint):
            if np.ndim(c.background) == 0:
                z = complex(c.background)
                return {"re": z.real, "im": z.imag}
            arr = np.asarray(c.background, dtype=complex)
            return [{"re": z.real, "im": z.imag} for z in arr]

        return {
            "nominal_voltage": self.nominal_voltage,
            "evses": [
                {
                    "id": e.id,
                    "max_pilot": e.max_pilot,
                    "phase_angle": e.phase_angle,
                    "allowable_rates": list(e.allowable_rates),
                    "continuous": e.continuous,
                    "min_nonzero_rate": e.min_nonzero_rate,
                }
                for e in self.evses
            ],
            "constraints": [
                {
                    "id": c.id,
                    "coefficients": {k: float(v) for k, v in c.coefficients.items()},
                    "limit": limit_value(c),
                    "background": background_value(c),
                }
                for c in self.constraints
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChargingNetwork":
        try:
            evses = [
                Evse(
                    id=e["id"],
                    max_pilot=float(e["max_pilot"]),
                    phase_angle=float(e.get("phase_angle", 0.0)),
                    allowable_rates=tuple(e.get("allowable_rates", ())),
                    continuous=bool(e.get("continuous", False)),
                    min_nonzero_rate=float(e.get("min_nonzero_rate", 6.0)),
                )
                for e in data["evses"]
            ]
            constraints = []
            for c in data["constraints"]:
                limit = c["limit"]
                limit = np.asarray(limit, dtype=float) if isinstance(limit, list) else float(limit)
                bg = c.get("background", {"re": 0.0, "im": 0.0})
                if isinstance(bg, list):
                    background = np.array([complex(z["re"], z["im"]) for z in bg])
                else:
                    background = complex(bg["re"], bg["im"])
                constraints.append(NetworkConstraint(c["id"], dict(c["coefficients"]), limit, background))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed network description: {exc}") from exc
        return cls(evses, constraints, float(data.get("nominal_voltage", 208.0)))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "ChargingNetwork":
        return cls.from_dict(json.loads(Path(path).read_text()))


_EMPTY = (math.inf, -math.inf)  # a rate window no rate lies in


def _period_table(constraints: Sequence[NetworkConstraint], name: str, dtype: type) -> np.ndarray:
    """One row per constraint of a scalar or per-period field, padded with each row's last value."""
    rows = [np.atleast_1d(np.asarray(getattr(c, name), dtype=dtype)) for c in constraints]
    for c, row in zip(constraints, rows):
        if row.ndim != 1 or not len(row):
            raise ValueError(f"constraint {c.id}: {name} must be a scalar or a non-empty 1-D array")
    table = np.empty((len(rows), max((len(r) for r in rows), default=1)), dtype=dtype)
    for li, row in enumerate(rows):
        table[li, : len(row)] = row
        table[li, len(row) :] = row[-1]
    table.setflags(write=False)
    return table


def _at_period(table: np.ndarray, t: int) -> np.ndarray:
    """Column t of a period table, past its end its last column."""
    return table[:, min(t, table.shape[1] - 1)]


def _profile(table: np.ndarray, periods: int, start: int) -> np.ndarray:
    """Columns start .. start + periods - 1 of a period table, past its end its last column."""
    if start < 0 or periods < 0:
        raise ValueError("profile start and length must be nonnegative")
    if table.shape[1] == 1:
        return np.broadcast_to(table, (len(table), periods))
    out = table[:, np.minimum(np.arange(start, start + periods), table.shape[1] - 1)]
    out.setflags(write=False)
    return out


def _delta_wye_constraints(
    ab_ids: Iterable[str],
    bc_ids: Iterable[str],
    ca_ids: Iterable[str],
    transformer_kw: float,
) -> list[NetworkConstraint]:
    """Secondary and primary line-current limits for a 480/120 V delta-wye transformer.

    Secondary line currents are differences of adjacent phase-pair aggregates
    (Ia = Iab - Ica etc.); primary currents are differences of winding
    currents over the 4:1 winding ratio. Limits split the transformer rating
    evenly across the three phases at the respective line-to-neutral voltages.
    """
    ab, bc, ca = list(ab_ids), list(bc_ids), list(ca_ids)
    secondary_limit = transformer_kw * 1000.0 / 3.0 / 120.0
    primary_limit = transformer_kw * 1000.0 / 3.0 / 277.0

    def combine(*groups: tuple[list[str], float]) -> dict[str, float]:
        coefs: dict[str, float] = {}
        for ids, w in groups:
            for evse_id in ids:
                coefs[evse_id] = coefs.get(evse_id, 0.0) + w
        return {k: v for k, v in coefs.items() if v != 0.0}

    return [
        NetworkConstraint("secondary-a", combine((ab, 1.0), (ca, -1.0)), secondary_limit),
        NetworkConstraint("secondary-b", combine((bc, 1.0), (ab, -1.0)), secondary_limit),
        NetworkConstraint("secondary-c", combine((ca, 1.0), (bc, -1.0)), secondary_limit),
        NetworkConstraint("primary-a", combine((ab, 0.25), (bc, 0.25), (ca, -0.5)), primary_limit),
        NetworkConstraint("primary-b", combine((ab, -0.5), (bc, 0.25), (ca, 0.25)), primary_limit),
        NetworkConstraint("primary-c", combine((ab, 0.25), (bc, -0.5), (ca, 0.25)), primary_limit),
    ]


def caltech_preset(transformer_kw: float = 150.0) -> ChargingNetwork:
    """54-stall garage on a 150 kVA delta-wye transformer, 208 V line-to-line.

    26 stalls on phase pair AB (10 standalone 32 A units plus one 8-stall pod
    of coarse-step units and one 8-stall pod of 32 A units, each pod sharing
    an 80 A feeder), 14 on BC and 14 on CA. Fully loaded the stalls ask for
    roughly 2.4x what the transformer can carry.
    """
    ab_standalone = [aerovironment(f"AB-{i:02d}", PHASE_AB) for i in range(1, 11)]
    cc_pod = [clippercreek(f"AB-POD-CC-{i}", PHASE_AB) for i in range(1, 9)]
    av_pod = [aerovironment(f"AB-POD-AV-{i}", PHASE_AB) for i in range(1, 9)]
    bc = [aerovironment(f"BC-{i:02d}", PHASE_BC) for i in range(1, 15)]
    ca = [aerovironment(f"CA-{i:02d}", PHASE_CA) for i in range(1, 15)]
    evses = ab_standalone + cc_pod + av_pod + bc + ca

    ab_ids = [e.id for e in ab_standalone + cc_pod + av_pod]
    constraints = [
        NetworkConstraint("cc-pod", {e.id: 1.0 for e in cc_pod}, 80.0),
        NetworkConstraint("av-pod", {e.id: 1.0 for e in av_pod}, 80.0),
    ] + _delta_wye_constraints(ab_ids, [e.id for e in bc], [e.id for e in ca], transformer_kw)
    return ChargingNetwork(evses, constraints, nominal_voltage=208.0)


def synthetic_preset(n_evse: int = 10, transformer_kw: float = 50.0) -> ChargingNetwork:
    """Small test site: n 32 A stalls round-robined over the three phase pairs.

    Same delta-wye constraint construction as the full garage, sized so that
    moderate transformer ratings leave it oversubscribed.
    """
    if n_evse < 3:
        raise ValueError("need at least one EVSE per phase pair")
    groups: dict[float, list[Evse]] = {PHASE_AB: [], PHASE_BC: [], PHASE_CA: []}
    pair_names = {PHASE_AB: "AB", PHASE_BC: "BC", PHASE_CA: "CA"}
    for i in range(n_evse):
        phase = (PHASE_AB, PHASE_BC, PHASE_CA)[i % 3]
        groups[phase].append(aerovironment(f"S-{pair_names[phase]}-{len(groups[phase]) + 1:02d}", phase))
    evses = groups[PHASE_AB] + groups[PHASE_BC] + groups[PHASE_CA]
    constraints = _delta_wye_constraints(
        [e.id for e in groups[PHASE_AB]],
        [e.id for e in groups[PHASE_BC]],
        [e.id for e in groups[PHASE_CA]],
        transformer_kw,
    )
    return ChargingNetwork(evses, constraints, nominal_voltage=208.0)
