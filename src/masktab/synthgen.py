"""Synthetic raw-table generator with planted predictor effects.

The generator reproduces the structure of a multi-site cereal contamination
survey: ~100 sampling locations over two seasons, daily weather lags for the
pre-harvest window, agronomic categoricals and continuous descriptors, and 24
partially observed contamination responses. Latent contamination scores are a
known linear-plus-interaction function of a few planted variables, which gives
tests a ground-truth importance ordering. Missingness is injected per response
by blanking whole location-year blocks, mimicking campaign-level coverage
gaps.
"""

from dataclasses import dataclass

import numpy as np

from . import jsonio
from .data_model import RawMeta, RawTable, block_label
from .jsonio import SettingError, setting
from .preprocess import relative_humidity

# Default response panel: (name, missing fraction, detection rate). The
# missing fractions follow the coverage profile of a real two-season survey
# (densest compound ~10% missing, sparsest ~73%); detection rates are
# compressed into [0.25, 0.75] so that every response keeps both classes
# learnable at ~300 samples.
DEFAULT_RESPONSES: tuple[tuple[str, float, float], ...] = (
    ("deoxynivalenol", 0.103, 0.307),
    ("nivalenol", 0.228, 0.505),
    ("moniliformin", 0.228, 0.417),
    ("t2_toxin", 0.248, 0.583),
    ("enniatin_b", 0.290, 0.750),
    ("enniatin_b1", 0.290, 0.716),
    ("enniatin_a", 0.290, 0.424),
    ("enniatin_a1", 0.291, 0.588),
    ("ht2_toxin", 0.291, 0.598),
    ("alternariol_methyl_ether", 0.352, 0.343),
    ("deoxynivalenol_3_glucoside", 0.352, 0.278),
    ("beauvericin", 0.495, 0.634),
    ("zearalenone", 0.495, 0.275),
    ("acetyl_deoxynivalenol_3", 0.495, 0.268),
    ("acetyl_deoxynivalenol_15", 0.495, 0.285),
    ("alternariol", 0.558, 0.419),
    ("diacetoxyscirpenol", 0.558, 0.379),
    ("t2_toxin_3_glucoside", 0.558, 0.336),
    ("questiomycin_a", 0.589, 0.724),
    ("apicidin", 0.589, 0.313),
    ("neosolaniol", 0.589, 0.286),
    ("sterigmatocystin", 0.587, 0.411),
    ("ergocristine", 0.731, 0.259),
    ("ergotamine", 0.731, 0.250),
)

LAG_AGGREGATES = ("humidity_lag_mean", "temp_lag_mean", "precip_lag_mean")

CONTINUOUS_AGRONOMICS = (
    "latitude", "longitude", "elevation", "seed_rate", "total_n_applied",
    "yield", "seed_moisture",
)

CATEGORICAL_LEVELS: dict[str, tuple[str, ...]] = {
    "county": (
        "antrim", "armagh", "carlow", "cork", "derry", "down", "kildare",
        "kilkenny", "laois", "louth", "meath", "tipperary", "waterford", "wexford",
    ),
    "soil_type": ("loam", "clay_loam", "sandy_loam", "clay", "sandy", "peat"),
    "variety": ("husky", "barra", "keely", "isabel", "merlin", "conberg", "sandy", "elison"),
    "rotation": ("continuous_cereal", "cereal_break", "grass_ley", "root_crop", "mixed"),
    "sowing_ideotype": ("spring", "winter"),
    "establishment_system": ("plough", "min_till"),
    "cropping_system": ("conventional", "organic"),
    "prev_crop_1": ("oats", "wheat", "barley", "grass", "beans"),
    "prev_crop_2": ("oats", "wheat", "barley", "grass", "beans"),
    "prev_crop_3": ("oats", "wheat", "barley", "grass", "beans"),
}

# Approximate county centroids (lat, lon) used to label sites geographically.
_COUNTY_CENTROIDS = {
    "antrim": (54.85, -6.25), "armagh": (54.30, -6.55), "carlow": (52.72, -6.84),
    "cork": (51.95, -8.55), "derry": (54.90, -6.95), "down": (54.35, -5.90),
    "kildare": (53.18, -6.80), "kilkenny": (52.58, -7.25), "laois": (53.00, -7.35),
    "louth": (53.90, -6.45), "meath": (53.62, -6.70), "tipperary": (52.60, -7.85),
    "waterford": (52.20, -7.40), "wexford": (52.45, -6.55),
}

_LAT_RANGE = (51.45, 55.35)
_LON_RANGE = (-10.3, -5.45)
_YEARS = (2022, 2023)


@dataclass(frozen=True)
class PlantedEffect(jsonio.Document):
    """A known linear contribution of one variable to one response's latent score."""

    VERSION = None

    variable: str
    response: int = setting("[0, inf)")
    size: float = setting("(-inf, inf)")


def default_planted_effects(n_responses: int) -> tuple[PlantedEffect, ...]:
    """Weather-history aggregates dominate, then seed moisture, for every response."""
    sizes = (
        ("humidity_lag_mean", 2.0),
        ("precip_lag_mean", 1.5),
        ("temp_lag_mean", 1.2),
        ("seed_moisture", 1.0),
    )
    return tuple(
        PlantedEffect(variable=v, response=k, size=s)
        for k in range(n_responses)
        for v, s in sizes
    )


@dataclass
class SynthConfig(jsonio.Document):
    """Everything that determines one synthetic dataset; seed fixes it all."""

    n_samples: int = setting("[1, inf)", 300)
    n_sites: int = setting("[1, inf)", 100)
    n_responses: int = setting("[1, inf)", 24)
    weather_lag_days: int = setting("[1, inf)", 90)
    # None, for either profile: the survey-shaped default
    missingness_profile: tuple[float, ...] | None = setting("[0, 1)", None)
    planted_effects: tuple[PlantedEffect, ...] | None = None  # None: default weather+moisture
    seed: int = setting("[0, inf)", 0)  # seeds PCG64, which takes no negative seed
    occurrence_profile: tuple[float, ...] | None = setting("(0, 1)", None)
    latent_noise_sd: float = setting("[0, inf)", 0.5)
    interaction_strength: float = setting("(-inf, inf)", 0.5)
    concentration_slope: float = setting("[0, inf)", 1.0)  # below 0, concentrations go negative

    def check(self):
        for name in ("missingness_profile", "occurrence_profile"):
            profile = getattr(self, name)
            if profile is not None and len(profile) != self.n_responses:
                raise SettingError(name, f"needs {self.n_responses} entries, got {len(profile)}")
        for i, p in enumerate(self.planted_effects or ()):
            if p.variable not in LAG_AGGREGATES + CONTINUOUS_AGRONOMICS:
                raise SettingError(f"planted_effects[{i}].variable",
                                   f"{p.variable!r} not in generated schema")
            if p.response >= self.n_responses:
                raise SettingError(f"planted_effects[{i}].response", f"index {p.response} "
                                   f"out of range for {self.n_responses} responses")

    def resolved_profile(self, kind: str) -> np.ndarray:
        """Per-response ``kind`` ("missingness", "occurrence"): as configured, or survey-shaped."""
        profile = getattr(self, f"{kind}_profile")
        if profile is None:
            column = 1 if kind == "missingness" else 2
            profile = [DEFAULT_RESPONSES[k % len(DEFAULT_RESPONSES)][column]
                       for k in range(self.n_responses)]
        return np.asarray(profile, dtype=np.float64)

    def resolved_planted(self) -> tuple[PlantedEffect, ...]:
        if self.planted_effects is None:
            return default_planted_effects(self.n_responses)
        return self.planted_effects

    def response_names(self) -> tuple[str, ...]:
        names = []
        for k in range(self.n_responses):
            base = DEFAULT_RESPONSES[k % len(DEFAULT_RESPONSES)][0]
            suffix = "" if k < len(DEFAULT_RESPONSES) else f"_{k // len(DEFAULT_RESPONSES) + 1}"
            names.append(base + suffix)
        return tuple(names)


def _nearest_county(lat: float, lon: float) -> str:
    return min(
        _COUNTY_CENTROIDS,
        key=lambda c: (lat - _COUNTY_CENTROIDS[c][0]) ** 2 + (lon - _COUNTY_CENTROIDS[c][1]) ** 2,
    )


def _ar1(rng: np.random.Generator, n: int, phi: float, sd: float) -> np.ndarray:
    eps = rng.standard_normal(n) * sd
    out = np.empty(n)
    acc = 0.0
    for i in range(n):
        acc = phi * acc + eps[i]
        out[i] = acc
    return out


def _standardise(v: np.ndarray) -> np.ndarray:
    sd = v.std()
    if sd == 0.0:
        return np.zeros_like(v)
    return (v - v.mean()) / sd


def _inject_block_missingness(
    responses: np.ndarray,
    block_of: np.ndarray,
    targets: np.ndarray,
    rng: np.random.Generator,
) -> None:
    """Blank whole location-year blocks per response until targets are met;
    ``block_of`` holds each row's block index."""
    n = responses.shape[0]
    sizes = np.bincount(block_of).tolist()
    max_share = max(sizes) / n
    for k, target in enumerate(targets):
        if target == 0.0:
            continue
        missing = 0
        for j in rng.permutation(len(sizes)):
            if abs((missing + sizes[j]) / n - target) < abs(missing / n - target):
                responses[block_of == j, k] = np.nan
                missing += sizes[j]
        realised = missing / n
        if abs(realised - target) > max(0.02, max_share):
            raise ValueError(
                f"missingness target {target:.3f} unreachable for response {k}: "
                f"realised {realised:.3f} given the block structure"
            )


def generate(cfg: SynthConfig) -> RawTable:
    """Produce the raw, pre-encoding table. Pure function of the config."""
    miss = cfg.resolved_profile("missingness")
    occ = cfg.resolved_profile("occurrence")
    planted = cfg.resolved_planted()
    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    n = cfg.n_samples
    lag = cfg.weather_lag_days

    # Sites on an Ireland-like bounding box.
    site_lat = rng.uniform(*_LAT_RANGE, size=cfg.n_sites)
    site_lon = rng.uniform(*_LON_RANGE, size=cfg.n_sites)
    site_elev = 10.0 + np.abs(rng.normal(70.0, 55.0, size=cfg.n_sites))
    site_ph = rng.uniform(5.6, 7.6, size=cfg.n_sites)
    site_temp_offset = rng.normal(0.0, 0.8, size=cfg.n_sites) - 0.5 * (site_lat - 53.0)
    site_wetness = np.exp(rng.normal(0.0, 0.25, size=cfg.n_sites))
    # persistent site humidity regime: dew-point spread baseline per site
    site_dryness = rng.normal(0.0, 1.0, size=cfg.n_sites)
    site_soil = rng.choice(CATEGORICAL_LEVELS["soil_type"], size=cfg.n_sites)

    # Row -> (site, year); several samples can share a location-year block.
    row_site = rng.integers(0, cfg.n_sites, size=n)
    row_year = rng.choice(np.array(_YEARS), size=n)
    blocks = np.array(
        [block_label(f"site_{s:03d}", y) for s, y in zip(row_site, row_year)], dtype=object
    )

    # Block-level draws, in label order: one harvest window and one weather
    # history per block, shared by all samples from that location-year.
    _, first_row, block_of = np.unique(blocks, return_index=True, return_inverse=True)
    harvest_day = np.empty(len(first_row))
    temp, dew, precip = (np.empty((len(first_row), lag)) for _ in range(3))
    for j, site in enumerate(row_site[first_row]):
        harvest_day[j] = np.clip(rng.normal(228.0, 9.0), 200.0, 260.0)
        days = harvest_day[j] - np.arange(1, lag + 1)
        seasonal = 10.0 + 7.0 * np.sin(2.0 * np.pi * (days - 105.0) / 365.0)
        temp[j] = seasonal + site_temp_offset[site] + _ar1(rng, lag, 0.75, 1.2)
        spread = np.clip(
            2.2 + site_dryness[site] + rng.normal(0.0, 0.5) + _ar1(rng, lag, 0.7, 0.6),
            0.2, None,
        )
        dew[j] = temp[j] - spread
        rain = np.clip(np.exp(0.6 * _ar1(rng, lag, 0.5, 1.0)) - 0.55, 0.0, None)
        precip[j] = 4.0 * site_wetness[site] * rain
    temp_lags, dew_lags, precip_lags = temp[block_of], dew[block_of], precip[block_of]

    # Row-level agronomics.
    ideotype = rng.choice(CATEGORICAL_LEVELS["sowing_ideotype"], size=n, p=[0.55, 0.45])
    sowing = np.where(
        ideotype == "winter",
        np.clip(rng.normal(290.0, 10.0, size=n), 270.0, 330.0),
        np.clip(rng.normal(85.0, 12.0, size=n), 45.0, 120.0),
    )
    columns: dict[str, np.ndarray] = {
        "site_id": np.array([f"site_{s:03d}" for s in row_site], dtype=object),
        "year": np.array([str(y) for y in row_year], dtype=object),
        "latitude": site_lat[row_site],
        "longitude": site_lon[row_site],
        "elevation": site_elev[row_site],
        "seed_rate": rng.normal(170.0, 25.0, size=n),
        "total_n_applied": np.clip(rng.normal(120.0, 30.0, size=n), 0.0, None),
        "yield": np.clip(rng.normal(7.2, 1.3, size=n), 1.0, None),
        "seed_moisture": np.clip(rng.normal(14.5, 1.8, size=n), 8.0, None),
        "sowing_doy": sowing,
        "harvest_doy": harvest_day[block_of],
        "county": np.array(
            [_nearest_county(site_lat[s], site_lon[s]) for s in row_site], dtype=object
        ),
        "soil_type": site_soil[row_site].astype(object),
        "variety": rng.choice(CATEGORICAL_LEVELS["variety"], size=n).astype(object),
        "rotation": rng.choice(CATEGORICAL_LEVELS["rotation"], size=n).astype(object),
        "sowing_ideotype": ideotype.astype(object),
        "establishment_system": rng.choice(
            CATEGORICAL_LEVELS["establishment_system"], size=n
        ).astype(object),
        "cropping_system": rng.choice(
            CATEGORICAL_LEVELS["cropping_system"], size=n, p=[0.85, 0.15]
        ).astype(object),
        "prev_crop_1": rng.choice(CATEGORICAL_LEVELS["prev_crop_1"], size=n).astype(object),
        "prev_crop_2": rng.choice(CATEGORICAL_LEVELS["prev_crop_2"], size=n).astype(object),
        "prev_crop_3": rng.choice(CATEGORICAL_LEVELS["prev_crop_3"], size=n).astype(object),
    }

    # Soil pH, occasionally recorded as a range string.
    ph = site_ph[row_site] + rng.normal(0.0, 0.1, size=n)
    ph_col = np.empty(n, dtype=object)
    as_range = rng.random(n) < 0.15
    widths = rng.uniform(0.3, 0.8, size=n)
    for i in range(n):
        if as_range[i]:
            lo = ph[i] - widths[i] / 2.0
            hi = ph[i] + widths[i] / 2.0
            ph_col[i] = f"{lo:.1f}-{hi:.1f}"
        else:
            ph_col[i] = f"{ph[i]:.2f}"
    columns["soil_ph"] = ph_col

    # A sprinkle of missing predictor cells, to exercise imputation.
    for name in ("seed_rate", "total_n_applied", "yield"):
        gaps = rng.random(n) < 0.03
        columns[name] = np.where(gaps, np.nan, columns[name])
    gaps = rng.random(n) < 0.05
    pc3 = columns["prev_crop_3"].copy()
    pc3[gaps] = None
    columns["prev_crop_3"] = pc3

    for fam, lags_matrix in (("temp", temp_lags), ("dew", dew_lags), ("precip", precip_lags)):
        for i in range(lag):
            columns[f"{fam}_lag_{i + 1:02d}"] = lags_matrix[:, i]

    # Planted drivers, standardised over the generated sample.
    humidity = relative_humidity(temp_lags, dew_lags)
    aggregates = {
        "humidity_lag_mean": humidity.mean(axis=1),
        "temp_lag_mean": temp_lags.mean(axis=1),
        "precip_lag_mean": precip_lags.mean(axis=1),
    }

    def driver(name: str) -> np.ndarray:
        if name in aggregates:
            return _standardise(aggregates[name])
        return _standardise(np.asarray(columns[name], dtype=np.float64))

    responses = np.zeros((n, cfg.n_responses))
    scales = 8.0 + 4.0 * (np.arange(cfg.n_responses) % 5)
    for k in range(cfg.n_responses):
        effects = [p for p in planted if p.response == k]
        latent = np.zeros(n)
        for p in effects:
            latent += p.size * driver(p.variable)
        if len(effects) >= 2 and cfg.interaction_strength != 0.0:
            top2 = sorted(effects, key=lambda p: -abs(p.size))[:2]
            latent += cfg.interaction_strength * driver(top2[0].variable) * driver(top2[1].variable)
        latent += cfg.latent_noise_sd * rng.standard_normal(n)
        threshold = float(np.quantile(latent, 1.0 - occ[k]))
        above = latent > threshold
        conc = np.zeros(n)
        conc[above] = scales[k] * np.expm1(cfg.concentration_slope * (latent[above] - threshold))
        responses[:, k] = conc

    _inject_block_missingness(responses, block_of, miss, rng)

    meta = RawMeta(
        site_column="site_id",
        year_column="year",
        categorical_columns=("year",) + tuple(CATEGORICAL_LEVELS),
        continuous_columns=CONTINUOUS_AGRONOMICS,
        day_of_year_columns=("sowing_doy", "harvest_doy"),
        soil_ph_columns=("soil_ph",),
        temperature_lag_columns=tuple(f"temp_lag_{i + 1:02d}" for i in range(lag)),
        dew_point_lag_columns=tuple(f"dew_lag_{i + 1:02d}" for i in range(lag)),
        precipitation_lag_columns=tuple(f"precip_lag_{i + 1:02d}" for i in range(lag)),
        humidity_prefix="humidity_lag",
    )
    return RawTable(
        columns=columns,
        meta=meta,
        responses=responses,
        response_names=cfg.response_names(),
        loq=np.full(cfg.n_responses, 1.0),
    )


def oracle_importance(cfg: SynthConfig) -> list[list[str]]:
    """Ground-truth importance ranking per response.

    Planted variables ordered by absolute effect size (descending); everything
    else carries no signal and is tied behind them.
    """
    planted = cfg.resolved_planted()
    out: list[list[str]] = []
    for k in range(cfg.n_responses):
        effects = [p for p in planted if p.response == k]
        effects.sort(key=lambda p: (-abs(p.size), p.variable))
        out.append([p.variable for p in effects])
    return out


def importance_group_of(variable: str) -> str:
    """Map a planted variable to the grouped-importance group it lands in."""
    if variable.endswith("_lag_mean"):
        return variable[: -len("_lag_mean")] + "_history"
    return variable
