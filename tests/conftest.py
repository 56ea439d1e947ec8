import numpy as np
import pytest

from masktab.data_model import FeatureSchema, SchemaEntry, TabularDataset
from masktab.preprocess import split_blocks, transform_responses
from masktab.synthgen import SynthConfig, generate


def make_schema(n_continuous=3, one_hot_groups=()):
    """Schema with n continuous columns then the given (name, n_levels) groups."""
    entries = []
    idx = 0
    for i in range(n_continuous):
        entries.append(
            SchemaEntry(column_index=idx, original_variable=f"x{i}", kind="continuous",
                        group_id=f"x{i}")
        )
        idx += 1
    for name, n_levels in one_hot_groups:
        for lvl in range(n_levels):
            entries.append(
                SchemaEntry(column_index=idx, original_variable=name, kind="one_hot_level",
                            group_id=name, level_label=f"l{lvl}")
            )
            idx += 1
    return FeatureSchema(entries=tuple(entries))


def make_dataset(n=12, n_continuous=3, one_hot_groups=(("cat", 3),), n_responses=2, seed=0):
    """Small consistent dataset with a couple of masked cells."""
    rng = np.random.default_rng(seed)
    schema = make_schema(n_continuous, one_hot_groups)
    p = schema.n_columns
    X = rng.standard_normal((n, n_continuous))
    for name, n_levels in one_hot_groups:
        levels = rng.integers(0, n_levels, size=n)
        # reroll until every level is hit, so no indicator column is constant
        while len(set(levels.tolist())) < n_levels:
            levels = rng.integers(0, n_levels, size=n)
        X = np.column_stack([X, np.eye(n_levels)[levels]])
    assert X.shape[1] == p
    raw = rng.gamma(2.0, 5.0, size=(n, n_responses)) * rng.integers(0, 2, size=(n, n_responses))
    M = (rng.random((n, n_responses)) > 0.25).astype(np.float64)
    Y_cont = np.where(M == 1.0, np.log1p(raw), np.nan)
    Y_bin = np.where(M == 1.0, (raw > 0).astype(np.float64), np.nan)
    blocks = np.array([f"site_{i // 3}|2022" for i in range(n)], dtype=object)
    return TabularDataset(
        X=X, Y_cont=Y_cont, Y_bin=Y_bin, M=M, blocks=blocks, schema=schema,
        response_names=tuple(f"tox_{k}" for k in range(n_responses)),
    )


@pytest.fixture
def small_dataset():
    return make_dataset()


@pytest.fixture(scope="session")
def survey0_split_inputs():
    """The default survey's (synthesis seed 0) block labels, y_bin and mask."""
    raw = generate(SynthConfig(seed=0))
    _, y_bin, mask = transform_responses(raw.responses, raw.loq)
    return raw.block_labels(), y_bin, mask


@pytest.fixture(scope="session")
def survey0_splits(survey0_split_inputs):
    """The default survey's block labels and its split_blocks draws at the
    default fractions for seeds 0-999. The split-integrity criterion checks
    every draw and the split digests pin the first 200, so the draws are made
    once per session."""
    blocks, y_bin, mask = survey0_split_inputs
    return blocks, [split_blocks(blocks, y_bin, mask, seed=s) for s in range(1000)]
