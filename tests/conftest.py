import numpy as np
import pytest

from ufcast.core import TimeSeries

try:
    from hypothesis import settings
except ImportError:  # optional test dependency; property tests skip
    pass
else:
    # fixed example sequence and no example database, so tier-1 runs the
    # same examples every time
    settings.register_profile("ufcast", derandomize=True, database=None,
                              deadline=None)
    settings.load_profile("ufcast")


def seasonal_series(n=150, sp=24, level=60.0, slope=0.05, amp=0.3,
                    noise=0.02, seed=0, start_index=0):
    """Positive trending seasonal series, the workhorse fixture."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    values = (level + slope * t) * (1 + amp * np.sin(2 * np.pi * t / sp))
    values *= np.exp(rng.normal(0.0, noise, n))
    return TimeSeries(values, start_index=start_index, sp=sp)


def write_m4_csv(path, rows, ragged=True):
    """Write rows of (id, values) in the M4 distribution format."""
    width = max(len(v) for _, v in rows) + (3 if ragged else 0)
    with open(path, "w") as fh:
        fh.write(",".join(f"V{i + 1}" for i in range(width + 1)) + "\n")
        for sid, values in rows:
            cells = [f"{v:.6f}" for v in values]
            if ragged:
                cells += [""] * (width - len(cells))
            fh.write(f'"{sid}",' + ",".join(cells) + "\n")


@pytest.fixture(scope="session")
def mini_m4_dir(tmp_path_factory):
    """Six-series synthetic hourly-format dataset (sp=24, horizon=48)."""
    root = tmp_path_factory.mktemp("mini_m4")
    train_rows, test_rows = [], []
    for i in range(1, 7):
        n_train = 120 + 16 * i
        full = seasonal_series(
            n=n_train + 48, sp=24, level=50 + 4 * i, slope=0.03 * i,
            amp=0.2 + 0.02 * i, seed=100 + i,
        ).values
        train_rows.append((f"H{i}", full[:n_train]))
        test_rows.append((f"H{i}", full[n_train:]))
    write_m4_csv(root / "Hourly-train.csv", train_rows)
    write_m4_csv(root / "Hourly-test.csv", test_rows)
    return root
