import numpy as np
import pytest

from depest import autodiff as ad
from depest import layers
from depest.features import ClipSample


def fd_gradients(f, arrays, eps=1e-5):
    """Central finite differences of scalar f(*arrays) wrt each array."""
    grads = []
    for k, arr in enumerate(arrays):
        g = np.zeros_like(arr, dtype=np.float64)
        flat = g.reshape(-1)
        for i in range(arr.size):
            orig = arr.reshape(-1)[i]
            arr.reshape(-1)[i] = orig + eps
            hi = f(*arrays)
            arr.reshape(-1)[i] = orig - eps
            lo = f(*arrays)
            arr.reshape(-1)[i] = orig
            flat[i] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def rel_err(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.abs(numeric).max()
    if scale == 0.0:
        return np.abs(analytic).max()
    return np.abs(analytic - numeric).max() / scale


def tiny_clip(rng, subscores, participant_id="P000", gender="female", clip_index=0,
              n_mels=8, t_audio=12, t_vis=6, n_sent=4):
    """Small random ClipSample for model/training tests."""
    return ClipSample(
        audio=rng.normal(size=(n_mels, t_audio)),
        visual=rng.normal(size=(t_vis, 72, 3)),
        text=rng.normal(size=(n_sent, 512)),
        phq_subscores=subscores,
        participant_id=participant_id,
        gender=gender,
        clip_index=clip_index,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(autouse=True)
def pass_setting_restored():
    """Fail a test that leaves autodiff's process-wide pass setting changed, and reset it for the next."""
    yield
    left, ad.current = ad.current, ad.Pass(update_stats=True)
    assert left == ad.current, f"the test left autodiff.current at {left}"


@pytest.fixture(autouse=True)
def recurrence_lock_free():
    """Fail a test that leaves the BiLSTM recurrence lock held, and free it for the next."""
    yield
    held = layers._recurrence.locked()
    if held:
        layers._recurrence.release()
    assert not held, "the test left layers._recurrence held"
