import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ModelGraphError
from repro.nn.activations import get_activation, supported_activations


class TestRegistry:
    def test_all_four_supported(self):
        assert supported_activations() == (
            "linear",
            "relu",
            "sigmoid",
            "tanh",
        )

    def test_case_insensitive(self):
        assert get_activation("ReLU").name == "relu"

    def test_unknown_raises(self):
        with pytest.raises(ModelGraphError):
            get_activation("swish")


class TestForward:
    def test_linear_identity(self):
        values = np.array([-1.0, 0.0, 2.0], dtype=np.float32)
        assert get_activation("linear")(values) is values

    def test_relu(self):
        values = np.array([-1.0, 0.0, 2.0], dtype=np.float32)
        assert get_activation("relu")(values).tolist() == [0.0, 0.0, 2.0]

    @pytest.mark.parametrize(
        "shape", [(5,), (1024, 32), (4096, 64), (2, 3, 4), (0, 8)]
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_bits_match_broadcast_maximum(self, shape, dtype):
        # NaN passes through and -0.0 keeps its sign, as with maximum
        # against one broadcast zero; the shared zeros stay zeros
        values = np.random.default_rng(1).normal(size=shape).astype(dtype)
        values.flat[:2] = [np.nan, -0.0][: values.size]
        want = np.maximum(values, np.zeros(1, dtype=dtype)).tobytes()
        relu = get_activation("relu")
        assert relu(values).tobytes() == want
        assert relu.apply(values, out=np.empty_like(values)).tobytes() == want
        strided = np.repeat(values, 2, axis=-1)[..., ::2]
        assert relu.apply(strided, out=strided).tobytes() == want
        assert not relu(-np.ones(shape, dtype)).any()

    def test_sigmoid_range_and_midpoint(self):
        sigmoid = get_activation("sigmoid")
        assert sigmoid(np.array([0.0], dtype=np.float32))[0] == 0.5
        out = sigmoid(np.array([-1000.0, 1000.0], dtype=np.float32))
        assert np.isfinite(out).all()
        assert 0.0 <= out[0] < 1e-6 and 1 - 1e-6 < out[1] <= 1.0

    def test_tanh_is_numpy_tanh(self):
        values = np.linspace(-2, 2, 5).astype(np.float32)
        np.testing.assert_allclose(
            get_activation("tanh")(values), np.tanh(values)
        )

    @pytest.mark.parametrize("name", ["relu", "sigmoid", "tanh"])
    def test_float32_preserved(self, name):
        values = np.array([0.5], dtype=np.float32)
        assert get_activation(name)(values).dtype == np.float32


@given(
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.sampled_from(["relu", "sigmoid", "tanh", "linear"]),
)
def test_derivative_matches_finite_difference(x, name):
    """Property: dy/dx(y(x)) matches the numeric derivative."""
    activation = get_activation(name)
    h = 1e-4
    values = np.array([x - h, x, x + h], dtype=np.float64)
    y = activation(values)
    numeric = (y[2] - y[0]) / (2 * h)
    analytic = activation.derivative(np.array([y[1]]))[0]
    # relu is non-differentiable at 0 — skip the kink neighbourhood.
    if name == "relu" and abs(x) < 2 * h:
        return
    np.testing.assert_allclose(numeric, analytic, rtol=1e-2, atol=1e-3)
