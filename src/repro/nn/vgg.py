"""VGG-style hashing backbones.

The paper's hashing network is VGG19 with the final layer replaced by a
``k``-dimensional fully connected layer under a ``tanh`` activation (§3.2).
On this CPU-only reproduction two interchangeable profiles are provided:

- **conv profiles** (``tiny`` / ``small`` / ``vgg19``): true convolutional
  stacks over NCHW images, built from the same ``[channels..., 'M']``
  configuration grammar as torchvision's VGG.  ``vgg19`` reproduces the full
  16-conv + 3-FC topology for structural fidelity; ``small`` is the
  CPU-practical default; ``tiny`` is for tests.
- **feature profile** (:func:`build_feature_hash_net`): an MLP hash head over
  precomputed backbone features, which simulates the paper's setup of
  initializing the first eighteen layers from an ImageNet-pretrained VGG19
  (the pretrained stem is approximated by the dataset's semantic feature
  extractor; see ``repro.datasets``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.layers import (
    BatchNorm1d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.module import Module
from repro.utils.rng import as_generator, spawn

#: Configuration grammar: ints are conv output channels, "M" is 2x2 max-pool.
VGG_CONFIGS: dict[str, list[int | str]] = {
    "tiny": [8, "M", 16, "M"],
    "small": [16, "M", 32, "M", 64, "M"],
    "vgg19": [
        64, 64, "M",
        128, 128, "M",
        256, 256, 256, 256, "M",
        512, 512, 512, 512, "M",
        512, 512, 512, 512, "M",
    ],
}


def build_conv_stem(
    config: list[int | str],
    in_channels: int = 3,
    rng: int | np.random.Generator | None = None,
) -> Sequential:
    """Build the convolutional feature stem for a VGG configuration."""
    gen = as_generator(rng)
    layers: list[Module] = []
    channels = in_channels
    for item in config:
        if item == "M":
            layers.append(MaxPool2d(2))
            continue
        if not isinstance(item, int) or item <= 0:
            raise ConfigurationError(f"bad VGG config item: {item!r}")
        layers.append(Conv2d(channels, item, kernel_size=3, padding=1, rng=gen))
        layers.append(ReLU())
        channels = item
    return Sequential(*layers)


class VGGHashNet(Module):
    """Conv hashing network: VGG stem -> FC stack -> k-dim tanh hash head.

    Parameters
    ----------
    n_bits:
        Hash-code length ``k``.
    image_size:
        Input spatial extent (square images assumed).
    profile:
        Key into :data:`VGG_CONFIGS`.
    hidden_dims:
        Widths of the fully connected layers between the stem and the hash
        head (VGG19 uses (4096, 4096); the small profiles use one modest
        layer).
    """

    def __init__(
        self,
        n_bits: int,
        image_size: int = 32,
        in_channels: int = 3,
        profile: str = "small",
        hidden_dims: tuple[int, ...] = (128,),
        dropout: float = 0.0,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if profile not in VGG_CONFIGS:
            raise ConfigurationError(
                f"unknown profile {profile!r}; options: {sorted(VGG_CONFIGS)}"
            )
        if n_bits <= 0:
            raise ConfigurationError(f"n_bits must be positive: {n_bits}")
        gen = as_generator(rng)
        stem_rng, head_rng = spawn(gen, 2)
        config = VGG_CONFIGS[profile]
        self.n_bits = n_bits
        self.image_size = image_size
        self.in_channels = in_channels
        self.profile = profile

        self.stem = self.register_child(build_conv_stem(config, in_channels, stem_rng))
        n_pools = sum(1 for item in config if item == "M")
        final_extent = image_size // (2**n_pools)
        if final_extent <= 0:
            raise ConfigurationError(
                f"profile {profile!r} pools {n_pools} times, too deep for "
                f"image_size={image_size}"
            )
        last_channels = [c for c in config if isinstance(c, int)][-1]
        flat_dim = last_channels * final_extent * final_extent

        head_layers: list[Module] = [Flatten()]
        in_dim = flat_dim
        for width in hidden_dims:
            head_layers.append(Linear(in_dim, width, init_scheme="kaiming",
                                      rng=head_rng))
            head_layers.append(ReLU())
            if dropout > 0:
                head_layers.append(Dropout(dropout, rng=head_rng))
            in_dim = width
        # The paper's replaced 19th layer: k-dim FC with Xavier init + tanh.
        head_layers.append(Linear(in_dim, n_bits, init_scheme="xavier", rng=head_rng))
        head_layers.append(Tanh())
        self.head = self.register_child(Sequential(*head_layers))

    @classmethod
    def paper_profile(cls, n_bits: int, rng: int | None = 0) -> "VGGHashNet":
        """The full VGG19 topology (224x224 inputs, 4096-d FC layers)."""
        return cls(
            n_bits,
            image_size=224,
            profile="vgg19",
            hidden_dims=(4096, 4096),
            dropout=0.5,
            rng=rng,
        )

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 4 or x.shape[1:] != (
            self.in_channels,
            self.image_size,
            self.image_size,
        ):
            raise ShapeError(
                f"expected (n, {self.in_channels}, {self.image_size}, "
                f"{self.image_size}), got {x.shape}"
            )
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.head(self.stem(self._check_input(x)))

    def infer(self, x: np.ndarray) -> np.ndarray:
        return self.head.infer(self.stem.infer(self._check_input(x)))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self.stem.backward(self.head.backward(grad_output))


def build_feature_hash_net(
    n_bits: int,
    feature_dim: int,
    hidden_dims: tuple[int, ...] = (256,),
    batch_norm: bool = True,
    rng: int | np.random.Generator | None = None,
) -> Sequential:
    """MLP hash network over precomputed backbone features.

    This mirrors the paper's practice of initializing the conv stem from a
    pretrained VGG19: the (simulated) pretrained stem is frozen into the
    dataset's feature extractor and only the top layers train.  Ends in a
    ``k``-dim Xavier-initialized linear layer + tanh, like the conv variant.
    """
    if feature_dim <= 0 or n_bits <= 0:
        raise ConfigurationError(
            f"feature_dim and n_bits must be positive: ({feature_dim}, {n_bits})"
        )
    gen = as_generator(rng)
    layers: list[Module] = []
    in_dim = feature_dim
    for width in hidden_dims:
        layers.append(Linear(in_dim, width, init_scheme="kaiming", rng=gen))
        if batch_norm:
            layers.append(BatchNorm1d(width))
        layers.append(ReLU())
        in_dim = width
    layers.append(Linear(in_dim, n_bits, init_scheme="xavier", rng=gen))
    layers.append(Tanh())
    return Sequential(*layers)
