"""Shape inference and validation for architecture descriptions."""

from __future__ import annotations

from ..errors import PisimError
from .layers import AvgPool, Conv, FC, Flatten, NetworkArch, ReLU

Shape = tuple[int, ...]  # (c, h, w) before flatten, (features,) after


class InvalidArch(PisimError, ValueError):
    """Architecture fails shape inference or structural validation."""


def _at_least(least: int, where: str, fields: dict[str, int]) -> None:
    """InvalidArch for the first field below `least`: 1 for sizes and
    counts, 0 for padding."""
    for name, value in fields.items():
        if value < least:
            word = "positive" if least else "non-negative"
            raise InvalidArch(f"{where}: {name} must be {word}, got {value}")


def conv_out(layer: Conv, shape: Shape, where: str) -> Shape:
    """Output shape of a conv over `shape`; `where` prefixes every error:
    `layer {idx}: conv` on the main path, `skip {i}: conv` for a
    projection."""
    # `in` must equal the incoming channel count, which is positive
    _at_least(1, where, {"out": layer.out_channels, "kernel": layer.kernel,
                         "stride": layer.stride})
    _at_least(0, where, {"pad": layer.padding})
    if len(shape) != 3:
        raise InvalidArch(f"{where} applied to flattened input")
    c, h, w = shape
    if c != layer.in_channels:
        raise InvalidArch(
            f"{where} expects {layer.in_channels} channels, got {c}"
        )
    oh = (h + 2 * layer.padding - layer.kernel) // layer.stride + 1
    ow = (w + 2 * layer.padding - layer.kernel) // layer.stride + 1
    if oh < 1 or ow < 1:
        raise InvalidArch(
            f"{where} output would be {oh}x{ow} for input {h}x{w}"
        )
    return (layer.out_channels, oh, ow)


def pool_window(layer: AvgPool, shape: Shape) -> tuple[int, int]:
    """(window, stride) of an avgpool over a (c, h, w) input; a global
    pool's window is the input's height."""
    if layer.is_global:
        return shape[1], shape[1]
    return layer.window, layer.stride


def pool_out(layer: AvgPool, shape: Shape, idx: int) -> Shape:
    if len(shape) != 3:
        raise InvalidArch(f"layer {idx}: avgpool applied to flattened input")
    c, h, w = shape
    window, stride = pool_window(layer, shape)
    _at_least(1, f"layer {idx}: avgpool", {"window": window, "stride": stride})
    if window > h or window > w:
        raise InvalidArch(
            f"layer {idx}: pool window {window} exceeds input {h}x{w}"
        )
    return (c, (h - window) // stride + 1, (w - window) // stride + 1)


def infer_shapes(arch: NetworkArch) -> list[Shape]:
    """Output shape of every layer, validating as it goes."""
    ds = arch.dataset
    _at_least(1, "input", {"channels": ds.channels, "height": ds.height,
                           "width": ds.width, "classes": ds.classes})
    shape: Shape = (ds.channels, ds.height, ds.width)
    shapes: list[Shape] = []
    for idx, layer in enumerate(arch.layers):
        if isinstance(layer, Conv):
            shape = conv_out(layer, shape, f"layer {idx}: conv")
        elif isinstance(layer, AvgPool):
            shape = pool_out(layer, shape, idx)
        elif isinstance(layer, ReLU):
            pass
        elif isinstance(layer, Flatten):
            if len(shape) != 3:
                raise InvalidArch(f"layer {idx}: flatten applied twice")
            shape = (shape[0] * shape[1] * shape[2],)
        elif isinstance(layer, FC):
            _at_least(1, f"layer {idx}: fc", {"out": layer.out_features})
            if len(shape) != 1:
                raise InvalidArch(f"layer {idx}: fc requires flattened input")
            if shape[0] != layer.in_features:
                raise InvalidArch(
                    f"layer {idx}: fc expects {layer.in_features} features, "
                    f"got {shape[0]}"
                )
            shape = (layer.out_features,)
        else:
            raise InvalidArch(f"layer {idx}: unknown layer {layer!r}")
        shapes.append(shape)
    return shapes


def validate(arch: NetworkArch) -> list[Shape]:
    """Full structural check; returns per-layer shapes on success."""
    shapes = infer_shapes(arch)
    if not arch.layers:
        raise InvalidArch("empty layer list")
    final = shapes[-1]
    if len(final) != 1 or final[0] != arch.dataset.classes:
        raise InvalidArch(
            f"final output {final} does not match {arch.dataset.classes} classes"
        )
    input_shape: Shape = (arch.dataset.channels, arch.dataset.height, arch.dataset.width)
    n = len(arch.layers)
    for i, skip in enumerate(arch.skips):
        if not (-1 <= skip.source < n) or not (0 <= skip.merge < n):
            raise InvalidArch(f"skip {skip.source}->{skip.merge} out of range")
        if skip.source >= skip.merge:
            raise InvalidArch(f"skip {skip.source}->{skip.merge} not forward")
        src = input_shape if skip.source == -1 else shapes[skip.source]
        contributed = src if skip.conv is None else conv_out(skip.conv, src, f"skip {i}: conv")
        if contributed != shapes[skip.merge]:
            raise InvalidArch(
                f"skip {skip.source}->{skip.merge} shape {contributed} does not "
                f"match merge shape {shapes[skip.merge]}"
            )
        # The masked protocol folds a skip into the linear segment that
        # feeds the next ReLU, so it must start and end at masked points.
        if skip.source != -1 and not isinstance(arch.layers[skip.source], ReLU):
            raise InvalidArch(
                f"skip {i}: source layer {skip.source} is not a mask point "
                "(must be -1 or a relu)"
            )
        if skip.merge + 1 >= n or not isinstance(arch.layers[skip.merge + 1], ReLU):
            raise InvalidArch(
                f"skip {i}: merge layer {skip.merge} must feed directly into a relu"
            )
    return shapes
