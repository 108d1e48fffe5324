"""Helpers shared by the test modules."""

import numpy as np


def random_hermitian(rng, d):
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (x + x.conj().T) / 2


def recorded_shapes(monkeypatch, module, name):
    """Shapes of the arrays passed to module.name for the rest of the test, in call order."""
    shapes = []
    original = getattr(module, name)

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return shapes
