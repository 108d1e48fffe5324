"""Helpers shared by the test modules."""


def random_hermitian(rng, d):
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (x + x.conj().T) / 2
