"""The paper-scale medium shared by the test modules."""

import numpy as np

from eitnarrow.medium import AtomicMedium

TWO_PI = 2.0 * np.pi


def paper_medium(**overrides) -> AtomicMedium:
    """N = 3e11 cm^-3, L = 2.5 cm, Delta_W = 2 pi 500 MHz."""
    params = dict(
        number_density=3e17,
        wavelength=794.98e-9,
        gamma_r=3.61e7,
        gamma_ab=2e7,
        gamma_ac=2e7,
        gamma_cb=0.0,
        doppler_width=TWO_PI * 500e6,
        length=0.025,
    )
    params.update(overrides)
    return AtomicMedium(**params)
