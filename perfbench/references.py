"""Reference solutions computed with numpy alone, apart from cfpde.

Each function takes coordinate arrays that broadcast against each other
(theta axes first, time last) and returns the complex field the
workload's `cf` output is compared with.
"""

from __future__ import annotations

import numpy as np


def transport_closed_form(theta, t, V, omega):
    """y_t + V y_theta = t sin(omega theta), y(theta, 0) = sin(theta)."""
    forced = (np.sin(omega * (V * t - theta)) + np.sin(omega * theta)
              - V * omega * t * np.cos(omega * theta)) / (V * omega) ** 2
    return np.sin(theta - V * t) + forced + 0j


def variable_velocity_characteristics(theta, t, scale, omega_y0, omega_u,
                                      nodes=24):
    """y_t + scale (1 + theta^2) y_theta = t cos(omega_u theta) with
    y(theta, 0) = sin(omega_y0 theta), along the characteristics
    Theta(theta, tau) = tan(arctan(theta) - scale tau):

        y = y0(Theta(theta, t)) + int_0^t u(Theta(theta, t - s), s) ds,

    the time integral by Gauss-Legendre quadrature on [0, t]."""
    def foot(th, tau):
        return np.tan(np.arctan(th) - scale * tau)

    x, w = np.polynomial.legendre.leggauss(nodes)
    theta, t = np.broadcast_arrays(theta, t)
    s = 0.5 * t[..., None] * (x + 1.0)
    integrand = s * np.cos(omega_u * foot(theta[..., None], t[..., None] - s))
    integral = 0.5 * t * np.sum(w * integrand, axis=-1)
    return np.sin(omega_y0 * foot(theta, t)) + integral + 0j


def second_order_fourier(theta, t, alpha1, alpha2, k):
    """y_tt + alpha1 y_ttheta + alpha2 y_thetatheta = sin(k theta) with
    y(theta, 0) = sin(k theta), y_t(theta, 0) = cos(k theta).

    On each Fourier mode e^{i m theta} (m = +-k) the problem is the ODE
    Y'' + i m alpha1 Y' - m^2 alpha2 Y = U with constant U, solved in
    closed form from the roots of its characteristic polynomial (which
    must be distinct, and the constant term nonzero)."""
    out = 0j
    # sin(k theta) = (-i/2) e^{ik theta} + (i/2) e^{-ik theta}
    # cos(k theta) = (1/2) e^{ik theta} + (1/2) e^{-ik theta}
    for m, sin_part, cos_part in ((k, -0.5j, 0.5), (-k, 0.5j, 0.5)):
        y0, y1, u = sin_part, cos_part, sin_part
        p = 1j * m * alpha1
        q = -(m ** 2) * alpha2
        disc = np.sqrt(complex(p * p - 4 * q))
        l1, l2 = (-p + disc) / 2, (-p - disc) / 2
        particular = u / q
        # Y = particular + a e^{l1 t} + b e^{l2 t}, Y(0) = y0, Y'(0) = y1
        a = (y1 - l2 * (y0 - particular)) / (l1 - l2)
        b = (y0 - particular) - a
        mode = particular + a * np.exp(l1 * t) + b * np.exp(l2 * t)
        out = out + mode * np.exp(1j * m * theta)
    return out
