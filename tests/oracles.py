"""Independent numerical oracles used to pin expected values.

Everything here is deliberately implemented by a different route than the
library code it checks: adaptive quadrature instead of series expansions,
multiprecision arithmetic instead of double-precision library calls,
brute-force enumeration instead of closed forms. Quadrature tolerances are
held two orders below the tightest assertion that consumes them.
"""

import re
import warnings

import mpmath
import numpy as np
from scipy.integrate import quad


def bessel_quadrature(order: int, x: float) -> float:
    """I_order(x) by adaptive quadrature of (1/pi) int_0^pi cos(k t) exp(x cos t) dt."""
    val, err = quad(
        lambda t: np.cos(order * t) * np.exp(x * np.cos(t)),
        0.0,
        np.pi,
        epsabs=1e-10,
        epsrel=1e-13,
        limit=200,
    )
    return val / np.pi


def vonmises_law_mp(kappa: float, rate0: float, window: float) -> dict:
    """The von Mises PLV law from mpmath's I_0, I_1, I_2 at 50 digits, rounded once to floats.

    |limit| = I1/I0, expected count rate0 T I0, Re and Im variances
    (I0 +/- I2) / (2 rate0 T I0^2), and the ratio-corrected Re variance,
    which subtracts |limit|^2 / expected.
    """
    with mpmath.workdps(50):
        i0, i1, i2 = (mpmath.besseli(n, mpmath.mpf(kappa)) for n in (0, 1, 2))
        expected = mpmath.mpf(rate0) * mpmath.mpf(window) * i0
        var_re = (i0 + i2) / (2 * expected * i0)
        law = {
            "limit": i1 / i0,
            "expected_events": expected,
            "var_re": var_re,
            "var_im": (i0 - i2) / (2 * expected * i0),
            "var_re_corrected": var_re - (i1 / i0) ** 2 / expected,
        }
        return {name: float(value) for name, value in law.items()}


def mp_mass_quadrature(law) -> float:
    """Total continuous MP mass by adaptive quadrature over the support."""
    val, err = quad(
        lambda x: np.sqrt((law.upper_edge - x) * (x - law.lower_edge))
        / (2.0 * np.pi * law.alpha * x),
        law.lower_edge,
        law.upper_edge,
        epsabs=1e-10,
        limit=400,
    )
    return val


def mp_cdf_quadrature(law, x: float) -> float:
    """MP CDF at x via adaptive quadrature (independent of the library rule)."""
    if x < 0.0:
        return 0.0
    if x >= law.upper_edge:
        return 1.0
    if x <= law.lower_edge:
        return law.zero_atom
    val, err = quad(
        lambda t: np.sqrt((law.upper_edge - t) * (t - law.lower_edge))
        / (2.0 * np.pi * law.alpha * t),
        law.lower_edge,
        x,
        epsabs=1e-10,
        limit=400,
    )
    return law.zero_atom + val


def partial_cycle_plv(frequency: float, window: float) -> complex:
    """Closed-form PLV limit for a constant rate: (e^{i 2 pi f T} - 1)/(i 2 pi f T)."""
    w = 2j * np.pi * frequency * window
    return (np.exp(w) - 1.0) / w


def vonmises_plv_quadrature(kappa: float, phase_offset: float, frequency: float, window: float) -> complex:
    """PLV limit int e^{i phi} lambda / int lambda by quadrature, von Mises rate."""

    def lam(t):
        return np.exp(kappa * np.cos(2 * np.pi * frequency * t - phase_offset))

    num_re, _ = quad(lambda t: np.cos(2 * np.pi * frequency * t) * lam(t), 0, window, limit=400)
    num_im, _ = quad(lambda t: np.sin(2 * np.pi * frequency * t) * lam(t), 0, window, limit=400)
    den, _ = quad(lam, 0, window, limit=400)
    return complex(num_re, num_im) / den


def interpolant_gram(x):
    """(2/3) A0 + (1/6)(B + B^H) over the periodic grid, B the lag-one cross-Gram."""
    q = x.shape[1]
    a0 = (x @ x.conj().T) / q
    b = (x @ np.roll(x, -1, axis=1).conj().T) / q
    return (2.0 / 3.0) * a0 + (b + b.conj().T) / 6.0


def _apply_inverse_root(gram, x):
    w, v = np.linalg.eigh(gram)
    return (v * w**-0.5) @ v.conj().T @ x


def two_step_whitening(x):
    """Whiten the (p, q) samples twice: their sample Gram, then the interpolant of the result.

    Returns the twice-whitened samples and max|G - I|, how far the
    interpolant Gram G of the sample-whitened samples is from the identity.
    """
    x = _apply_inverse_root((x @ x.conj().T) / x.shape[1], x)
    gram = interpolant_gram(x)
    return _apply_inverse_root(gram, x), float(np.max(np.abs(gram - np.eye(len(gram)))))


class _BlankLine(Exception):
    def __init__(self, index):
        self.index = index


def loadtxt_rows(body: bytes, columns: int):
    """numpy.loadtxt's reading of the lines of a signal file after its header.

    Returns its float table, or ``(index, message)`` for the line it refuses
    (counted from 0) with the message ``load_signals`` writes for it. The
    lines are split at LF, CRLF and lone CR, as a text file opened with
    ``newline=""`` splits them; a line that is not UTF-8 is refused first,
    and a blank line when numpy.loadtxt reaches it.
    """
    lines = body.splitlines(keepends=True)
    for i, line in enumerate(lines):
        try:
            line.decode()
        except UnicodeDecodeError as exc:
            return i, f"byte {line[exc.start]:#04x} is not UTF-8"

    def texts():
        for i, line in enumerate(lines):
            if line.decode().isspace():
                raise _BlankLine(i)
            yield line.decode()

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "no data" for an empty body
            table = np.loadtxt(texts(), delimiter=",", comments=None, ndmin=2)
    except _BlankLine as blank:
        return blank.index, "blank line"
    except ValueError as exc:
        # Rows count from 0 in a conversion error and from 1 in a width error,
        # which blames the row where the width changed from the first row's.
        width = re.search(r"columns changed from (\d+) to (\d+) at row (\d+)", str(exc))
        if width is not None:
            first, later, row = map(int, width.groups())
            return (0, f"expected {columns} fields, got {first}") if first != columns else \
                (row - 1, f"expected {columns} fields, got {later}")
        value = re.search(r"(.*) at row (\d+), column (\d+)", str(exc))
        return int(value[2]), f"field {value[3]}: {value[1]}"
    if len(table) and table.shape[1] != columns:
        return 0, f"expected {columns} fields, got {table.shape[1]}"
    return table
