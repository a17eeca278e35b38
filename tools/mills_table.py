"""Fit the coefficient table of pricelab's Gaussian Mills-ratio kernel.

    python tools/mills_table.py > src/pricelab/_mills_table.py

Prints the module ``pricelab._mills_table``: the standardized Mills ratio
m(z) = (1 - Phi(z))/phi(z) as two tables of polynomial pieces, each piece a
Chebyshev fit (``mpmath.chebyfit`` at 40 digits) rounded to doubles and
evaluated by Horner's rule from the highest power down.

* NEAR, for -8 <= z <= 8: m itself, in s = x - floor(x) with x = 256 - 32 z.
  Row k covers z in [(255 - k)/32, (256 - k)/32]; row 512, the piece just
  below -8, holds z = -8, where x = 512.  As z falls s rises, and so does
  m: every coefficient is positive and Horner's rule adds no cancellation.
  Each piece takes the lowest degree, not below its predecessor's, whose
  relative fit error is at most 2^-56, so degrees rise with k: from 5 at
  z = 8 to 9 at z = -8.
* FAR, for z > 8: z m(z), which falls from 8 m(8) to 1, in s = x - floor(x)
  with x = 256 w and w = 1/z, so that m = w times the piece.  At z = +inf,
  w = 0 and m is exactly 0.

Below -8 the kernel uses the reflection m(z) = sqrt(2 pi) exp(z^2/2) - m(-z).

The output is deterministic: ``tests/test_noise.py`` regenerates it and
compares it with the committed module byte for byte.
"""

from __future__ import annotations

import mpmath

DPS = 40
NEAR_ROWS, NEAR_TOLERANCE = 513, 2.0**-56  # 32 pieces per unit over [-8, 8], and the piece below -8
FAR_ROWS, FAR_DEGREE = 32, 7  # w = 1/z in [0, 1/8] at 256 pieces per unit
PER_LINE = 4


def mills(z):
    """(1 - Phi(z))/phi(z) at the working precision."""
    return mpmath.ncdf(-z) / mpmath.npdf(z)


def near_piece(k: int):
    return lambda s: mills((256 - k - s) / 32)


def far_piece(k: int):
    def piece(s):
        w = (k + s) / 256
        return mpmath.mpf(1) if w == 0 else mills(1 / w) / w

    return piece


def fit(piece, degree: int) -> tuple[list[float], float]:
    """The piece's fit on s in [0, 1], highest power first, and its relative error."""
    memo: dict = {}

    def cached(s):  # chebyfit asks for the same Chebyshev nodes once per coefficient
        if s not in memo:
            memo[s] = piece(s)
        return memo[s]

    poly, err = mpmath.chebyfit(cached, [0, 1], degree + 1, error=True)
    return [float(c) for c in poly], float(err / min(abs(piece(0)), abs(piece(1))))


def lowest_degree_fits(pieces, degree: int) -> list[tuple[list[float], float]]:
    """Each piece at the lowest degree, not below the previous piece's, whose fit error is within NEAR_TOLERANCE."""
    fits = []
    for piece in pieces:
        while (found := fit(piece, degree))[1] > NEAR_TOLERANCE:
            degree += 1
        fits.append(found)
    return fits


def _table(name: str, fits: list[tuple[list[float], float]], doc: str) -> list[str]:
    lines = [f"# {doc}", f"# largest relative fit error: {max(e for _, e in fits):.1e}", f"{name} = ("]
    for coefs, _ in fits:
        text = [repr(c) for c in coefs]
        chunks = [", ".join(text[i : i + PER_LINE]) for i in range(0, len(text), PER_LINE)]
        lines.append("    (" + chunks[0] + ",")
        lines.extend("     " + chunk + "," for chunk in chunks[1:])
        lines[-1] = lines[-1][:-1] + "),"
    lines.append(")")
    return lines


def render() -> str:
    with mpmath.workdps(DPS):
        near = lowest_degree_fits((near_piece(k) for k in range(NEAR_ROWS)), 4)
        far = [fit(far_piece(k), FAR_DEGREE) for k in range(FAR_ROWS)]
    lines = [
        '"""Coefficients of the Gaussian Mills-ratio kernel in ``pricelab.noise``.',
        "",
        "Generated by ``python tools/mills_table.py``, which documents the layout;",
        "do not edit by hand.",
        '"""',
        "",
        '__all__ = ["NEAR", "FAR"]',
        "",
        *_table("NEAR", near, "m(z) for -8 <= z <= 8, row k in s = 256 - 32 z - k"),
        "",
        *_table("FAR", far, "z m(z) for z > 8, row k in s = 256/z - k"),
    ]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    print(render(), end="")
