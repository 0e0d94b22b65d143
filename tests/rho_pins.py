"""Reference values of Dickman's rho, in the standard library alone.

Independent of the library's construction: each unit piece [k, k+1] is
expanded about its midpoint m = k + 1/2, in x = u - m.  With rho(u - 1) =
sum d_i x^i on the previous piece (whose midpoint lies one unit back, so the
variable is the same x), the delay equation u rho'(u) = -rho(u - 1) gives

    c_{i+1} = -(d_i + i c_i) / (m (i + 1)),

and continuity at u = k fixes c_0 = sum d_i 2^-i - sum_{i>=1} c_i (-1/2)^i.
Piece 0 is rho = 1.  The series converge for |x| < 3/2, so at |x| <= 1/2 the
terms fall by about 3 per term; the working precision covers the cancellation
in c_0, which costs about log10(1/rho) digits by u = 40.

    python tests/rho_pins.py      # print the pins at u = 1.5, 2.5, ..., 19.5, 39.5
"""
from __future__ import annotations

from decimal import Decimal, localcontext

PRECISION = 140
TERMS = 320
U_TOP = 40


def midpoint_series(u_top: int = U_TOP, precision: int = PRECISION,
                    terms: int = TERMS) -> list[list[Decimal]]:
    """Coefficients of rho about k + 1/2 for the pieces k = 0 .. u_top - 1."""
    with localcontext() as ctx:
        ctx.prec = precision
        half = Decimal(1) / 2
        pieces = [[Decimal(1)] + [Decimal(0)] * (terms - 1)]
        for k in range(1, u_top):
            d = pieces[-1]
            m = k + half
            c = [Decimal(0)] * terms
            for i in range(terms - 1):
                c[i + 1] = -(d[i] + i * c[i]) / (m * (i + 1))
            left = sum(d[i] * half ** i for i in range(terms))
            c[0] = left - sum(c[i] * (-half) ** i for i in range(1, terms))
            pieces.append(c)
        return pieces


def rho_reference(u: float, pieces: list[list[Decimal]]) -> Decimal:
    """rho at the float u, by Horner in the series of u's piece."""
    if not 0 <= u < len(pieces):
        raise ValueError(f"u = {u!r} outside [0, {len(pieces)})")
    k = int(u)
    with localcontext() as ctx:
        ctx.prec = PRECISION
        x = Decimal(u) - k - Decimal(1) / 2
        acc = Decimal(0)
        for c in reversed(pieces[k]):
            acc = acc * x + c
        return acc


def pins() -> dict[float, float]:
    """rho(k + 1/2), the constant coefficient of each series, rounded to float."""
    pieces = midpoint_series()
    return {k + 0.5: float(pieces[k][0]) for k in (*range(1, 20), 39)}


if __name__ == "__main__":
    for u, value in pins().items():
        print(f"    {u!r}: {value!r},")
