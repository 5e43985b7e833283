"""Write li_reference.txt: Li[s,t](x,y) to about 30 digits, computed with mpmath.

    python3 tests/data/make_li_reference.py

Needs mpmath (1.3.0 was used); tests/test_li_reference.py reads the table
without it.  Each data line holds one shape and its reference value:

    s t x y re im err

Roots are "k/N", meaning exp(2*pi*i*k/N).  re and im are decimals and err
bounds |reference - Li| as far as the method can tell: the values of two
runs at 30 and 40 digits agree to within err, and the decimals keep only
the digits on which they agree.  nsum extrapolates, so the table is a
measurement, not a proof.

The method shares no code with the evaluator.  With N = ord x,

    T(s,x,n) = sum_{m>n} x^m m^-s = N^-s sum_{c=1..N} x^(n+c) zeta(s, (n+c)/N)

by Hurwitz zeta values, and Li[s,t](x,y) = sum_{n>=1} y^n n^-t T(s,x,n)
is split into the classes n = r + L*k, r = 1..L, of L = lcm(ord x,
ord y).  Within a class the phases are constant, so each nsum over k sees
a smooth series.  The closed forms zeta(3) = Li[2,1](1,1), zeta(2,2) =
Li[2,2](1,1) = pi^4/120 and zeta(3,1) = Li[3,1](1,1) = pi^4/360 check the
method on every run.
"""
from __future__ import annotations

import math
import time
from pathlib import Path

OUT = Path(__file__).with_name("li_reference.txt")

# The distinct Li shapes of eval_pins.txt in its order, then closed
# forms, real and complex colors and weights up to 20 (zeta(3) as
# Li[2,1](1,1) is in both groups and appears once).  Root orders 1-24.
SHAPES = (
    (3, 7, "0/1", "1/2"),
    (4, 13, "1/2", "1/3"),
    (5, 1, "1/3", "1/4"),
    (6, 7, "3/4", "1/6"),
    (7, 13, "2/5", "7/8"),
    (8, 1, "5/6", "7/12"),
    (9, 7, "3/7", "1/5"),
    (4, 1, "5/8", "3/7"),
    (11, 1, "4/9", "5/24"),
    (12, 7, "7/10", "0/1"),
    (7, 1, "5/11", "1/2"),
    (14, 1, "7/12", "1/3"),
    (3, 1, "6/13", "3/4"),
    (7, 4, "9/14", "1/6"),
    (17, 1, "7/15", "5/8"),
    (3, 4, "9/16", "1/12"),
    (7, 7, "8/17", "1/5"),
    (2, 1, "11/18", "5/7"),
    (5, 5, "9/19", "11/24"),
    (7, 10, "11/20", "0/1"),
    (3, 3, "10/21", "1/2"),
    (2, 11, "13/22", "1/3"),
    (7, 13, "11/23", "1/4"),
    (5, 4, "13/24", "1/6"),
    (2, 1, "0/1", "0/1"),
    (19, 1, "5/24", "7/12"),
    (2, 1, "1/2", "0/1"),
    (3, 1, "0/1", "0/1"),
    (2, 2, "0/1", "0/1"),
    (4, 2, "0/1", "0/1"),
    (3, 2, "1/2", "1/2"),
    (2, 1, "1/4", "1/3"),
    (3, 1, "1/4", "1/3"),
    (11, 9, "1/12", "5/6"),
    (10, 10, "0/1", "0/1"),
    (15, 5, "3/4", "7/8"),
    (19, 1, "1/3", "1/4"),
    (2, 1, "5/12", "7/8"),
    (5, 3, "1/6", "1/6"),
)

# Decimal digits of the two runs; the second checks the first.
DIGITS = (30, 40)


def _order(root: str) -> int:
    k, n = map(int, root.split("/"))
    return n // math.gcd(k, n)


def li_value(mp, s: int, t: int, x: str, y: str):
    """Li[s,t](x,y) at the working precision of mp."""
    kx, nx = map(int, x.split("/"))
    ky, ny = map(int, y.split("/"))
    big_n, ell = _order(x), math.lcm(_order(x), _order(y))
    xpow = [mp.expjpi(mp.mpf(2 * kx * j) / nx) for j in range(big_n)]
    zetas: dict[int, object] = {}

    def hurwitz(m: int):
        # zeta(s, m/N), shared by the N values of n with n < m <= n + N.  A
        # miss takes one mpmath zeta at top > m and recurs down to m by
        # zeta(s, a) = zeta(s, a+1) + a^-s, which adds positive terms only.
        got = zetas.get(m)
        if got is None:
            top = m + big_n * max(64, m // big_n)
            with mp.extradps(10):
                got = mp.zeta(s, mp.mpf(top) / big_n)
                for j in range(top - big_n, m - 1, -big_n):
                    got += (mp.mpf(j) / big_n) ** -s
                    zetas.setdefault(j, got)
        return zetas[m]

    total = mp.mpc(0)
    for r in range(1, ell + 1):
        phases = [xpow[(r + c) % big_n] for c in range(1, big_n + 1)]

        def term(k, r=r, phases=phases):
            n = r + ell * int(k)
            tail = mp.fsum(p * hurwitz(n + c) for c, p in enumerate(phases, 1))
            return tail * mp.mpf(n) ** -t

        class_sum = mp.nsum(term, [0, mp.inf])
        total += mp.expjpi(mp.mpf(2 * ky * r) / ny) * class_sum
    return total * mp.mpf(big_n) ** -s


def _closed_forms(mp) -> dict[tuple, object]:
    return {
        (2, 1, "0/1", "0/1"): mp.zeta(3),
        (2, 2, "0/1", "0/1"): mp.pi**4 / 120,
        (3, 1, "0/1", "0/1"): mp.pi**4 / 360,
    }


def _fixed(mp, v, places: int) -> str:
    """v rounded to the given number of decimal places, as text."""
    q = int(mp.nint(v * mp.mpf(10) ** places))
    digits = str(abs(q)).rjust(places + 1, "0")
    return f"{'-' if q < 0 else ''}{digits[:-places]}.{digits[-places:]}"


def _agreed(mp, lo, hi) -> tuple[str, str, str]:
    """hi's real and imaginary part to the decimal places on which lo
    agrees, and err = 10^-places.  The runs differ by at most err/10 in
    each part and rounding adds at most err/2."""
    diff = max(abs(mp.re(hi) - mp.re(lo)), abs(mp.im(hi) - mp.im(lo)), mp.mpf(10) ** -(DIGITS[1] - 5))
    places = int(mp.floor(-mp.log10(diff))) - 1
    return _fixed(mp, mp.re(hi), places), _fixed(mp, mp.im(hi), places), f"1e-{places}"


def main() -> None:
    import mpmath

    mp = mpmath.mp
    lines = [
        "# Li[s,t](x,y) by Hurwitz residue classes and mpmath.nsum; see make_li_reference.py.",
        f"# mpmath {mpmath.__version__}; {DIGITS[0]}- and {DIGITS[1]}-digit runs agree to within err.",
        "# s t x y re im err",
    ]
    for shape in SHAPES:
        start = time.perf_counter()
        runs = []
        for digits in DIGITS:
            mp.dps = digits
            runs.append(li_value(mp, *shape))
        closed = _closed_forms(mp).get(shape)
        if closed is not None and abs(runs[-1] - closed) > mp.mpf(10) ** -(DIGITS[0] - 2):
            raise SystemExit(f"Li{shape} = {runs[-1]} misses its closed form {closed}")
        re, im, err = _agreed(mp, *runs)
        lines.append(" ".join(map(str, shape)) + f" {re} {im} {err}")
        print(lines[-1], f"({time.perf_counter() - start:.1f} s)", flush=True)
    OUT.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
