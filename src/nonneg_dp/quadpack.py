"""QUADPACK's adaptive quadrature QAGP, in pure Python.

A line-for-line port of ``dqagpe`` with its helpers ``dqk21``, ``dqpsrt``
and ``dqelg``, from R. Piessens, E. de Doncker-Kapenga, C. W. Ueberhuber
and D. K. Kahaner, *QUADPACK: a subroutine package for automatic
integration*, Springer 1983.  Every floating-point operation is done in the
Fortran's order, with its decimal node constants and d1mach values, so
``qagp(f, a, b, points, ...)`` equals ``scipy.integrate.quad(f, a, b,
points=points, ...)`` bit for bit (value, error estimate, status,
evaluation count and interval lists), also when ``points`` is empty: quad
runs dqagpe whenever it is given ``points``, and without them ``dqagse``
(QAGS), whose stopping and extrapolation rules differ slightly.

:func:`qagp` returns a :class:`Quadrature`.  Its ``ier`` is QUADPACK's
status: 0 success, 1 the subdivision limit is reached, 2 roundoff prevents
the requested accuracy, 3 bad integrand behaviour at some point, 4 roundoff
in the extrapolation table, 5 the integral is probably divergent or slowly
convergent.

Inside the port arrays are indexed from 1, as in the Fortran, and slot 0 is
unused.  Python's ``float`` operations are the IEEE double ones; where
Python raises instead (a division by zero, a ``**`` that overflows) the
code takes the IEEE outcome by hand.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

__all__ = ["Quadrature", "qagp"]

_EPMACH = 2.0 ** -52                 # d1mach(4), the relative spacing at 1
_UFLOW = 2.0 ** -1022                # d1mach(1), the smallest normal double
_OFLOW = 1.7976931348623157e308      # d1mach(2), the largest double
_LIMEXP = 50                         # most elements of dqelg's epsilon table

# dqk21's data: the 21-point Kronrod abscissae xgk(1..10) (the centre,
# xgk(11) = 0, is left out) and weights wgk(1..11), and the weights wg(1..5)
# of the embedded 10-point Gauss rule, whose abscissae are xgk(2), xgk(4), ...
(_X1, _X2, _X3, _X4, _X5, _X6, _X7, _X8, _X9, _X10) = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
(_K1, _K2, _K3, _K4, _K5, _K6, _K7, _K8, _K9, _K10, _K11) = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821)
(_G1, _G2, _G3, _G4, _G5) = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338)
_RESABS_FLOOR = _UFLOW / (50.0 * _EPMACH)
# A bisected interval [a1, b2] at a2 no wider than this relative to a2 flags a
# bad integrand point (ier 4).
_POINT_WIDTH = 1.0 + 100.0 * _EPMACH
_POINT_FLOOR = 1000.0 * _UFLOW


class Quadrature(NamedTuple):
    """What dqagpe returns.  The interval lists hold the ``last``
    subintervals; ``iord`` (0-based) holds as many of their indices, by
    decreasing error estimate, as QUADPACK keeps sorted: ``last`` of them,
    or limit + 1 - last once last exceeds limit/2 + 2."""

    value: float
    abserr: float
    ier: int
    neval: int
    last: int
    alist: list[float]
    blist: list[float]
    rlist: list[float]
    elist: list[float]
    iord: list[int]


def _qk21(f: Callable[[float], float], a: float, b: float) -> tuple[float, float, float, float]:
    """dqk21: the 21-point Gauss-Kronrod rule on [a, b].  Returns the
    integral, its error estimate, the integral of |f| and the integral of
    |f - mean f|.  The Fortran's loops are unrolled; each sum still adds its
    terms in the Fortran's order."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    # f at the centre, then at centr -+ hlgth*xgk(j) for j = 2, 4, ..., 10
    # (the Gauss abscissae) and j = 1, 3, ..., 9, in that order.
    fc = f(centr)
    fl2, fr2 = f(centr - hlgth * _X2), f(centr + hlgth * _X2)
    fl4, fr4 = f(centr - hlgth * _X4), f(centr + hlgth * _X4)
    fl6, fr6 = f(centr - hlgth * _X6), f(centr + hlgth * _X6)
    fl8, fr8 = f(centr - hlgth * _X8), f(centr + hlgth * _X8)
    fl10, fr10 = f(centr - hlgth * _X10), f(centr + hlgth * _X10)
    fl1, fr1 = f(centr - hlgth * _X1), f(centr + hlgth * _X1)
    fl3, fr3 = f(centr - hlgth * _X3), f(centr + hlgth * _X3)
    fl5, fr5 = f(centr - hlgth * _X5), f(centr + hlgth * _X5)
    fl7, fr7 = f(centr - hlgth * _X7), f(centr + hlgth * _X7)
    fl9, fr9 = f(centr - hlgth * _X9), f(centr + hlgth * _X9)
    resg = (0.0 + _G1 * (fl2 + fr2) + _G2 * (fl4 + fr4) + _G3 * (fl6 + fr6)
            + _G4 * (fl8 + fr8) + _G5 * (fl10 + fr10))
    resk = (_K11 * fc + _K2 * (fl2 + fr2) + _K4 * (fl4 + fr4) + _K6 * (fl6 + fr6)
            + _K8 * (fl8 + fr8) + _K10 * (fl10 + fr10) + _K1 * (fl1 + fr1) + _K3 * (fl3 + fr3)
            + _K5 * (fl5 + fr5) + _K7 * (fl7 + fr7) + _K9 * (fl9 + fr9))
    resabs = (abs(_K11 * fc) + _K2 * (abs(fl2) + abs(fr2)) + _K4 * (abs(fl4) + abs(fr4))
              + _K6 * (abs(fl6) + abs(fr6)) + _K8 * (abs(fl8) + abs(fr8))
              + _K10 * (abs(fl10) + abs(fr10)) + _K1 * (abs(fl1) + abs(fr1))
              + _K3 * (abs(fl3) + abs(fr3)) + _K5 * (abs(fl5) + abs(fr5))
              + _K7 * (abs(fl7) + abs(fr7)) + _K9 * (abs(fl9) + abs(fr9)))
    reskh = resk * 0.5
    resasc = (_K11 * abs(fc - reskh) + _K1 * (abs(fl1 - reskh) + abs(fr1 - reskh))
              + _K2 * (abs(fl2 - reskh) + abs(fr2 - reskh)) + _K3 * (abs(fl3 - reskh) + abs(fr3 - reskh))
              + _K4 * (abs(fl4 - reskh) + abs(fr4 - reskh)) + _K5 * (abs(fl5 - reskh) + abs(fr5 - reskh))
              + _K6 * (abs(fl6 - reskh) + abs(fr6 - reskh)) + _K7 * (abs(fl7 - reskh) + abs(fr7 - reskh))
              + _K8 * (abs(fl8 - reskh) + abs(fr8 - reskh)) + _K9 * (abs(fl9 - reskh) + abs(fr9 - reskh))
              + _K10 * (abs(fl10 - reskh) + abs(fr10 - reskh)))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # resasc * min(1, ratio**1.5), without the OverflowError of a huge ratio.
        ratio = 200.0 * abserr / resasc
        abserr = resasc * ratio ** 1.5 if ratio < 1.0 else resasc
    if resabs > _RESABS_FLOOR:
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit: int, last: int, maxerr: int, elist: list[float], iord: list[int],
           nrmax: int) -> tuple[int, float, int]:
    """dqpsrt: keep ``iord`` sorted by decreasing error after interval
    ``maxerr`` was bisected into itself and ``last``; returns the next
    interval to bisect, its error and the new nrmax."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # Insert errmax here, then errmin by traversing the list bottom-up.
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab: list[float], res3la: list[float], nres: int) -> tuple[int, float, float, int]:
    """dqelg: Wynn's epsilon algorithm on the table ``epstab[1..n]`` of
    partial results, updated in place with ``res3la``.  Returns the new n,
    the extrapolated limit, its error estimate and the new nres."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = k1 = n
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy: converged.
                return n, res, max(err2 + err3, 5.0 * _EPMACH * abs(res)), nres
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1e-4:
                # Irregular behaviour: drop the part of the table past here.
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if not error > abserr:
                abserr = error
                result = res
        # Shift the table.
        if n == _LIMEXP:
            n = 2 * (_LIMEXP // 2) - 1
        ib = 2 if num % 2 == 0 else 1
        for _ in range(newelm + 1):
            epstab[ib] = epstab[ib + 2]
            ib += 2
        if num != n:
            indx = num - n + 1
            for i in range(1, n + 1):
                epstab[i] = epstab[indx]
                indx += 1
        if nres < 4:
            res3la[nres] = result
            abserr = _OFLOW
        else:
            abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
            res3la[1] = res3la[2]
            res3la[2] = res3la[3]
            res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def qagp(f: Callable[[float], float], a: float, b: float, points: list[float], epsabs: float,
         epsrel: float, limit: int) -> Quadrature:
    """dqagpe: the integral of ``f`` over [a, b], ``a < b``, split at
    ``points`` (sorted, distinct, inside (a, b), fewer than ``limit``).  It
    bisects the subinterval with the largest error, up to ``limit``
    subintervals, and extrapolates by Wynn's epsilon algorithm over the
    results of ever deeper bisection levels."""
    npts2 = len(points) + 2
    nint = npts2 - 1
    alist = [0.0, a, *points]
    blist = [0.0, *points, b]
    rlist = [0.0]
    elist = [0.0]
    iord = list(range(nint + 1))
    level = [0] * (nint + 1)

    def outcome(value: float, abserr: float, ier: int, last: int) -> Quadrature:
        kept = last if last <= limit // 2 + 2 else limit + 1 - last
        return Quadrature(value, abserr, ier, 42 * last - 21 * nint, last, alist[1:], blist[1:],
                          rlist[1:], elist[1:], [i - 1 for i in iord[1:kept + 1]])

    ier = ierro = 0
    result = abserr = resabs = 0.0
    # Integrate over each subinterval between breakpoints.
    undetermined = []
    for i in range(1, nint + 1):
        area1, error1, defabs, resa = _qk21(f, alist[i], blist[i])
        abserr = abserr + error1
        result = result + area1
        if error1 == resa and error1 != 0.0:
            undetermined.append(i)
        resabs = resabs + defabs
        elist.append(error1)
        rlist.append(area1)
    for i in undetermined:
        elist[i] = abserr
    errsum = 0.0
    for i in range(1, nint + 1):
        errsum = errsum + elist[i]
    last = nint
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    if abserr <= 100.0 * _EPMACH * resabs and abserr > errbnd:
        ier = 2
    if nint != 1:
        # Order the subintervals by decreasing error.
        for i in range(1, npts2 - 1):
            ind1 = iord[i]
            for j in range(i + 1, nint + 1):
                ind2 = iord[j]
                if not elist[ind1] > elist[ind2]:
                    ind1 = ind2
                    k = j
            if ind1 != iord[i]:
                iord[k] = iord[i]
                iord[i] = ind1
        if limit < npts2:
            ier = 1
    if ier != 0 or abserr <= errbnd:
        return outcome(result, abserr, ier, last)

    rlist2 = [0.0] * (_LIMEXP + 3)
    res3la = [0.0] * 4
    rlist2[1] = result
    maxerr = iord[1]
    errmax = elist[maxerr]
    area = result
    nrmax = numrl2 = levmax = 1
    nres = ktmin = iroff1 = iroff2 = iroff3 = 0
    extrap = noext = False
    erlarg = errsum
    ertest = errbnd
    correc = 0.0
    abserr = _OFLOW
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * resabs else -1
    for last in range(npts2, limit + 1):
        # Bisect the subinterval with the nrmax-th largest error estimate.
        levcur = level[maxerr] + 1
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        level[maxerr] = levcur
        level.append(levcur)
        rlist[maxerr] = area1
        rlist.append(area2)
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= _POINT_WIDTH * (abs(a2) + _POINT_FLOOR):
            ier = 4
        # Store the halves: the one with the larger error keeps index maxerr.
        if error2 > error1:
            alist[maxerr] = a2
            alist.append(a1)
            blist.append(b1)
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist.append(error1)
        else:
            alist.append(a2)
            blist[maxerr] = b1
            blist.append(b2)
            elist[maxerr] = error1
            elist.append(error2)
        iord.append(0)
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            abserr = _OFLOW   # take the sum of the interval results
            break
        if ier != 0:
            break
        if noext:
            continue
        erlarg = erlarg - erlast
        if levcur + 1 <= levmax:
            erlarg = erlarg + erro12
        if not extrap:
            # Go on bisecting unless the interval to bisect next is of the deepest level.
            if level[maxerr] + 1 <= levmax:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # The deepest interval has the largest error: bisect the larger
            # ones first, unless none is left among those kept sorted.
            jupbnd = last if last <= 2 + limit // 2 else limit + 3 - last
            larger_left = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if level[maxerr] + 1 <= levmax:
                    larger_left = True
                    break
                nrmax += 1
            if larger_left:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        if numrl2 > 2:
            numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
            ktmin += 1
            if ktmin > 5 and abserr < 1e-3 * errsum:
                ier = 5
            if abseps < abserr:
                ktmin = 0
                abserr = abseps
                result = reseps
                correc = erlarg
                ertest = max(epsabs, epsrel * abs(reseps))
                if abserr < ertest:
                    break
            if numrl2 == 1:
                noext = True
            if ier >= 5:
                break
        # Prepare to bisect the deepest intervals.
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        levmax += 1
        erlarg = errsum
    # Take the extrapolated result or the sum of the interval results, test
    # for divergence, and renumber ier.
    summed = abserr == _OFLOW
    if not summed:
        test_divergence = True
        if ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
            elif abserr > errsum:
                summed = True
            elif area == 0.0:
                test_divergence = False
        if not summed and test_divergence and not (
                ksgn == -1 and max(abs(result), abs(area)) <= resabs * 0.01):
            if area != 0.0:
                ratio = result / area
                off = 0.01 > ratio or ratio > 100.0
            else:   # IEEE: result/area is +-inf, or nan when result is 0 or nan
                off = result != 0.0 and not math.isnan(result)
            if off or errsum > abs(area):
                ier = 6
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return outcome(result, abserr, ier, last)
