"""Independent brute-force reference implementations.

Everything here trades speed for obviousness: plain loops, no numpy, no
shared code with the package. Tests compare package output against these.
"""

from __future__ import annotations

import math


def mean(xs):
    return sum(xs) / len(xs)


def std(xs, ddof=1):
    m = mean(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / (len(xs) - ddof))


def quantile(xs, q):
    """Linear interpolation between order statistics (numpy's default)."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(xs):
    return quantile(xs, 0.5)


def pearson(xs, ys):
    mx, my = mean(xs), mean(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = math.sqrt(
        sum((x - mx) ** 2 for x in xs) * sum((y - my) ** 2 for y in ys)
    )
    if den == 0.0:
        return math.nan
    return num / den


def midranks(xs):
    """Quadratic-time midranks: rank = (#smaller) + (#equal + 1) / 2."""
    out = []
    for x in xs:
        smaller = sum(1 for y in xs if y < x)
        equal = sum(1 for y in xs if y == x)
        out.append(smaller + (equal + 1) / 2)
    return out


def spearman(pred, truth):
    return pearson(midranks(pred), midranks(truth))


def mae(pred, truth):
    return sum(abs(p - t) for p, t in zip(pred, truth)) / len(pred)


def ecdf_at(scores, r):
    return sum(1 for s in scores if s <= r) / len(scores)


def kde_at(scores, h, x):
    total = sum(math.exp(-0.5 * ((x - v) / h) ** 2) for v in scores)
    return total / (len(scores) * h * math.sqrt(2.0 * math.pi))


def round_up(x, delta):
    """Smallest multiple of delta at or above x (same dust guard as the
    implementation, re-derived by hand)."""
    return math.ceil(x / delta - 1e-9) * delta


def composite(rb, impact, kappa, delta):
    return min(10.0, round_up(10.0 * rb * impact * kappa, delta))


def best_kappa(products, officials, lo=0.5, hi=2.0, step=0.05, delta=0.1):
    """First-minimum grid search over kappa; products are 10 * rb * impact."""
    best_k, best_mse = None, None
    for k in range(round((hi - lo) / step) + 1):
        kappa = lo + step * k
        scores = [min(10.0, round_up(p * kappa, delta)) for p in products]
        m = mean([(s - o) ** 2 for s, o in zip(scores, officials)])
        if best_mse is None or m < best_mse:
            best_k, best_mse = kappa, m
    return best_k


def joint_risk(factors, corr, weights, thresholds):
    """Exhaustive pair sum; NaN correlations contribute nothing."""
    total = 0.0
    m = len(factors)
    for j in range(m):
        for k in range(j + 1, m):
            if math.isnan(corr[j][k]):
                continue
            if factors[j] >= thresholds[j] and factors[k] >= thresholds[k]:
                total += weights[j][k] * corr[j][k]
    return total


def conditional_counts(pairs, row_domain, col_domain):
    """Nested dict of counts for (x, y) category pairs."""
    table = {r: {c: 0 for c in col_domain} for r in row_domain}
    for x, y in pairs:
        table[x][y] += 1
    return table


def trapezoid(ys, xs):
    return sum(
        0.5 * (ys[k] + ys[k + 1]) * (xs[k + 1] - xs[k]) for k in range(len(xs) - 1)
    )


def best_weights(encodings, officials, n_div, lambda_grid, lo=0.5, hi=2.0, step=0.05):
    """Every cell of the weight grid, scored by exact squared error in whole
    0.1 units (delta = 0.1). The lowest error wins; equal errors go to the
    smaller (alpha, beta, gamma, lambda_c, lambda_i, lambda_a) tuple, then
    to the smaller kappa. ``encodings`` holds one (phi, psi, omega, eta_c,
    eta_i, eta_a) tuple per record; returns the tuple with kappa appended."""
    targets = [round(o * 10) for o in officials]
    kappas = [lo + step * k for k in range(round((hi - lo) / step) + 1)]
    lambdas = sorted(lambda_grid)
    best = None
    for i in range(n_div + 1):
        for j in range(n_div - i + 1):
            a, b, g = i / n_div, j / n_div, (n_div - i - j) / n_div
            for lc in lambdas:
                for li in lambdas:
                    for la in lambdas:
                        for kappa in kappas:
                            sse = 0
                            for (phi, psi, omega, ec, ei, ea), t in zip(encodings, targets):
                                rb = a * phi + b * psi + g * omega
                                impact = 1.0 - (1.0 - lc * ec) * (1.0 - li * ei) * (1.0 - la * ea)
                                x = 10.0 * rb * impact * kappa
                                sse += (min(100, math.ceil(x / 0.1 - 1e-9)) - t) ** 2
                            key = (sse, (a, b, g, lc, li, la), kappa)
                            if best is None or key < best:
                                best = key
    return (*best[1], best[2])
