"""Summary statistics shared by the benchmark's reports."""

import statistics


def summarize(values):
    """Median, quartiles, sample count and IQR as a share of the median."""
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "spread": (q3 - q1) / med if med else None}
