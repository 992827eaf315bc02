"""Minimal self-contained SVG line plots for the figure-reproduction command.

Deliberately dependency-free: axes, tick labels, polyline series and a legend
are enough to eyeball the reproduced figures.
"""

import math

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50

PALETTE = ["#4063d8", "#e69f00", "#2e9e62", "#d55e00", "#9467bd",
           "#8c564b", "#17becf", "#333333"]


def _ticks(lo, hi, n=6):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * step:
        ticks.append(round(t, 12))
        t += step
    return ticks


def write_svg(path, series, title="", xlabel="", ylabel="", ylog=False):
    """Write one line plot.

    series: mapping name -> list of (x, y) points; non-finite points and empty
    series are dropped; with ylog=True the y axis is log10 and nonpositive
    values are dropped too.
    """
    cleaned = {}
    for name, points in series.items():
        pts = [(x, y) for x, y in points
               if math.isfinite(x) and math.isfinite(y) and (not ylog or y > 0)]
        if pts:
            cleaned[name] = pts
    if not cleaned:
        raise ValueError("nothing to plot")

    xs_all = [x for pts in cleaned.values() for x, _ in pts]
    ys_all = [math.log10(y) if ylog else y for pts in cleaned.values() for _, y in pts]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        v = math.log10(y) if ylog else y
        return MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]

    # axes box and ticks
    parts.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
                 'fill="none" stroke="black"/>')
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        parts.append(f'<line x1="{px:.1f}" y1="{MARGIN_T + plot_h}" x2="{px:.1f}" '
                     f'y2="{MARGIN_T + plot_h + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{MARGIN_T + plot_h + 18}" '
                     f'text-anchor="middle">{t:g}</text>')
    for t in _ticks(y_lo, y_hi):
        py = MARGIN_T + (y_hi - t) / (y_hi - y_lo) * plot_h
        label = f"1e{t:g}" if ylog else f"{t:g}"
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{py:.1f}" x2="{MARGIN_L}" '
                     f'y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{py + 4:.1f}" '
                     f'text-anchor="end">{label}</text>')
    parts.append(f'<text x="{MARGIN_L + plot_w / 2}" y="{HEIGHT - 10}" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="16" y="{MARGIN_T + plot_h / 2}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {MARGIN_T + plot_h / 2})">{ylabel}</text>')

    for i, (name, pts) in enumerate(cleaned.items()):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in sorted(pts))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="2.5" '
                         f'fill="{color}"/>')
        ly = MARGIN_T + 14 + 16 * i
        parts.append(f'<line x1="{MARGIN_L + plot_w - 150}" y1="{ly - 4}" '
                     f'x2="{MARGIN_L + plot_w - 130}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{MARGIN_L + plot_w - 125}" y="{ly}">{name}</text>')

    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
