"""Small SVG writer for diagnostics: line plots and nodal-field heatmaps.

No plotting dependency; the files are plain shapes.  Line plots support a
log-scaled y axis (decay traces, training curves).  Heatmaps fill each mesh
triangle with a color from a fixed viridis-like ramp.
"""

import numpy as np

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_RAMP = [
    (0.267, 0.005, 0.329), (0.254, 0.265, 0.530), (0.164, 0.471, 0.558),
    (0.135, 0.659, 0.518), (0.478, 0.821, 0.318), (0.993, 0.906, 0.144),
]


def _fmt(x):
    return f"{float(x):.6g}"


def _nice_ticks(lo, hi, n=5):
    if not np.isfinite(lo) or not np.isfinite(hi) or hi <= lo:
        return [lo]
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = np.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 0.5 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _log_ticks(lo, hi):
    lo_e = int(np.floor(np.log10(lo)))
    hi_e = int(np.ceil(np.log10(hi)))
    step = max(1, (hi_e - lo_e) // 6)
    return [10.0 ** e for e in range(lo_e, hi_e + 1, step)]


def _ramp_color(t):
    t = min(max(float(t), 0.0), 1.0)
    pos = t * (len(_RAMP) - 1)
    i = min(int(pos), len(_RAMP) - 2)
    frac = pos - i
    rgb = [(1 - frac) * a + frac * b for a, b in zip(_RAMP[i], _RAMP[i + 1])]
    return "#" + "".join(f"{int(round(255 * c)):02x}" for c in rgb)


def line_plot(path, series, title="", xlabel="", ylabel="", logy=False):
    """Write a line plot; ``series`` is a list of (label, xs, ys) triples."""
    width, height = 640, 420
    ml, mr, mt, mb = 70, 20, 34, 46
    pw, ph = width - ml - mr, height - mt - mb

    xs_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    if logy:
        ys_all = ys_all[ys_all > 0]
        if ys_all.size == 0:
            logy = False
            ys_all = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if logy:
        y_lo, y_hi = np.log10(y_lo), np.log10(y_hi)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        v = np.log10(y) if logy else y
        return mt + ph - (v - y_lo) / (y_hi - y_lo) * ph

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>']
    if title:
        out.append(f'<text x="{width / 2}" y="20" font-size="14" '
                   f'text-anchor="middle" font-family="sans-serif">{title}</text>')
    out.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
               f'fill="none" stroke="black"/>')

    for t in _nice_ticks(x_lo, x_hi):
        x = px(t)
        out.append(f'<line x1="{_fmt(x)}" y1="{mt + ph}" x2="{_fmt(x)}" '
                   f'y2="{mt + ph + 5}" stroke="black"/>')
        out.append(f'<text x="{_fmt(x)}" y="{mt + ph + 18}" font-size="11" '
                   f'text-anchor="middle" font-family="sans-serif">{_fmt(t)}</text>')
    if logy:
        y_ticks = _log_ticks(10.0 ** y_lo, 10.0 ** y_hi)
    else:
        y_ticks = _nice_ticks(y_lo, y_hi)
    for t in y_ticks:
        y = py(t)
        if y < mt - 1 or y > mt + ph + 1:
            continue
        label = f"1e{int(round(np.log10(t)))}" if logy else _fmt(t)
        out.append(f'<line x1="{ml - 5}" y1="{_fmt(y)}" x2="{ml}" '
                   f'y2="{_fmt(y)}" stroke="black"/>')
        out.append(f'<text x="{ml - 8}" y="{_fmt(y + 4)}" font-size="11" '
                   f'text-anchor="end" font-family="sans-serif">{label}</text>')
    if xlabel:
        out.append(f'<text x="{ml + pw / 2}" y="{height - 8}" font-size="12" '
                   f'text-anchor="middle" font-family="sans-serif">{xlabel}</text>')
    if ylabel:
        out.append(f'<text x="16" y="{mt + ph / 2}" font-size="12" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'transform="rotate(-90 16 {mt + ph / 2})">{ylabel}</text>')

    for i, (label, xs, ys) in enumerate(series):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = ys > 0 if logy else np.isfinite(ys)
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}"
                       for x, y in zip(xs[keep], ys[keep]))
        color = _PALETTE[i % len(_PALETTE)]
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        ly = mt + 14 + 16 * i
        out.append(f'<line x1="{ml + pw - 130}" y1="{ly - 4}" x2="{ml + pw - 106}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{ml + pw - 100}" y="{ly}" font-size="11" '
                   f'font-family="sans-serif">{label}</text>')

    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def mesh_heatmap(path, mesh, values, title=""):
    """Write a per-triangle heatmap of a nodal field."""
    values = np.asarray(values, dtype=float)
    tri_vals = values[mesh.triangles].mean(axis=1)
    v_lo, v_hi = float(tri_vals.min()), float(tri_vals.max())
    span = v_hi - v_lo if v_hi > v_lo else 1.0

    size = 420
    ml, mt = 30, 34
    lo = mesh.nodes.min(axis=0)
    hi = mesh.nodes.max(axis=0)
    scale = (size - 20) / max(hi - lo)

    width = ml + int((hi[0] - lo[0]) * scale) + 80
    height = mt + int((hi[1] - lo[1]) * scale) + 30
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>']
    if title:
        out.append(f'<text x="{width / 2}" y="20" font-size="14" '
                   f'text-anchor="middle" font-family="sans-serif">{title}</text>')
    xs = ml + (mesh.nodes[:, 0] - lo[0]) * scale
    ys = mt + (hi[1] - mesh.nodes[:, 1]) * scale
    node_pts = [f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys)]
    for tri, v in zip(mesh.triangles, tri_vals):
        color = _ramp_color((v - v_lo) / span)
        pts = " ".join(node_pts[i] for i in tri)
        out.append(f'<polygon points="{pts}" fill="{color}" stroke="none"/>')

    bar_x = width - 60
    bar_h = height - mt - 30
    for i in range(40):
        frac = 1.0 - i / 39.0
        y = mt + i * bar_h / 40.0
        out.append(f'<rect x="{bar_x}" y="{_fmt(y)}" width="14" '
                   f'height="{_fmt(bar_h / 40.0 + 0.5)}" '
                   f'fill="{_ramp_color(frac)}"/>')
    out.append(f'<text x="{bar_x + 18}" y="{mt + 8}" font-size="10" '
               f'font-family="sans-serif">{_fmt(v_hi)}</text>')
    out.append(f'<text x="{bar_x + 18}" y="{mt + bar_h}" font-size="10" '
               f'font-family="sans-serif">{_fmt(v_lo)}</text>')
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
