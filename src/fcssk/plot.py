"""Log-y SVG plot of BER curves: one line per (code, bitrate, estimator),
one colour per (code, bitrate), one dash pattern per estimator."""

from __future__ import annotations

import math

SVG_WIDTH, SVG_HEIGHT = 760, 520
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 210, 30, 50
Y_MIN, Y_MAX = 1e-4, 1.0
PALETTE = ("#c00000", "#1060c0", "#108030", "#b06000", "#7030a0", "#008080")
DASH_BY_ESTIMATOR = {"dpll": "", "lls": "7,4", "crb": "2,4"}


def _svg_points(series, x_lo, x_hi):
    plot_w = SVG_WIDTH - MARGIN_L - MARGIN_R
    plot_h = SVG_HEIGHT - MARGIN_T - MARGIN_B
    decades = math.log10(Y_MAX / Y_MIN)
    segments, current = [], []
    for snr, ber in series:
        if ber <= 0:
            if current:
                segments.append(current)
                current = []
            continue
        ber = max(ber, Y_MIN)
        x = MARGIN_L + (snr - x_lo) / (x_hi - x_lo) * plot_w
        y = MARGIN_T + (math.log10(Y_MAX) - math.log10(ber)) / decades * plot_h
        current.append((x, y))
    if current:
        segments.append(current)
    return segments


def render_plot_svg(rows: list[dict]) -> str:
    series: dict[tuple, list] = {}
    for row in rows:
        key = (row["code"], row["bitrate"], row["estimator"])
        series.setdefault(key, []).append((row["snr_db"], row["ber"]))
    for points in series.values():
        points.sort()
    snrs = [s for pts in series.values() for s, _ in pts]
    x_lo = math.floor(min(snrs) / 10.0) * 10
    x_hi = math.ceil(max(snrs) / 10.0) * 10
    if x_hi == x_lo:
        x_hi = x_lo + 10
    plot_w = SVG_WIDTH - MARGIN_L - MARGIN_R
    plot_h = SVG_HEIGHT - MARGIN_T - MARGIN_B

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
           f'height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
           f'<rect x="0" y="0" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>']
    # y decade gridlines, 1 down to 1e-4
    decades = int(round(math.log10(Y_MAX / Y_MIN)))
    for d in range(decades + 1):
        y = MARGIN_T + d / decades * plot_h
        label = f"1e-{d}" if d else "1"
        out.append(f'<line x1="{MARGIN_L}" y1="{y:.1f}" x2="{MARGIN_L + plot_w}" '
                   f'y2="{y:.1f}" stroke="#cccccc" stroke-width="1"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{y + 4:.1f}" font-size="11" '
                   f'text-anchor="end" font-family="sans-serif">{label}</text>')
    # x gridlines every 10 dB
    x_tick = x_lo
    while x_tick <= x_hi:
        x = MARGIN_L + (x_tick - x_lo) / (x_hi - x_lo) * plot_w
        out.append(f'<line x1="{x:.1f}" y1="{MARGIN_T}" x2="{x:.1f}" '
                   f'y2="{MARGIN_T + plot_h}" stroke="#cccccc" stroke-width="1"/>')
        out.append(f'<text x="{x:.1f}" y="{MARGIN_T + plot_h + 18}" font-size="11" '
                   f'text-anchor="middle" font-family="sans-serif">{x_tick:g}</text>')
        x_tick += 10
    out.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" '
               f'height="{plot_h}" fill="none" stroke="black" stroke-width="1"/>')
    out.append(f'<text x="{MARGIN_L + plot_w / 2:.0f}" y="{SVG_HEIGHT - 12}" '
               f'font-size="12" text-anchor="middle" font-family="sans-serif">SNR (dB)</text>')
    out.append(f'<text x="18" y="{MARGIN_T + plot_h / 2:.0f}" font-size="12" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.0f})">BER</text>')

    colors: dict[tuple, str] = {}
    legend_y = MARGIN_T + 10
    for key in sorted(series):
        code, bitrate, estimator = key
        color_key = (code, bitrate)
        if color_key not in colors:
            colors[color_key] = PALETTE[len(colors) % len(PALETTE)]
        color = colors[color_key]
        dash = DASH_BY_ESTIMATOR.get(estimator, "")
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        for segment in _svg_points(series[key], x_lo, x_hi):
            if len(segment) == 1:
                x, y = segment[0]
                out.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.5" fill="{color}"/>')
            else:
                pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in segment)
                out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                           f'stroke-width="1.6"{dash_attr}/>')
        lx = MARGIN_L + plot_w + 14
        out.append(f'<line x1="{lx}" y1="{legend_y - 4}" x2="{lx + 28}" '
                   f'y2="{legend_y - 4}" stroke="{color}" stroke-width="1.6"{dash_attr}/>')
        out.append(f'<text x="{lx + 34}" y="{legend_y}" font-size="11" '
                   f'font-family="sans-serif">{code} {bitrate} b/s {estimator}</text>')
        legend_y += 18
    out.append("</svg>")
    return "\n".join(out) + "\n"
