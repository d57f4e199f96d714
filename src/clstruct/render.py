"""Drawings of a scheme in text, JSON, Graphviz DOT and SVG, on a fixed
circular layout.  A switched edge (sign 1) is marked ``x``, any other ``=``.
"""
from __future__ import annotations

import math

from . import scheme as sch


def render(name: str, s: sch.Scheme, fmt: str = "text") -> str:
    """The drawing of scheme s, named name, in format fmt: ``text``,
    ``json``, ``dot`` or ``svg``."""
    g = s.graph
    if fmt == "text":
        lines = [f"render {name}"]
        lines += [f"vertex {v}" for v in range(g.n_vertices)]
        lines += [f"edge {e} {u}-{v} {_edge_mark(s, e)}"
                  for e, (u, v) in enumerate(g.edges)]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        pos = _layout(g)
        return sch._json(
            {"name": name,
             "layout": {str(v): [round(x, 1), round(y, 1)]
                        for v, (x, y) in pos.items()},
             "edges": [{"id": e, "u": u, "v": v, "mark": _edge_mark(s, e)}
                       for e, (u, v) in enumerate(g.edges)]})
    if fmt == "dot":
        quoted = name.replace("\\", "\\\\").replace('"', '\\"')
        lines = [f'graph "{quoted}" {{']
        lines += [f"  {v};" for v in range(g.n_vertices)]
        lines += [f'  {u} -- {v} [label="{_edge_mark(s, e)}"];'
                  for e, (u, v) in enumerate(g.edges)]
        return "\n".join(lines) + "\n}\n"
    return _render_svg(name, s)


def _layout(g):
    """Deterministic circular layout, radius 160, canvas 400x400."""
    pos = {}
    n = g.n_vertices
    for v in range(n):
        angle = 2 * math.pi * v / max(n, 1)
        pos[v] = (200 + 160 * math.sin(angle), 200 - 160 * math.cos(angle))
    return pos


def _edge_mark(s, e) -> str:
    return "x" if s.signs[e] == 1 else "="


def _xml_text(text: str) -> str:
    """Escape text for XML character data (quotes need no escape there)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _render_svg(name, s) -> str:
    g = s.graph
    pos = _layout(g)
    parts = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<svg xmlns="http://www.w3.org/2000/svg" width="400" '
             'height="400" viewBox="0 0 400 400">',
             f'  <title>{_xml_text(name)}</title>']
    # parallel edges are counted per unordered pair; an edge written the
    # other way round from its class's first gets the opposite offset,
    # which puts it on the side its k asks for
    seen_pair = {}
    for e, (u, v) in enumerate(g.edges):
        mark = _edge_mark(s, e)
        pair = (min(u, v), max(u, v))
        first, k = seen_pair.get(pair, ((u, v), 0))
        seen_pair[pair] = first, k + 1
        x1, y1 = pos[u]
        x2, y2 = pos[v]
        if u == v:
            r = 18 + 14 * k
            cx, cy = x1, y1 - r
            parts.append(f'  <circle cx="{cx:.1f}" cy="{cy:.1f}" '
                         f'r="{r:.1f}" fill="none" stroke="black"/>')
            lx, ly = cx, cy - r - 4
        else:
            mx, my = (x1 + x2) / 2, (y1 + y2) / 2
            dx, dy = x2 - x1, y2 - y1
            norm = math.hypot(dx, dy) or 1.0
            off = 22 * k * (1 if k % 2 else -1) * (1 if k else 0)
            if (u, v) != first:
                off = -off
            cx, cy = mx - dy / norm * off, my + dx / norm * off
            parts.append(f'  <path d="M {x1:.1f} {y1:.1f} Q {cx:.1f} '
                         f'{cy:.1f} {x2:.1f} {y2:.1f}" fill="none" '
                         f'stroke="black"/>')
            lx, ly = (x1 + 2 * cx + x2) / 4, (y1 + 2 * cy + y2) / 4 - 4
        parts.append(f'  <text x="{lx:.1f}" y="{ly:.1f}" '
                     f'text-anchor="middle" font-size="14">{mark}</text>')
    for v, (x, y) in pos.items():
        parts.append(f'  <circle cx="{x:.1f}" cy="{y:.1f}" r="10" '
                     f'fill="white" stroke="black"/>')
        parts.append(f'  <text x="{x:.1f}" y="{y + 4:.1f}" '
                     f'text-anchor="middle" font-size="11">{v}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
