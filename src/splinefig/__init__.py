"""Spline figures: interpolation, calculus on sampled curves, implicit
traces, and hidden-line drawings of parametric surfaces, written out as
LaTeX picture environments or SVG."""

__version__ = "0.1.0"
