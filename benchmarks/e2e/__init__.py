"""End-to-end wall-clock benchmark with per-layer attribution (see README.md)."""
