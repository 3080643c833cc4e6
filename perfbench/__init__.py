"""End-to-end and per-layer benchmark of gradflow's public API."""
