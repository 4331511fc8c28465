"""Time-to-verdict benchmark for qhg; see README.md and run.py."""
