"""End-to-end benchmark of the host serving plane; see README.md and run.py."""
