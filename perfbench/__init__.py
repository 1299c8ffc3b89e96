"""Seeded, stdlib-only benchmark for the linkscope package (see README.md)."""
