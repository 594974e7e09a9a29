#!/usr/bin/env python3
"""Solver stand-in that claims every input satisfiable by the all-false model."""

print("s SATISFIABLE")
print("v 0")
