"""Test-only reference implementations the production code is
differentially checked against."""
