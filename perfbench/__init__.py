"""Artifact-level benchmark of the reproduction (see README.md here)."""
