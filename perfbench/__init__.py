"""The repository's layered, answer-checked benchmark (see README.md)."""
