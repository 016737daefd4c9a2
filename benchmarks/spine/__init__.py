"""The standing wall-clock benchmark (see README.md in this directory)."""
