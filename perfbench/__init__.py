"""Suite-level benchmark of the reproduction (see ``run.py``)."""
