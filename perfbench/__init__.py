"""Training benchmark for the EC-Graph reproduction (see README.md)."""
