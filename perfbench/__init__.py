"""The repository's end-to-end benchmark; ``perfbench/run.py`` is the entry point."""
