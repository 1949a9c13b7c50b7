"""Entry point for ``python -m chemlattice``."""

from .harness import cli

if __name__ == "__main__":
    cli()
