"""`python -m windsym ...` runs the CLI, like the `windsym` console script."""

from .bounds_cli import main

if __name__ == "__main__":
    main()
