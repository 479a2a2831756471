"""``python -m dynkin_tilting``: the same command line as ``dynkin-tilting``."""

from .cli import main

if __name__ == "__main__":
    main()
