"""`python -m hochkit`: the same command as the installed `hochkit` script."""

from .cli import main

if __name__ == "__main__":
    main()
