"""`python -m praline`: the praline command line."""

from praline.cli import main

if __name__ == "__main__":
    main()
