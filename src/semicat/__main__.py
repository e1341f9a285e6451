"""`python -m semicat ...` runs the command line."""

from .cli import console

if __name__ == "__main__":
    console()
