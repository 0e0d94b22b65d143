"""Run the command line as a module: python -m billingsley suite --name all"""
from .cli import main

if __name__ == "__main__":
    main()
