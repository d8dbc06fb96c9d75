# Fixture (whole-tree rules): an example is a caller.
from repro.arraydb.linalg import Facade
from repro.linalg.lanczos import Result


def main():
    return Facade(), Result().reconstruct()
