import tracemalloc

import pytest

from multfun import builtin
from multfun.levelsets import zero_repair


@pytest.fixture(scope="session")
def lam():
    return builtin("liouville")


@pytest.fixture(scope="session")
def mu():
    return builtin("moebius")


@pytest.fixture(scope="session")
def mu2():
    return builtin("mu_squared")


@pytest.fixture(scope="session")
def l13():
    return builtin("lambda_xi", {"xi": "1/3"})


@pytest.fixture(scope="session")
def phi():
    return builtin("phi_over_n")


@pytest.fixture(scope="session")
def chi4():
    return builtin("dirichlet_character", {"modulus": 4, "index": 1})


def traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def trial_factor(n):
    """Independent factorization oracle: plain trial division."""
    out = []
    d = 2
    while d * d <= n:
        k = 0
        while n % d == 0:
            n //= d
            k += 1
        if k:
            out.append((d, k))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def oracle_eval(rule, n, completely_multiplicative=False):
    """Evaluate a prime-power rule at n by trial division."""
    v = 1 + 0j
    for p, k in trial_factor(n):
        v *= complex(rule(p, 1)) ** k if completely_multiplicative else complex(rule(p, k))
    return v


def squarefree_count_oracle(N):
    """Inclusion-exclusion count of squarefree n <= N, independent of sieves."""
    import math

    total = 0
    for d in range(1, math.isqrt(N) + 1):
        facs = trial_factor(d)
        if any(k > 1 for _, k in facs):
            continue
        mu_d = (-1) ** len(facs)
        total += mu_d * (N // (d * d))
    return total


def catalog_functions():
    """The full builtin catalog with concrete parameters, for sweep tests."""
    return [
        builtin("liouville"),
        builtin("moebius"),
        builtin("mu_squared"),
        builtin("phi_over_n"),
        builtin("lambda_xi", {"xi": "1/3"}),
        builtin("mu_xi", {"xi": "1/4"}),
        builtin("kappa_xi", {"xi": "2/5"}),
        builtin("dirichlet_character", {"modulus": 5, "index": 1}),
        builtin("chi_of_tau", {"modulus": 3}),
    ]


# custom file with a zero at 2^2, a zero first power followed by a nonzero
# second power at 5, and a value inside the unit disc at 7^3
REGISTRY_CUSTOM = "default: one\n2 1 0 1\n2 2 0 0\n3 1 0.6 0.8\n5 1 0 0\n5 2 -1 0\n7 3 0.5 0\n"

REGISTRY_CASES = {
    "liouville": lambda path: builtin("liouville"),
    "moebius": lambda path: builtin("moebius"),
    "lambda_xi(1/3)": lambda path: builtin("lambda_xi", {"xi": "1/3"}),
    "lambda_xi(0.3)": lambda path: builtin("lambda_xi", {"xi": 0.3}),
    "mu_xi(1/4)": lambda path: builtin("mu_xi", {"xi": "1/4"}),
    "kappa_xi(2/5)": lambda path: builtin("kappa_xi", {"xi": "2/5"}),
    "mu_squared": lambda path: builtin("mu_squared"),
    "phi_over_n": lambda path: builtin("phi_over_n"),
    "chi mod 5": lambda path: builtin("dirichlet_character", {"modulus": 5, "index": 1}),
    "chi mod 1": lambda path: builtin("dirichlet_character", {"modulus": 1, "index": 0}),
    "chi_of_tau(5)": lambda path: builtin("chi_of_tau", {"modulus": 5}),
    "custom_file": lambda path: builtin("custom_file", {"path": str(path)}),
    "moebius#repaired": lambda path: zero_repair(builtin("moebius"), 1),
    "liouville^2": lambda path: builtin("liouville") ** 2,
}


@pytest.fixture
def custom_path(tmp_path):
    path = tmp_path / "registry.txt"
    path.write_text(REGISTRY_CUSTOM)
    return path
